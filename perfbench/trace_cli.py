"""Run one vslab CLI command with each module's public functions timed from outside.

    python3 perfbench/trace_cli.py TRACE.json <vslab arguments...>

Before `vslab.cli.main` runs, the functions are replaced by wrappers under
the names their callers look them up by (`vslab.cli.collect_stats`,
`vslab.sweep.exact_tuple_counts`, ...).  A wrapper counts the call, adds
its time to its layer and subtracts that time from the layer that called
it, so `self_s` is a layer's time less the time of the layers it called.
Run with one worker: calls made in forked worker processes are not seen.
The program is not changed, and its outputs are the same as untraced.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter, defaultdict
from math import comb
from time import perf_counter


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.keys = defaultdict(set)
        self.missing = []
        self._stack = []  # time spent in wrapped callees, one entry per open span

    def span(self, layer, fn, args, kwargs):
        self._stack.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            took = perf_counter() - start
            inner = self._stack.pop()
            self.calls[layer] += 1
            self.total_s[layer] += took
            self.self_s[layer] += took - inner
            if self._stack:
                self._stack[-1] += took

    def wrap(self, owner, attr, layer, after=None):
        """Replace owner.attr; layer is a name, or picks one from the arguments
        (None leaves the call untraced); after(result, args, kwargs) counts work."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = layer(args, kwargs) if callable(layer) else layer
            if name is None:
                return fn(*args, **kwargs)
            result = self.span(name, fn, args, kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        setattr(owner, attr, wrapper)

    def dump(self):
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "keys": {k: len(v) for k, v in self.keys.items()},
            "missing": self.missing,
        }


def install(tr):
    from vslab import appendix, bounds, cli, counting, gf, moments, reports, sweep

    def b_vectors(result, args, kwargs):
        tr.counts["sweep.b_vectors"] += _arg(args, kwargs, 0, "spec").n_b

    for module in (cli, counting, moments, sweep):
        tr.wrap(module, "collect_stats", "sweep.collect_stats", b_vectors)

    def tuple_key(result, args, kwargs):
        caps = _arg(args, kwargs, 0, "caps")
        tr.keys["sweep.exact_tuple_counts"].add(
            (tuple(caps), _arg(args, kwargs, 1, "n_simple"), _arg(args, kwargs, 2, "d"))
        )

    for module in (sweep, counting):
        tr.wrap(module, "exact_tuple_counts", "sweep.exact_tuple_counts", tuple_key)

    def by_method(pos, method, layer):
        return lambda args, kwargs: (
            layer if _arg(args, kwargs, pos, "method", "profile") == method else None
        )

    def subsets(result, args, kwargs):
        spec, r = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "r")
        if r <= spec.d:
            tr.counts["counting.subsets"] += comb(spec.q, r)

    tr.wrap(counting, "chi_r", by_method(2, "subsets", "counting.chi_subsets"), subsets)
    tr.wrap(counting, "s_mn", by_method(3, "brute", "counting.smn_brute"))
    tr.wrap(counting, "gamma_counts_mn", "counting.gamma_mn")
    tr.wrap(counting, "linear_system_audit", "counting.audit")
    tr.wrap(moments, "build_moment_report", "moments.report")

    def checks(result, args, kwargs):
        tr.counts["bounds.checks"] += len(result)

    tr.wrap(bounds, "bound_suite", "bounds.bound_suite", checks)

    def json_bytes(result, args, kwargs):
        tr.counts["reports.bytes"] += len(result.encode())

    def csv_bytes(result, args, kwargs):
        tr.counts["reports.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    tr.wrap(reports, "dump_json", "reports.write", json_bytes)
    tr.wrap(reports, "write_csv", "reports.write", csv_bytes)
    for name in ("appendix_case_check", "subres1_terms_check", "resultant_b0_degree"):
        tr.wrap(appendix, name, "appendix")
    for name in ("__init__", "add_table", "mul_table"):
        tr.wrap(gf.GF, name, "gf.tables")
    return cli


def main():
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    out_path, argv = sys.argv[1], sys.argv[2:]
    tr = Tracer()
    cli = install(tr)
    for name in tr.missing:
        print(f"trace: {name} not found, its layer reads 0", file=sys.stderr)
    try:
        return tr.span("cli.main", cli.main, (argv,), {})
    finally:  # also when argparse exits
        with open(out_path, "w") as fh:
            json.dump(tr.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
