"""vslab benchmark: run one workload through the vslab CLI and print its metrics.

    python3 perfbench/run.py --workload bounds-grid --seed 1 --seconds 24 --trace 0

Run it from anywhere inside a source checkout; it uses the checkout's
`src/` and writes only under `.perfbench_run/` at the checkout root.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

--trace 0 runs the workload's commands as a user would, each in a fresh
`python -m vslab.cli` process, and reports the end-to-end metrics.
--trace 1 runs the commands once untraced and once through
`trace_cli.py`, both with one worker, and reports the per-layer metrics
with the tracing overhead.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS  # the script's directory is on sys.path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SETUP_PROBES = 3  # per block; one block before each pass and one after the last
OP_TIMEOUT_S = 150
WORKERS = 2  # bounds-grid's --workers when untraced


def child_env():
    env = dict(os.environ)
    env.pop("VSLAB_WORKERS", None)  # every command names --workers itself
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def run_process(cmd, cwd, env):
    """Run cmd to its end through spawn.py; return (exit code, wall s, peak RSS MB)."""
    result = cwd / "spawn.json"
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        subprocess.run(
            [sys.executable, "-S", str(BENCH / "spawn.py"), str(result), str(OP_TIMEOUT_S),
             *cmd],
            cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            check=True, timeout=OP_TIMEOUT_S + 30,
        )
    data = json.loads(result.read_text())
    return data["rc"], data["wall_s"], data["maxrss_kb"] / 1024


def setup_times(work, env, probes=SETUP_PROBES):
    """Seconds from starting a fresh interpreter to `vslab.cli` imported."""
    probe = [sys.executable, "-c", "import time, vslab.cli; print(time.monotonic())"]
    out = []
    for _ in range(probes):
        start = time.monotonic()
        done = subprocess.run(probe, cwd=work, env=env, capture_output=True, text=True,
                              check=True, timeout=OP_TIMEOUT_S)
        out.append(float(done.stdout) - start)
    return out


class Run:
    """One workload's operations, their timings and their failures."""

    def __init__(self, ops, work, env):
        self.ops, self.work, self.env = ops, work, env
        self.attempted = self.failed = 0
        self.peak_rss_mb = 0.0

    def one_pass(self, label, trace=False):
        """Run every operation once; return the wall time and the trace files."""
        wall, traces = 0.0, []
        for op in self.ops:
            directory = self.work / label / op.name
            directory.mkdir(parents=True)
            if trace:
                traces.append(directory / "trace.json")
                cmd = [sys.executable, str(BENCH / "trace_cli.py"), str(traces[-1])]
            else:
                cmd = [sys.executable, "-m", "vslab.cli"]
            rc, took, rss = run_process(cmd + list(op.argv), directory, self.env)
            wall += took
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
            self.attempted += 1
            problems = [] if rc == op.expect_rc else [f"exit code {rc}, want {op.expect_rc}"]
            if not problems:
                try:
                    problems = op.check(directory)
                except (OSError, ValueError, KeyError, TypeError, IndexError,
                        AttributeError) as exc:
                    problems = [f"unreadable output: {exc!r}"]
            if problems:
                self.failed += 1
                print(f"FAILED {label}/{op.name}:", *problems[:5], sep="\n  ",
                      file=sys.stderr)
        return wall, traces


def end_to_end(run, seconds):
    setup_times(run.work, run.env, 1)  # writes the .pyc files a user already has
    # whole passes until --seconds are measured, with set-up probes before,
    # between and after them, so that both sample the same stretch of time
    setup = setup_times(run.work, run.env)
    walls = []
    while sum(walls) < seconds:
        walls.append(run.one_pass(f"pass{len(walls)}")[0])
        setup += setup_times(run.work, run.env)
    wall = statistics.median(walls)
    pairs = sum(op.pairs for op in run.ops)
    print(f"passes {len(walls)}: " + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "pairs_per_s": (pairs / wall, "1/s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


def per_layer(run):
    """One untraced and one traced pass; sum the trace files over the commands."""
    untraced, _ = run.one_pass("untraced")
    traced, files = run.one_pass("traced", trace=True)
    calls, total, self_s, counts, keys = {}, {}, {}, {}, {}
    for path in files:
        data = json.loads(path.read_text())
        for name, into in (("calls", calls), ("total_s", total), ("self_s", self_s),
                           ("counts", counts), ("keys", keys)):
            for layer, value in data[name].items():
                into[layer] = into.get(layer, 0) + value
    sweep_s = total.get("sweep.collect_stats", 0.0)
    b_vectors = counts.get("sweep.b_vectors", 0)
    metrics = {
        "sweep.collect_stats_s": (sweep_s, "s"),
        "sweep.calls": (calls.get("sweep.collect_stats", 0), "count"),
        "sweep.b_vectors": (b_vectors, "count"),
        "sweep.b_per_s": (b_vectors / sweep_s if sweep_s else 0.0, "1/s"),
        "sweep.exact_tuple_counts_calls": (calls.get("sweep.exact_tuple_counts", 0), "count"),
        "sweep.exact_tuple_counts_keys": (keys.get("sweep.exact_tuple_counts", 0), "count"),
        "sweep.exact_tuple_counts_s": (total.get("sweep.exact_tuple_counts", 0.0), "s"),
        "counting.chi_subsets_s": (total.get("counting.chi_subsets", 0.0), "s"),
        "counting.subsets": (counts.get("counting.subsets", 0), "count"),
        "counting.smn_brute_s": (total.get("counting.smn_brute", 0.0), "s"),
        "counting.gamma_mn_s": (total.get("counting.gamma_mn", 0.0), "s"),
        "counting.gamma_mn_scans": (calls.get("counting.gamma_mn", 0), "count"),
        "counting.audit_s": (total.get("counting.audit", 0.0), "s"),
        "cli.self_s": (self_s.get("cli.main", 0.0), "s"),
        "moments.report_s": (total.get("moments.report", 0.0), "s"),
        "bounds.bound_suite_s": (total.get("bounds.bound_suite", 0.0), "s"),
        "bounds.checks": (counts.get("bounds.checks", 0), "count"),
        "reports.write_s": (total.get("reports.write", 0.0), "s"),
        "reports.bytes": (counts.get("reports.bytes", 0), "B"),
        "appendix.s": (total.get("appendix", 0.0), "s"),
        "gf.tables_s": (total.get("gf.tables", 0.0), "s"),
        "trace.wall_s": (traced, "s"),
        "trace.untraced_wall_s": (untraced, "s"),
        "trace.overhead_pct": (100 * (traced - untraced) / untraced, "%"),
    }
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "vslab" / "cli.py").is_file():
        print(f"no vslab source under {ROOT / 'src'}: run from a vslab checkout",
              file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)  # left by a killed run with this pid
    work.mkdir(parents=True)
    try:
        workers = WORKERS if not args.trace else 1
        run = Run(WORKLOADS[args.workload](args.seed, workers), work, child_env())
        metrics = per_layer(run) if args.trace else end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
