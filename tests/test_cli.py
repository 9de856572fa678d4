import argparse
import csv
import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st_

import vslab
from vslab import cli, counting, sweep
from vslab.cli import main, parse_int_list, select_a_vectors
from vslab.errors import InvalidParameter
from vslab.family import FamilySpec, cover, stabiliser_blocks
from vslab.gf import GF, make_field, parse_descriptor


def run(argv):
    return main(argv)


def test_parse_int_list():
    assert parse_int_list("5") == [5]
    assert parse_int_list("5,7,5") == [5, 7]
    assert parse_int_list("5-8") == [5, 6, 7, 8]
    assert parse_int_list("3,5-7") == [3, 5, 6, 7]
    assert parse_int_list("5-5") == [5]
    with pytest.raises(InvalidParameter, match="reversed range '9-5'"):
        parse_int_list("9-5")
    with pytest.raises(InvalidParameter, match="malformed integer list '3,5-'"):
        parse_int_list("3,5-")


def test_select_a_vectors_policies():
    f5 = make_field(5)
    assert list(select_a_vectors(f5, 4, 0, "all", 0)) == [()]
    assert select_a_vectors(f5, 4, 1, "3", 0) == [(3,)]
    assert select_a_vectors(f5, 4, 2, "1,2", 0) == [(1, 2)]
    allv = list(select_a_vectors(f5, 4, 2, "all", 0))
    assert len(allv) == 25 and allv[0] == (0, 0) and allv[-1] == (4, 4)
    r1 = select_a_vectors(f5, 4, 2, "random:3", 42)
    r2 = select_a_vectors(f5, 4, 2, "random:3", 42)
    assert r1 == r2 and len(r1) == 3
    assert select_a_vectors(f5, 4, 2, "random:3", 43) != r1


def test_a_command_builds_each_table_once(monkeypatch):
    # the CLI's field (from "4093^1") and the kernel's (from its descriptor
    # "4093^1/0,1") are one object, so the q x q addition table is built on
    # it at most once, not once on each
    calls = []
    add_table = GF.add_table

    def counted(self):
        calls.append((self, self._np_add is None))
        return add_table(self)

    monkeypatch.setattr(GF, "add_table", counted)
    assert run(["mean", "--field", "4093^1", "--d", "4", "--s", "2", "--a", "5,11",
                "--workers", "1"]) == 0
    assert len({id(gf) for gf, _ in calls}) == 1
    assert sum(first for _, first in calls) <= 1


def _numpy_philox(seed, counter):
    """The reference stream: numpy's Philox generator, which only tests load."""
    counter = np.array(counter, dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, 2**64, 2**128 - 1])
def test_philox_stream_matches_numpy(seed):
    # --a random:N is numpy's integers(0, q, size=(N, s)), over prime and
    # extension fields and a prime above 2^32, whose draws take 64-bit words
    for text in ("3", "5", "7", "3^2", "5^2", "3^3", "4093", "4294967311"):
        field = parse_descriptor(text)
        for d, s in ((4, 1), (7, 3)):
            want = _numpy_philox(seed, (0, field.q, d, s)).integers(0, field.q, (6, s))
            got = select_a_vectors(field, d, s, "random:6", seed)
            assert got == [tuple(row) for row in want.tolist()], (text, d, s)
    # audit-linear's interleaving of scalar draws and permutations; at
    # d - s = 2 both scalar draws have one outcome, and neither draws a word
    for q in (3, 13, 31):
        for d, s in ((4, 2), (7, 1)):
            ours, ref = cli._Philox(seed, q, d, s), _numpy_philox(seed, (0, q, d, s))
            total = d - s
            for _ in range(20):
                m = ours.integers(1, total)
                assert m == ref.integers(1, total)
                n = ours.integers(1, total - m + 1)
                assert n == ref.integers(1, total - m + 1)
                assert ours.permutation(q) == ref.permutation(q).tolist()
            assert ours.next64() == ref.integers(0, 2**64, dtype=np.uint64)
    # a permutation long enough to run through thousands of blocks, begun
    # with a held upper half and a buffered word, and the draws after it
    q = 100003
    ours, ref = cli._Philox(seed, q, 4, 1), _numpy_philox(seed, (0, q, 4, 1))
    assert ours.integers(1, 3) == ref.integers(1, 3)
    assert ours.permutation(q) == ref.permutation(q).tolist()
    assert [ours.integers(1, 3) for _ in range(9)] == ref.integers(1, 3, 9).tolist()
    assert ours.next64() == ref.integers(0, 2**64, dtype=np.uint64)
    # spans that reject about half the words, on 32- and on 64-bit words
    ours, ref = cli._Philox(seed, 5, 4, 1), _numpy_philox(seed, (0, 5, 4, 1))
    for span in (2**31 + 1, 2**63 + 1):
        want = ref.integers(0, span, 40, dtype=np.uint64).tolist()
        assert [ours.integers(0, span) for _ in range(40)] == want


def test_philox_counter_carries():
    # the 256-bit counter steps word 0 first: from 2^64 - 1 in words 0 to 2
    # the first block carries into word 3
    top = 2**64 - 1
    ours = cli._Philox(11, top, top, 3)
    ours.counter[0] = top
    ref = _numpy_philox(11, (top, top, top, 3))
    want = ref.integers(0, 2**64, 10, dtype=np.uint64).tolist()
    assert [ours.next64() for _ in range(10)] == want
    assert ours.counter == [2, 0, 0, 4]


def test_mean_command(tmp_path):
    out = tmp_path / "mean.json"
    code = run(
        ["mean", "--field", "7^1", "--d", "4", "--s", "1", "--a", "1",
         "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["command"] == "mean"
    (res,) = data["results"]
    assert res["n_b"] == 49
    num, den = map(int, res["mean"].split("/"))
    assert 1 <= num / den <= 7


def test_verify_identities_exit_zero(tmp_path):
    out = tmp_path / "vi.json"
    code = run(
        ["verify-identities", "--field", "5^1", "--d", "4", "--s", "1",
         "--a", "all", "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["results"]) == 5
    assert all(entry["ok"] for entry in data["results"])


def test_verify_identities_at_s0(tmp_path):
    # s = 0 defines no mean reconstruction and no chi_r to count twice
    out = tmp_path / "vi.json"
    code = run(["verify-identities", "--field", "5^1", "--d", "4", "--s", "0",
                "--out", str(out)])
    assert code == 0
    (entry,) = json.loads(out.read_text())["results"]
    assert set(entry) == {
        "spec", "mean", "second_moment", "paper_mode_residual",
        "v2_exact_mode_matches", "gamma_1_closed_exact", "ok",
    }


def test_second_moment_and_csv(tmp_path):
    out = tmp_path / "v2.json"
    csv_path = tmp_path / "v2.csv"
    code = run(
        ["second-moment", "--field", "5^1", "--d", "4", "--s", "0",
         "--out", str(out), "--csv", str(csv_path)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    (res,) = data["results"]
    assert res["v2_exact_mode"] == res["second_moment"]
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 2 and lines[0].startswith("spec,")


def test_reproducibility_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["mean", "--field", "5^1", "--d", "4", "--s", "2",
            "--a", "random:2", "--seed", "9"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_worker_count_invariance(tmp_path):
    one, four = tmp_path / "w1.csv", tmp_path / "w4.csv"
    base = ["sweep", "--fields", "5^1,7^1", "--d", "4", "--s", "1",
            "--a", "random:2", "--seed", "42"]
    assert run(base + ["--workers", "1", "--out", str(one)]) == 0
    assert run(base + ["--workers", "4", "--out", str(four)]) == 0
    assert one.read_bytes() == four.read_bytes()


def test_worker_count_invariance_json(tmp_path):
    one, two = tmp_path / "w1.json", tmp_path / "w2.json"
    base = ["mean", "--field", "7^1", "--d", "4", "--s", "1", "--a", "1"]
    assert run(base + ["--workers", "1", "--out", str(one)]) == 0
    assert run(base + ["--workers", "2", "--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()
    assert "workers" not in json.loads(one.read_text())["config"]


@pytest.fixture
def pools(monkeypatch):
    """The worker count of every process pool opened while the test runs."""
    from concurrent.futures import ProcessPoolExecutor

    opened = []
    real = ProcessPoolExecutor.__init__

    def spy(self, max_workers=None, *args, **kwargs):
        opened.append(max_workers)
        real(self, max_workers, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", spy)
    return opened


def test_worker_count_invariance_multi_chunk(tmp_path, pools):
    # 11^5 = 161051 b-vectors, swept as three blocks of 11^4 (a = 0 after
    # translation), span several default chunks, so --workers 2 really runs
    # on a pool
    one, two = tmp_path / "w1.csv", tmp_path / "w2.csv"
    base = ["sweep", "--fields", "11^1", "--d", "7", "--s", "1"]
    assert run(base + ["--workers", "1", "--out", str(one)]) == 0
    assert pools == []
    assert run(base + ["--workers", "2", "--out", str(two)]) == 0
    assert pools == [2]
    assert one.read_bytes() == two.read_bytes()


def _streams(monkeypatch):
    """Wrap the collect_many the CLI calls; the returned list gets the specs
    of each call."""
    streams = []
    real = sweep.collect_many

    def spy(specs, **kwargs):
        streams.append(list(specs))
        return real(streams[-1], **kwargs)

    monkeypatch.setattr(sweep, "collect_many", spy)
    return streams


def _stream_tasks(monkeypatch):
    """Wrap the stream's imap; the returned list gets the chunk tasks of
    each stream, on any number of workers."""
    streams = []
    real = sweep._imap

    def spy(fn, tasks, workers):
        streams.append(list(tasks))
        return real(fn, tasks, workers)

    monkeypatch.setattr(sweep, "_imap", spy)
    return streams


def test_one_pool_per_run(tmp_path, monkeypatch, pools):
    # with chunks of 300, four of the five swept 7^1 families take two or
    # more chunks: one for block 0 and one or more for their heavier blocks
    # (d=6 s=1 at a = 0, whose chunks also serve d=6 s=0, sweeps 343 + 686
    # b-vectors in 5 chunks); d=6 s=3 has one weight and 49 b-vectors
    monkeypatch.setattr(sweep, "MAX_CHUNK", 300)
    streams = _streams(monkeypatch)
    tasks = _stream_tasks(monkeypatch)
    base = ["verify-bounds", "--fields", "7^1", "--d", "5-6"]
    one, two = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert run(base + ["--workers", "1", "--out", str(one)]) == 0
    assert pools == []
    streams.clear()
    tasks.clear()
    assert run(base + ["--workers", "2", "--out", str(two)]) == 0
    assert len(streams) == 1  # one chunk stream for the whole grid
    (chunks,) = tasks  # each distinct chunk once
    swept = [(d, s) for _, d, s, *_ in chunks]
    assert list(dict.fromkeys(swept)) == [(5, 1), (5, 2), (6, 1), (6, 2), (6, 3)]
    assert len(chunks) == len(set(chunks)) == 2 + 2 + 5 + 2 + 1
    assert pools == [2]
    assert one.read_bytes() == two.read_bytes()
    # the pool closed with the run: no worker is left to serve a later one
    assert multiprocessing.active_children() == []


def test_broken_invariant_in_a_worker_exits_3(tmp_path, monkeypatch, pools, capsys):
    # a corrupt addition table makes f_b constant, so a worker's chunk
    # holds a fiber of q > d roots: a bug, reported as such, not as bad input
    monkeypatch.setattr(GF, "add_table", lambda self: np.zeros((self.q, self.q), np.int32))
    monkeypatch.setattr(sweep, "MAX_CHUNK", 500)
    tasks = _stream_tasks(monkeypatch)
    assert run(["sweep", "--fields", "7^1", "--d", "5", "--s", "0", "--workers", "2",
                "--out", str(tmp_path / "sweep.csv")]) == 3
    assert capsys.readouterr().err == "internal error: a fiber exceeded d roots\n"
    (chunks,) = tasks
    assert len(chunks) > 1
    assert pools == [2]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "argv",
    [
        ["mean", "--field", "7^1", "--d", "4", "--s", "1", "--a", "all"],
        ["second-moment", "--field", "7^1", "--d", "4", "--s", "1", "--a", "all"],
        ["chi", "--field", "7^1", "--d", "4", "--s", "2", "--a", "random:3",
         "--method", "both"],
        ["smn", "--field", "5^1", "--d", "3", "--s", "1", "--a", "all",
         "--method", "both"],
        ["gamma", "--field", "5^1", "--d", "3", "--s", "1", "--a", "all",
         "--m", "1", "--n", "1"],
        ["verify-identities", "--field", "5^1", "--d", "4", "--s", "1"],
        ["verify-bounds", "--fields", "7^1", "--d", "5-6"],
        ["sweep", "--fields", "5^1,7^1", "--d", "4", "--s", "1,2"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_sweeping_command_opens_one_stream(tmp_path, monkeypatch, argv):
    # the stream owns its pool, so one stream per command is one pool per run
    streams = _streams(monkeypatch)
    assert run(argv + ["--out", str(tmp_path / "out")]) == 0
    (swept,) = streams
    assert len(swept) > 1


@pytest.mark.parametrize("broken, code", [("check", 1), ("input", 2)])
def test_no_worker_outlives_a_failure(tmp_path, monkeypatch, pools, broken, code):
    # the second instance fails while chunks of later ones are in flight
    from vslab import bounds

    monkeypatch.setattr(sweep, "MAX_CHUNK", 300)
    real, calls = bounds.bound_suite, []

    def second_fails(spec, stats):
        calls.append(spec)
        suite = real(spec, stats)
        if len(calls) == 2 and broken == "input":
            raise InvalidParameter("refused mid-stream")
        if len(calls) == 2:
            suite[0] = dataclasses.replace(suite[0], passed=False)
        return suite

    monkeypatch.setattr(bounds, "bound_suite", second_fails)
    assert run(["verify-bounds", "--fields", "7^1", "--d", "5-6", "--workers", "2",
                "--out", str(tmp_path / "bounds.csv")]) == code
    assert pools == [2]
    assert multiprocessing.active_children() == []


def test_chi_both_methods(tmp_path):
    out = tmp_path / "chi.csv"
    code = run(
        ["chi", "--field", "7^1", "--d", "4", "--s", "2", "--a", "1,2",
         "--method", "both", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "spec,r,chi_r,main_term,bound_rhs,pass"
    assert len(lines) == 3  # r = 3, 4


def test_smn_both_methods(tmp_path):
    out = tmp_path / "smn.csv"
    code = run(
        ["smn", "--field", "5^1", "--d", "3", "--s", "1", "--a", "1",
         "--method", "both", "--out", str(out)]
    )
    assert code == 0


def test_gamma_command(tmp_path):
    out = tmp_path / "gamma.json"
    code = run(
        ["gamma", "--field", "5^1", "--d", "3", "--s", "1", "--a", "2",
         "--m", "1,2", "--n", "1", "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    entry = data["results"][0]
    assert entry["r"]["1"]["closed_equals_q_power"] is True


def test_gamma_mn_open_count_is_checked_against_the_sweep(
    tmp_path, monkeypatch, capsys
):
    # the open Gamma_mn count comes from the oracle's own scan, so a sweep
    # whose S_11 is off by one must fail the check
    real = sweep.collect_many

    def corrupted(specs, **kw):
        for st in real(specs, **kw):
            prod = [list(row) for row in st.prod_a]
            prod[0][0] += 1
            yield dataclasses.replace(st, prod_a=tuple(tuple(row) for row in prod))

    monkeypatch.setattr(sweep, "collect_many", corrupted)
    out = tmp_path / "gamma.json"
    code = run(
        ["gamma", "--field", "5^1", "--d", "3", "--s", "1", "--a", "2",
         "--m", "1", "--n", "1", "--out", str(out)]
    )
    assert code == 1
    data = json.loads(out.read_text())
    assert data["results"][0]["mn"]["1,1"]["open_equals_mn_factorial_smn"] is False
    assert data["failures"] == [["q=5^1/0,1;d=3;s=1;a=2", "gamma_mn", [1, 1]]]
    assert capsys.readouterr().err == "FAIL: q=5^1/0,1;d=3;s=1;a=2\n"


def test_gamma_r_open_count_is_checked_against_the_oracle_scan(
    tmp_path, monkeypatch, capsys
):
    # one fibre moved from d-1 distinct roots to d shifts chi_d and the
    # swept open Gamma_d alike, so only the oracle's scan can catch it
    real = sweep.collect_many

    def shifted(specs, **kw):
        for st in real(specs, **kw):
            hist = list(st.hist_n)
            hist[-2] -= 1
            hist[-1] += 1
            yield dataclasses.replace(st, hist_n=tuple(hist))

    monkeypatch.setattr(sweep, "collect_many", shifted)
    out = tmp_path / "gamma.json"
    code = run(
        ["gamma", "--field", "5^1", "--d", "3", "--s", "1", "--a", "2",
         "--out", str(out)]
    )
    assert code == 1
    data = json.loads(out.read_text())
    assert data["results"][0]["r"]["3"]["open_equals_r_factorial_chi"] is False
    key = "q=5^1/0,1;d=3;s=1;a=2"
    assert data["failures"] == [[key, "gamma_r", 3]]
    assert capsys.readouterr().err == f"FAIL: {key}\n"


def _corrupt_stats(monkeypatch, field, by=1):
    """Make every sweep the CLI collects return `field` larger by `by`."""
    real = sweep.collect_many

    def corrupted(specs, **kw):
        for st in real(specs, **kw):
            yield dataclasses.replace(st, **{field: getattr(st, field) + by})

    monkeypatch.setattr(sweep, "collect_many", corrupted)


@pytest.mark.parametrize(
    "field, column",
    [("sum_v2", "v2_exact_mode_matches"), ("sum_v", "mean_reconstruction_exact")],
)
def test_sweep_fails_on_a_false_reconstruction_verdict(
    tmp_path, monkeypatch, capsys, field, column
):
    # one more value set in the sum moves a moment off its reconstruction,
    # but by far too little to fail a bound: the row's verdict alone must
    # fail the run
    _corrupt_stats(monkeypatch, field)
    out = tmp_path / "sweep.csv"
    code = run(
        ["sweep", "--fields", "7^1", "--d", "5", "--s", "1", "--a", "2",
         "--out", str(out)]
    )
    assert code == 1
    with open(out, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row[column] == "false"
    assert row["bounds"] == "pass"
    assert capsys.readouterr().err == f"FAIL: {row['spec']}\n"


def test_second_moment_lists_a_failing_spec_once(tmp_path, monkeypatch, capsys):
    # a mean off by 1/n_b breaks both identities, and the spec is one failure
    _corrupt_stats(monkeypatch, "sum_v")
    out, table = tmp_path / "v2.json", tmp_path / "v2.csv"
    code = run(
        ["second-moment", "--field", "7^1", "--d", "5", "--s", "1", "--a", "2",
         "--out", str(out), "--csv", str(table)]
    )
    assert code == 1
    with open(table, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["mean_reconstruction_exact"] == row["v2_exact_mode_matches"] == "false"
    key = "q=7^1/0,1;d=5;s=1;a=2"
    assert json.loads(out.read_text())["failures"] == [key]
    assert capsys.readouterr().err == f"FAIL: {key}\n"


def test_verify_identities_fails_on_a_false_check(tmp_path, monkeypatch, capsys):
    _corrupt_stats(monkeypatch, "sum_v")
    out = tmp_path / "vi.json"
    code = run(
        ["verify-identities", "--field", "5^1", "--d", "4", "--s", "1",
         "--a", "1", "--out", str(out)]
    )
    assert code == 1
    (entry,) = json.loads(out.read_text())["results"]
    assert entry["mean_reconstruction_exact"] is entry["v2_exact_mode_matches"] is False
    assert entry["chi_dual_method"] is entry["gamma_1_closed_exact"] is True
    assert entry["ok"] is False
    assert capsys.readouterr().err == f"FAIL: {entry['spec']}\n"


def test_a_check_that_cannot_run_does_not_fail(tmp_path, capsys):
    # C(5, 4) = 5 and n_b q = 25 are over a subset budget of 4: neither
    # oracle runs, and its verdict is None, not a failure
    out = tmp_path / "out.json"
    base = ["--field", "5^1", "--d", "4", "--s", "1", "--a", "1",
            "--subset-budget", "4", "--out", str(out)]
    assert run(["verify-identities", *base]) == 0
    (entry,) = json.loads(out.read_text())["results"]
    assert entry["chi_dual_method"] is None and entry["ok"] is True
    assert run(["gamma", *base]) == 0
    (entry,) = json.loads(out.read_text())["results"]
    assert entry["r"]["4"]["open_equals_r_factorial_chi"] is None
    assert json.loads(out.read_text())["failures"] == []
    assert capsys.readouterr().err == ""
    # the (m, n) counts need the scan, which the budget refuses
    assert run(["gamma", *base, "--m", "1", "--n", "1"]) == 2
    assert "25 root profiles, over the subset budget 4" in capsys.readouterr().err


def test_verify_bounds_fails_on_a_broken_bound(tmp_path, monkeypatch, capsys):
    # a second moment 10^30 too large breaks the v2 bound, and only it
    _corrupt_stats(monkeypatch, "sum_v2", by=49 * 10**30)
    out = tmp_path / "bounds.csv"
    code = run(
        ["verify-bounds", "--fields", "7^1", "--d", "5", "--s", "1", "--a", "2",
         "--out", str(out)]
    )
    assert code == 1
    with open(out, newline="") as fh:
        failed = [row["kind"] for row in csv.DictReader(fh) if row["pass"] == "false"]
    assert failed == ["v2"]
    assert capsys.readouterr().err == "FAIL: q=7^1/0,1;d=5;s=1;a=2\n"


@pytest.mark.parametrize(
    "argv, oracle",
    [
        (["chi", "--field", "7^1", "--d", "4", "--s", "2", "--a", "1,2",
          "--method", "both"], "chi_r"),
        (["smn", "--field", "5^1", "--d", "3", "--s", "1", "--a", "1",
          "--method", "both"], "s_mn"),
    ],
)
def test_dual_method_counts_fail_on_a_mismatch(
    tmp_path, monkeypatch, capsys, argv, oracle
):
    real = getattr(counting, oracle)
    monkeypatch.setattr(counting, oracle, lambda *a, **kw: real(*a, **kw) + 1)
    out = tmp_path / "out.csv"
    assert run(argv + ["--out", str(out)]) == 1
    with open(out, newline="") as fh:
        (key,) = {row["spec"] for row in csv.DictReader(fh)}
    assert capsys.readouterr().err == f"FAIL: {key}\n"


def test_audit_linear_fails_on_a_wrong_count(tmp_path, monkeypatch, capsys):
    real = counting.linear_system_audit

    def miscounted(*args):
        audit = real(*args)
        return {**audit, "count_all": audit["count_all"] + 1}

    monkeypatch.setattr(counting, "linear_system_audit", miscounted)
    out = tmp_path / "audit.json"
    code = run(
        ["audit-linear", "--field", "5^1", "--d", "4", "--s", "1",
         "--a", "1", "--count", "3", "--out", str(out)]
    )
    assert code == 1
    data = json.loads(out.read_text())
    assert data["failures"] == 3
    assert [entry["ok"] for entry in data["results"]] == [False] * 3
    assert capsys.readouterr().err == "FAIL: q=5^1/0,1;d=4;s=1;a=1\n"


def test_audit_linear(tmp_path):
    out = tmp_path / "audit.json"
    code = run(
        ["audit-linear", "--field", "5^1", "--d", "4", "--s", "1",
         "--a", "1", "--count", "10", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["failures"] == 0
    assert len(data["results"]) == 10


def test_appendix_command_reports_odd_case_failure(tmp_path, capsys):
    out = tmp_path / "appendix.json"
    code = run(["appendix", "--cases", "3,4;3,7", "--subres", "5,3",
                "--out", str(out)])
    data = json.loads(out.read_text())
    by_case = {f"{c['p']},{c['d']}": c for c in data["results"]["cases"]}
    assert by_case["3,4"]["matched"] in ("exact", "up_to_scalar")
    # the printed d-odd closed form mismatches; the derived form agrees
    assert by_case["3,7"]["matched"] == "failed"
    assert by_case["3,7"]["derived_matched"] in ("exact", "up_to_scalar")
    assert code == 1
    assert capsys.readouterr().err == "FAIL: cases:3,7\n"


def test_verify_bounds_small_grid(tmp_path):
    out = tmp_path / "bounds.csv"
    code = run(
        ["verify-bounds", "--fields", "7^1,11^1", "--d", "5", "--s", "1",
         "--a", "random:1", "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "kind,q,d,s,r,m,n,lhs,rhs,applicable,feasible,pass,seed"
    assert len(lines) > 10


def test_report_merge(tmp_path):
    x = tmp_path / "x.csv"
    y = tmp_path / "y.csv"
    x.write_text("a,b\n1,2\n")
    y.write_text("a,b\n3,4\n")
    out = tmp_path / "m.csv"
    assert run(["report-merge", str(x), str(y), "--out", str(out)]) == 0
    assert out.read_text() == "a,b\n1,2\n3,4\n"
    # merge with itself doubles rows: de-duplication is off by design
    out2 = tmp_path / "m2.csv"
    assert run(["report-merge", str(x), str(x), "--out", str(out2)]) == 0
    assert out2.read_text() == "a,b\n1,2\n1,2\n"
    z = tmp_path / "z.csv"
    z.write_text("a,c\n9,9\n")
    assert run(["report-merge", str(x), str(z), "--out", str(out)]) == 2


def test_config_file(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({
        "command": "mean", "field": "5^1", "d": 4, "s": 1, "a": "2",
    }))
    out = tmp_path / "m.json"
    assert run(["--config", str(conf), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["results"][0]["spec"].endswith("d=4;s=1;a=2")
    # explicit flags override the config file
    out2 = tmp_path / "m2.json"
    assert run(["--config", str(conf), "--a", "3", "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["results"][0]["spec"].endswith("a=3")
    # the --config=path spelling reads the same file
    out3 = tmp_path / "m3.json"
    assert run([f"--config={conf}", "--out", str(out3)]) == 0
    assert out3.read_bytes() == out.read_bytes()
    # --flag=value overrides the config file too, in either config spelling
    for config in (["--config", str(conf)], [f"--config={conf}"]):
        out4 = tmp_path / "m4.json"
        assert run(config + ["--a=3", "--out", str(out4)]) == 0
        assert out4.read_bytes() == out2.read_bytes()
    # a config file must hold a JSON object
    for text in ("[1, 2]", "7", '"mean"'):
        conf.write_text(text)
        assert run(["--config", str(conf)]) == 2, text
        assert "config error: " in capsys.readouterr().err


def test_config_flag_without_a_path(capsys):
    assert run(["mean", "--field", "5^1", "--d", "4", "--s", "0", "--config"]) == 2
    assert capsys.readouterr().err == (
        "config error: --config is missing its file path\n"
    )


def test_usage_errors(tmp_path, capsys, monkeypatch):
    assert run(["mean", "--field", "5^1", "--d", "4", "--s", "1",
                "--a", "1,2"]) == 2  # wrong a length
    # missing required flags, a --seed outside Philox's keys [0, 2^128),
    # which every sweeping subcommand refuses through one argparse type, any
    # --seed to appendix, which draws nothing at random, and a --method
    # other than profile or both
    for argv in (
        ["mean", "--field", "5^1"],
        ["verify-bounds", "--fields", "7^1", "--d", "5", "--seed", "-3"],
        ["mean", "--field", "7^1", "--d", "5", "--s", "1", "--a", "random:2",
         "--seed", str(2**128)],
        ["appendix", "--cases", "7,4", "--seed", "0"],
        ["chi", "--field", "7^1", "--d", "4", "--s", "1", "--a", "1",
         "--method", "subsets"],
        ["smn", "--field", "7^1", "--d", "4", "--s", "1", "--a", "1",
         "--method", "brute"],
    ):
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2, argv
    # infeasible budget for a directly requested sweep
    assert run(["mean", "--field", "13^1", "--d", "9", "--s", "1",
                "--a", "1", "--budget", "1000"]) == 2
    # bad input exits 2 with a message, never a traceback (exit 1 means a
    # check failed)
    family = ["--field", "7^1", "--d", "4", "--s", "1", "--a", "1"]
    for argv in (
        ["chi", *family, "--r", "3-"],  # malformed list
        ["chi", *family, "--r", "5"],  # r > d
        ["chi", *family, "--r", "1"],  # below d-s+1, where no bound is stated
        ["verify-bounds", "--fields", "7^1", "--d", "5-x"],
        ["mean", "--field", "7^1", "--d", "4", "--s", "1", "--a", "random:x"],
        ["mean", "--field", "7^1", "--d", "4", "--s", "1", "--a", "random:-1"],
        ["mean", "--field", "7^1", "--d", "5", "--s", "1", "--a", "random:0"],
        ["verify-bounds", "--fields", "7^1", "--d", "5", "--a", "random:0"],
        ["mean", "--field", "7^1", "--d", "4", "--s", "1", "--a", "9"],
        # s = 0 fixes no coefficient for an explicit --a to name
        ["mean", "--field", "7^1", "--d", "5", "--s", "0", "--a", "3"],
        ["second-moment", "--field", "7^1", "--d", "5", "--s", "0", "--a", "0"],
        ["audit-linear", "--field", "7^1", "--d", "5", "--s", "0", "--a", "1,2"],
        ["mean", "--field", "7^1", "--d", "4", "--s", "3", "--a", "1,2,3"],
        ["gamma", *family, "--r", "9"],
        ["gamma", *family, "--m", "7", "--n", "1"],
        ["appendix", "--cases", "3,4,5"],
        ["appendix", "--cases", "9,4"],  # Z/9 is not a field
        ["appendix", "--subres", "9,3"],
        ["appendix", "--cases", "0,4"],
        ["mean", "--field", "7^x", "--d", "4", "--s", "0"],
        ["mean", "--field", "7^0", "--d", "4", "--s", "0"],
        ["mean", "--field", "5003^1", "--d", "3", "--s", "0"],  # no tables
        ["mean", "--field", "5003^1", "--d", "3", "--s", "1", "--a", "1"],
        ["sweep", "--fields", "7^1", "--d", "4", "--s", "1,3"],  # s > d-2
        # reversed ranges
        ["verify-bounds", "--fields", "7^1", "--d", "9-5"],
        ["sweep", "--fields", "7^1", "--d", "5", "--s", "3-2"],
        ["chi", *family, "--r", "1-0"],
    ):
        assert run(argv) == 2, argv
    # d = 1 names no family, in a single-field command or a grid
    for argv in (
        ["mean", "--field", "7^1", "--d", "1", "--s", "0"],
        ["sweep", "--fields", "7^1", "--d", "1-3", "--s", "0"],
        ["audit-linear", "--field", "7^1", "--d", "1", "--s", "0"],
    ):
        capsys.readouterr()
        assert run(argv) == 2, argv
        assert "need d >= 2, got d=1" in capsys.readouterr().err, argv
    # a file that cannot be opened is named; an output directory that does
    # not exist is refused before the first sweep, even of a whole grid
    swept, sweep_stream = [], sweep.collect_many

    def spy(*args, **kwargs):
        swept.append(args)
        return sweep_stream(*args, **kwargs)

    monkeypatch.setattr(sweep, "collect_many", spy)
    missing = tmp_path / "missing"
    for argv, path in (
        (["mean", *family, "--out"], missing / "x.json"),
        (["second-moment", *family, "--out", str(tmp_path / "v2.json"), "--csv"],
         missing / "v2.csv"),
        (["verify-bounds", "--fields", "7^1,11^1", "--d", "5-7", "--out"],
         missing / "o.csv"),
        (["sweep", "--fields", "7^1", "--d", "5", "--s", "1", "--out"],
         missing / "sw.csv"),
        (["report-merge", str(missing / "in.csv"), "--out"], tmp_path / "o.csv"),
    ):
        capsys.readouterr()
        assert run([*argv, str(path)]) == 2, argv
        assert f"{missing}" in capsys.readouterr().err, argv
    assert swept == []
    # counts below 1 are refused by the parser
    for argv in (
        ["audit-linear", *family, "--count", "-2"],
        ["audit-linear", *family, "--count", "0"],
        ["mean", *family, "--workers", "-3"],
        ["mean", *family, "--workers", "0"],
        ["mean", *family, "--budget", "-5"],  # budgets below 0
        ["chi", *family, "--subset-budget", "-1"],
    ):
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2, argv


def test_gamma_checks_m_and_n_before_the_sweep(monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("gamma swept before checking --m/--n")

    monkeypatch.setattr(sweep, "collect_many", no_sweep)
    family = ["--field", "13^1", "--d", "7", "--s", "1", "--a", "1"]
    for mn in (["--m", "9", "--n", "1"], ["--m", "1", "--n", "0"],
               ["--m", "1,8", "--n", "2"], ["--m", "1"], ["--n", "2"]):
        assert run(["gamma", *family, *mn]) == 2, mn


def test_verify_bounds_records_every_explicit_s(tmp_path):
    out = tmp_path / "bounds.csv"
    code = run(["verify-bounds", "--fields", "7^1", "--d", "5", "--s", "3,4",
                "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().splitlines()[1:]
    # s = 3 is covered by no estimate, s = 4 > d-2 names no family: both
    # were asked for, so both are recorded
    assert rows == ["instance,7,5,3,,,,,,false,true,,0",
                    "instance,7,5,4,,,,,,false,true,,0"]


def _count_calls(monkeypatch, module, name):
    """Wrap module.name; the returned list gets one entry per call."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_sweep_per_affine_orbit(tmp_path, monkeypatch):
    streams = _streams(monkeypatch)
    out = tmp_path / "v2.json"
    assert run(["second-moment", "--field", "7^1", "--d", "5", "--s", "2",
                "--a", "all", "--out", str(out)]) == 0
    # F_7^2 splits into 10 orbits under a -> (a_4 / lam, a_3 / lam^2), and
    # translation joins them into 3: a_4 cleared, a_3 zero, square or not
    (swept,) = streams  # one swept spec per member
    assert len(swept) == 49
    assert list(dict.fromkeys(spec.a for spec in swept)) == [(0, 0), (0, 1), (0, 3)]
    results = json.loads(out.read_text())["results"]
    assert [tuple(r["a"]) for r in results] == list(
        select_a_vectors(make_field(7), 5, 2, "all", 0)
    )


def test_two_members_of_one_orbit_sweep_once(tmp_path, monkeypatch):
    # at s = 1 every nonzero a_{d-1} lies in one orbit
    assert select_a_vectors(make_field(7), 5, 1, "random:2", 1) == [(5,), (6,)]
    streams = _streams(monkeypatch)
    out = tmp_path / "mean.json"
    assert run(["mean", "--field", "7^1", "--d", "5", "--s", "1",
                "--a", "random:2", "--seed", "1", "--out", str(out)]) == 0
    assert [len(set(swept)) for swept in streams] == [1]
    results = json.loads(out.read_text())["results"]
    assert [r["spec"] for r in results] == [
        "q=7^1/0,1;d=5;s=1;a=5", "q=7^1/0,1;d=5;s=1;a=6"
    ]
    assert results[0]["mean"] == results[1]["mean"]


def _kernel_runs(monkeypatch, argv):
    """The number of kernel calls that argv makes on one worker."""
    calls = _count_calls(monkeypatch, sweep, "_chunk_kernel")
    assert run(argv + ["--workers", "1"]) == 0
    return len(calls)


def test_s0_points_share_the_chunks_of_s1(tmp_path, monkeypatch):
    # at 11^1 d6 and 5^2 d6 (p not dividing d) the s = 0 family is swept as
    # the s = 1 family at a = (0,), which is also the s = 1 point's
    # representative: its chunks serve both points
    base = ["verify-bounds", "--fields", "11^1,5^2", "--d", "6", "--a", "random:1",
            "--seed", "4", "--out", str(tmp_path / "bounds.csv")]
    assert _kernel_runs(monkeypatch, base + ["--s", "0,1"]) == 7
    assert _kernel_runs(monkeypatch, base + ["--s", "1"]) == 7


def test_members_of_one_orbit_add_no_chunks(tmp_path, monkeypatch):
    # the 11 a-vectors of 11^1 d6 s1 form one affine orbit
    base = ["mean", "--field", "11^1", "--d", "6", "--s", "1",
            "--out", str(tmp_path / "mean.json")]
    alone = _kernel_runs(monkeypatch, base + ["--a", "3"])
    assert _kernel_runs(monkeypatch, base + ["--a", "all"]) == alone == 2


def test_a_bad_chi_r_is_refused_before_the_sweep(capsys, monkeypatch):
    # r = 9 lies outside d-s+1..d = 6..7, where the chi_r bounds are stated
    calls = _count_calls(monkeypatch, sweep, "_chunk_kernel")
    assert run(["chi", "--field", "31^1", "--d", "7", "--s", "2", "--a", "1,2",
                "--r", "9", "--workers", "1"]) == 2
    assert calls == []
    assert capsys.readouterr().err == (
        "config error: the chi_r bounds hold for 6 <= r <= 7, not r = [9]\n"
    )


@pytest.mark.parametrize("command, message", [
    ("chi", "C(31,6) exceeds the subset budget 10"),
    ("smn", "brute S_mn enumeration over 5267241 subset pairs x 923521 members "
            "exceeds the budget 10"),
], ids=["chi", "smn"])
def test_an_unmeetable_subset_budget_is_refused_before_the_sweep(
    command, message, capsys, monkeypatch
):
    # the oracles' budgets depend on q, d, s and the cells, not on the sweep
    calls = _count_calls(monkeypatch, sweep, "_chunk_kernel")
    assert run([command, "--field", "31^1", "--d", "7", "--s", "2", "--a", "1,2",
                "--method", "both", "--subset-budget", "10", "--workers", "1"]) == 2
    assert calls == []
    assert capsys.readouterr().err == f"infeasible budget: {message}\n"


def test_orbits_do_not_thin_out_the_oracle(tmp_path, monkeypatch):
    oracle = _count_calls(monkeypatch, counting, "chi_r")
    assert run(["chi", "--field", "7^1", "--d", "5", "--s", "2", "--a", "all",
                "--method", "both", "--out", str(tmp_path / "chi.csv")]) == 0
    # r = 4, 5 for each of the 49 a-vectors
    assert len(oracle) == 49 * 2
    assert {args[0].a for args in oracle} == set(
        select_a_vectors(make_field(7), 5, 2, "all", 0)
    )


def _planned(field, d, s):
    """cli._plan of one point, with the default flags it reads."""
    args = argparse.Namespace(a="", seed=0, budget=10**6, workers=1)
    return args, cli._plan(args, field, d, s)


# (field, d) at s = 0 that the full route reaches within the default budget
S0_POINTS = [
    (parse_descriptor(text), d)
    for text in ("3^1", "5^1", "7^1", "11^1", "3^2", "5^2")
    for d in range(3, 7)
    if parse_descriptor(text).q ** (d - 1) <= sweep.DEFAULT_BUDGET
]


@pytest.mark.filterwarnings("ignore:q = ")  # q <= d at 3^1 and 5^1
@settings(max_examples=2 * len(S0_POINTS), deadline=None)
@given(point=st_.sampled_from(S0_POINTS))
@example(point=(parse_descriptor("5^1"), 5))  # p | d
@example(point=(parse_descriptor("7^1"), 7))  # p | d
@example(point=(parse_descriptor("3^2"), 6))  # p | d
def test_s0_route_equals_the_full_sweep(point):
    # the s = 0 family is the disjoint union over a_{d-1} of the s = 1
    # families; for p not dividing d the translation T -> T - a_{d-1}/d
    # carries each onto a_{d-1} = 0, and for p | d lam^-d f(lam T) carries
    # each nonzero a_{d-1} onto 1
    field, d = point
    args, plan = _planned(field, d, 0)
    ((spec, swept),) = plan
    assert swept == spec
    if d % field.p:
        orbits = [((0,), field.q)]
    else:
        orbits = [((0,), 1), ((1,), field.q - 1)]
    parts = [(FamilySpec(field, d, 1, a), size) for a, size in orbits]
    assert cover(spec) == [
        (part, lo, hi, size * w)
        for part, size in parts
        for lo, hi, w in stabiliser_blocks(part)
    ]
    ((_, planned),) = cli._instances(args, plan)
    assert planned == sweep.collect_stats(FamilySpec(field, d, 0, ()))


def test_s0_points_cover_the_edge_cases():
    assert {field.q for field, _ in S0_POINTS} == {3, 5, 7, 11, 9, 25}
    assert {d for _, d in S0_POINTS} == {3, 4, 5, 6}
    assert any(d % field.p == 0 for field, d in S0_POINTS)


def test_s0_at_d2_takes_the_full_route():
    # s = 1 names no family at d = 2
    args, plan = _planned(make_field(7), 2, 0)
    ((spec, swept),) = plan
    assert swept == spec and spec.s == 0
    assert {part for part, *_ in cover(spec)} == {spec}
    ((_, planned),) = cli._instances(args, plan)
    assert planned == sweep.collect_stats(spec)


def test_s0_budget_judges_the_requested_family(tmp_path, capsys):
    # the route sweeps 2 * 11^5 vectors, but the request is 11^6 of them
    assert run(["mean", "--field", "11^1", "--d", "7", "--s", "0"]) == 2
    assert "1771561 free vectors exceed the budget" in capsys.readouterr().err
    out = tmp_path / "bounds.csv"
    assert run(["verify-bounds", "--fields", "11^1", "--d", "7", "--s", "0",
                "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == ["sweep,11,7,0,,,,,,true,false,,0"]


def test_the_environment_sets_no_worker_count(tmp_path, monkeypatch):
    # --workers and --config set the worker count; the environment does not
    monkeypatch.setenv("VSLAB_WORKERS", "abc")
    assert run(["mean", "--field", "7^1", "--d", "4", "--s", "1", "--a", "1",
                "--out", str(tmp_path / "mean.json")]) == 0
    assert run(["appendix", "--cases", "7,4", "--subres", "5,3",
                "--out", str(tmp_path / "appendix.json")]) == 0


def test_s0_takes_all_and_random_a(tmp_path):
    # "all" and "random:N" name no coefficient, so s = 0 takes them; a grid
    # applies an explicit --a to its s >= 1 points only
    for policy in ("all", "random:2"):
        out = tmp_path / f"{policy[:3]}.json"
        assert run(["mean", "--field", "11^1", "--d", "5", "--s", "0",
                    "--a", policy, "--out", str(out)]) == 0
        (res,) = json.loads(out.read_text())["results"]
        assert res["spec"] == "q=11^1/0,1;d=5;s=0;a="
    out = tmp_path / "bounds.csv"
    assert run(["verify-bounds", "--fields", "7^1", "--d", "5", "--s", "0,1",
                "--a", "3", "--out", str(out)]) == 0
    assert {row.split(",")[3] for row in out.read_text().splitlines()[1:]} == {"0", "1"}


def test_zero_budget_refuses_every_sweep(capsys):
    assert run(["mean", "--field", "7^1", "--d", "4", "--s", "1", "--a", "1",
                "--budget", "0"]) == 2
    assert "49 free vectors exceed the budget 0" in capsys.readouterr().err


def test_budget_is_judged_before_the_a_vectors_exist(monkeypatch, capsys):
    # n_b does not depend on a, so the refusal builds the first of the
    # 23^4 specs of --a all alone, and names it
    built = _count_calls(monkeypatch, vslab.family, "FamilySpec")
    assert run(["mean", "--field", "23^1", "--d", "9", "--s", "4", "--a", "all",
                "--budget", "1"]) == 2
    assert capsys.readouterr().err == (
        "infeasible budget: q=23^1/0,1;d=9;s=4;a=0,0,0,0: "
        "279841 free vectors exceed the budget 1\n"
    )
    assert len(built) == 1


# (field, d, s) of the block route: d = 2, p | d, extension fields,
# every s from 0 to d-2, and at most 3^7 requested b-vectors
ROUTE_POINTS = [
    (parse_descriptor(text), d, s)
    for text in ("3^1", "5^1", "7^1", "11^1", "3^2", "5^2")
    for d in range(2, 8)
    if parse_descriptor(text).q > d or d % parse_descriptor(text).p == 0
    for s in range(d - 1)
    if parse_descriptor(text).q ** (d - s - 1) <= 3**7
]


@st_.composite
def route_requests(draw):
    field, d, s = draw(st_.sampled_from(ROUTE_POINTS))
    return field, d, s, tuple(draw(st_.integers(0, field.q - 1)) for _ in range(s))


def test_route_points_cover_the_edge_cases():
    assert {d for _, d, _ in ROUTE_POINTS} == set(range(2, 8))
    p_divides_d = {field.q for field, d, _ in ROUTE_POINTS if d % field.p == 0}
    assert p_divides_d == {3, 5, 7, 9, 25}
    assert {s for _, _, s in ROUTE_POINTS} == set(range(6))
    tops = {d for _, d, s in ROUTE_POINTS if s == d - 2}
    assert tops == set(range(2, 8))


@pytest.mark.filterwarnings("ignore:q = ")  # q <= d where p | d
@settings(max_examples=60, deadline=None)
@given(request=route_requests())
@example(request=(parse_descriptor("5^2"), 2, 0, ()))
@example(request=(parse_descriptor("3^2"), 6, 2, (0, 0)))  # p | d, a = 0
@example(request=(parse_descriptor("7^1"), 7, 5, (0, 0, 0, 0, 0)))  # p | d, q = d
@example(request=(parse_descriptor("11^1"), 5, 1, (0,)))  # a = 0: 3 blocks of 11
@example(request=(parse_descriptor("5^2"), 5, 2, (7, 0)))  # p | d
def test_block_route_equals_the_full_sweep(request):
    # the planned route (affine representative, s = 0 as weighted s = 1
    # families, one block per stabiliser orbit) against a plain sweep of
    # every b-vector of the requested family
    field, d, s, a = request
    args = argparse.Namespace(a=",".join(map(str, a)) or "all", seed=0,
                              budget=10**6, workers=1)
    ((spec, planned),) = cli._instances(args, cli._plan(args, field, d, s))
    assert spec == FamilySpec(field, d, s, a)
    assert planned == sweep.collect_stats(spec)


@pytest.mark.filterwarnings("ignore:q = ")  # q = d = 5
@pytest.mark.parametrize("text, d, s", [("5^1", 5, 2), ("3^2", 5, 1), ("7^1", 6, 2)])
def test_every_a_sums_to_the_s0_family(text, d, s):
    # F_q^(d-1) is the disjoint union over a in F_q^s of the families at a,
    # so their routed stats sum, field by field, to a plain s = 0 sweep
    field = parse_descriptor(text)
    args = argparse.Namespace(a="all", seed=0, budget=10**6, workers=1)
    plan = cli._plan(args, field, d, s)
    parts = [stats for _, stats in cli._instances(args, plan)]
    assert len(parts) == field.q**s
    whole = sweep.collect_stats(FamilySpec(field, d, 0))
    for name in ("n_b", "sum_v", "sum_v2", "hist_n", "prod_a", "gamma_closed"):
        total = sum(np.array(getattr(st, name), dtype=object) for st in parts)
        assert np.array_equal(total, np.array(getattr(whole, name), dtype=object)), name


# modules that only some commands need: only a command that builds a
# family needs numpy, np.unique(x) without return_counts loads numpy.ma,
# only a pool of several workers needs multiprocessing, and the sweep needs
# none of the oracle modules
STARTUP_WATCHED = ("multiprocessing", "numpy", "numpy.ma", "numpy.random",
                   "vslab.appendix", "vslab.bounds", "vslab.counting", "vslab.upoly")


def _loaded_after(cwd, *argvs, exit_code=0):
    """The STARTUP_WATCHED modules that a fresh interpreter holds after
    importing vslab.cli and running main() on each argv in turn, each of
    which must return exit_code."""
    code = (
        "import sys, vslab.cli\n"
        f"for argv in {argvs!r}:\n"
        f"    assert vslab.cli.main(list(argv)) == {exit_code!r}, argv\n"
        f"print(*(m for m in {STARTUP_WATCHED!r} if m in sys.modules))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(vslab.__file__).parent.parent), env.get("PYTHONPATH")])
    )
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return set(done.stdout.split())


def test_a_command_imports_only_what_it_uses(tmp_path):
    assert _loaded_after(tmp_path) == set()
    # the appendix checks and a merge never sweep, so they load no numpy;
    # the appendix loads its own module alone
    appendix = ["appendix", "--cases", "7,4", "--subres", "5,3", "--out", "ap.json"]
    assert _loaded_after(tmp_path, appendix) == {"vslab.appendix"}
    for name, row in (("one.csv", "1,2"), ("two.csv", "3,4")):
        (tmp_path / name).write_text(f"x,y\n{row}\n")
    merge = ["report-merge", "one.csv", "two.csv", "--out", "merged.csv"]
    assert _loaded_after(tmp_path, merge) == set()
    moments = [
        [command, "--field", field, "--d", "5", "--s", s, "--a", "all",
         "--workers", "1", "--out", f"{command}.json"]
        for command, field, s in (("mean", "7^1", "1"), ("second-moment", "3^2", "2"))
    ]
    assert _loaded_after(tmp_path, *moments) == {"numpy"}
    grid = ["verify-bounds", "--fields", "7^1", "--d", "5", "--workers", "2",
            "--out", "bounds.csv"]
    assert _loaded_after(tmp_path, grid) == {"multiprocessing", "vslab.bounds", "numpy"}
    # the random draws of --a random:N and of audit-linear need no numpy.random
    sweep_random = ["sweep", "--fields", "7^1", "--d", "5", "--s", "1", "--a", "random:3",
                    "--workers", "1", "--out", "sweep.csv"]
    assert _loaded_after(tmp_path, sweep_random) == {"vslab.bounds", "numpy"}
    audit = ["audit-linear", "--field", "7^1", "--d", "5", "--s", "1", "--a", "1",
             "--count", "5", "--out", "audit.json"]
    assert _loaded_after(tmp_path, audit) == {"numpy", "vslab.counting", "vslab.upoly"}


def test_a_refused_plan_loads_nothing(tmp_path):
    # a malformed field is refused before numpy, the bound suite or the
    # oracles load
    family = ["--field", "7^x", "--d", "4", "--s", "1", "--a", "1"]
    for argv in (["mean", "--field", "7^x", "--d", "4", "--s", "0"],
                 ["verify-bounds", "--fields", "7^x", "--d", "5"],
                 ["chi", *family], ["smn", *family], ["gamma", *family],
                 ["verify-identities", *family], ["audit-linear", *family]):
        assert _loaded_after(tmp_path, argv, exit_code=2) == set(), argv
