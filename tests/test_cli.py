import csv
import dataclasses
import json
import multiprocessing

import numpy as np
import pytest

from vslab import cli, sweep
from vslab.cli import main, parse_int_list, select_a_vectors
from vslab.errors import InvalidParameter
from vslab.gf import GF, make_field


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
    assert select_a_vectors(f5, 4, 0, "all", 0) == [()]
    assert select_a_vectors(f5, 4, 1, "3", 0) == [(3,)]
    assert select_a_vectors(f5, 4, 2, "1,2", 0) == [(1, 2)]
    allv = select_a_vectors(f5, 4, 2, "all", 0)
    assert len(allv) == 25 and allv[0] == (0, 0) and allv[-1] == (4, 4)
    r1 = select_a_vectors(f5, 4, 2, "random:3", 42)
    r2 = select_a_vectors(f5, 4, 2, "random:3", 42)
    assert r1 == r2 and len(r1) == 3
    assert select_a_vectors(f5, 4, 2, "random:3", 43) != r1


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
    """The worker count of every fork pool opened while the test runs."""
    opened = []
    fork = type(multiprocessing.get_context("fork"))
    real = fork.Pool

    def spy(self, processes=None, *args, **kwargs):
        opened.append(processes)
        return real(self, processes, *args, **kwargs)

    monkeypatch.setattr(fork, "Pool", spy)
    return opened


def test_worker_count_invariance_multi_chunk(tmp_path, pools):
    # 11^5 = 161051 b-vectors span several default chunks, so --workers 2
    # really runs on a pool
    one, two = tmp_path / "w1.csv", tmp_path / "w2.csv"
    base = ["sweep", "--fields", "11^1", "--d", "6", "--s", "0"]
    assert run(base + ["--workers", "1", "--out", str(one)]) == 0
    assert pools == []
    assert run(base + ["--workers", "2", "--out", str(two)]) == 0
    assert pools == [2]
    assert one.read_bytes() == two.read_bytes()


def test_one_pool_per_run(tmp_path, monkeypatch, pools):
    # with chunks of 500, 7^1 d=5 s=0 (2401 b-vectors), d=6 s=0 (16807)
    # and d=6 s=1 (2401) each take several chunks
    monkeypatch.setattr(sweep, "MAX_CHUNK", 500)
    sweeps = []
    real = cli.collect_stats

    def multi_chunk(spec, **kwargs):
        sweeps.append(spec.n_b > 500)
        return real(spec, **kwargs)

    monkeypatch.setattr(cli, "collect_stats", multi_chunk)
    base = ["verify-bounds", "--fields", "7^1", "--d", "5-6"]
    one, two = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert run(base + ["--workers", "1", "--out", str(one)]) == 0
    assert pools == []
    sweeps.clear()
    assert run(base + ["--workers", "2", "--out", str(two)]) == 0
    assert sweeps.count(True) == 3
    assert pools == [2]
    assert one.read_bytes() == two.read_bytes()
    # the pool closed with the run: no worker is left to serve a later one
    assert multiprocessing.active_children() == []


def test_broken_invariant_in_a_worker_exits_2(tmp_path, monkeypatch, pools):
    # a corrupt addition table makes f_b constant, so a worker's chunk
    # holds a fiber of q > d roots
    monkeypatch.setattr(GF, "add_table", lambda self: np.zeros((self.q, self.q), np.int32))
    monkeypatch.setattr(sweep, "MAX_CHUNK", 500)
    assert run(["sweep", "--fields", "7^1", "--d", "5", "--s", "0", "--workers", "2",
                "--out", str(tmp_path / "sweep.csv")]) == 2
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


def test_gamma_mn_open_count_is_checked_against_the_sweep(tmp_path, monkeypatch):
    # the open Gamma_mn count comes from the oracle's own scan, so a sweep
    # whose S_11 is off by one must fail the check
    real = cli.collect_stats

    def corrupted(spec, **kw):
        st = real(spec, **kw)
        prod = [list(row) for row in st.prod_a]
        prod[0][0] += 1
        return dataclasses.replace(st, prod_a=tuple(tuple(row) for row in prod))

    monkeypatch.setattr(cli, "collect_stats", corrupted)
    out = tmp_path / "gamma.json"
    code = run(
        ["gamma", "--field", "5^1", "--d", "3", "--s", "1", "--a", "2",
         "--m", "1", "--n", "1", "--out", str(out)]
    )
    assert code == 1
    data = json.loads(out.read_text())
    assert data["results"][0]["mn"]["1,1"]["open_equals_mn_factorial_smn"] is False
    assert data["failures"] == [["q=5^1/0,1;d=3;s=1;a=2", "gamma_mn", [1, 1]]]


def _corrupt_stats(monkeypatch, field, by=1):
    """Make every sweep the CLI collects return `field` larger by `by`."""
    real = cli.collect_stats

    def corrupted(spec, **kw):
        st = real(spec, **kw)
        return dataclasses.replace(st, **{field: getattr(st, field) + by})

    monkeypatch.setattr(cli, "collect_stats", corrupted)


@pytest.mark.parametrize(
    "field, column",
    [("sum_v2", "v2_exact_mode_matches"), ("sum_v", "mean_reconstruction_exact")],
)
def test_sweep_fails_on_a_false_reconstruction_verdict(
    tmp_path, monkeypatch, field, column
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


def test_appendix_command_reports_odd_case_failure(tmp_path):
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


def test_usage_errors():
    assert run(["mean", "--field", "5^1", "--d", "4", "--s", "1",
                "--a", "1,2"]) == 2  # wrong a length
    with pytest.raises(SystemExit) as err:
        run(["mean", "--field", "5^1"])  # missing required flags
    assert err.value.code == 2
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
    # counts below 1 are refused by the parser
    for argv in (
        ["audit-linear", *family, "--count", "-2"],
        ["audit-linear", *family, "--count", "0"],
        ["mean", *family, "--workers", "-3"],
        ["mean", *family, "--workers", "0"],
    ):
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2, argv


def test_gamma_checks_m_and_n_before_the_sweep(monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("gamma swept before checking --m/--n")

    monkeypatch.setattr(cli, "collect_stats", no_sweep)
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


def test_one_sweep_per_scaling_orbit(tmp_path, monkeypatch):
    sweeps = _count_calls(monkeypatch, cli, "collect_stats")
    out = tmp_path / "v2.json"
    assert run(["second-moment", "--field", "7^1", "--d", "5", "--s", "2",
                "--a", "all", "--out", str(out)]) == 0
    # F_7^2 splits into 10 orbits under a -> (a_4 / lam, a_3 / lam^2)
    assert len(sweeps) == 10
    results = json.loads(out.read_text())["results"]
    assert [tuple(r["a"]) for r in results] == select_a_vectors(
        make_field(7), 5, 2, "all", 0
    )


def test_two_members_of_one_orbit_sweep_once(tmp_path, monkeypatch):
    # at s = 1 every nonzero a_{d-1} lies in one orbit
    assert select_a_vectors(make_field(7), 5, 1, "random:2", 1) == [(5,), (6,)]
    sweeps = _count_calls(monkeypatch, cli, "collect_stats")
    out = tmp_path / "mean.json"
    assert run(["mean", "--field", "7^1", "--d", "5", "--s", "1",
                "--a", "random:2", "--seed", "1", "--out", str(out)]) == 0
    assert len(sweeps) == 1
    results = json.loads(out.read_text())["results"]
    assert [r["spec"] for r in results] == [
        "q=7^1/0,1;d=5;s=1;a=5", "q=7^1/0,1;d=5;s=1;a=6"
    ]
    assert results[0]["mean"] == results[1]["mean"]


def test_orbits_do_not_thin_out_the_oracle(tmp_path, monkeypatch):
    oracle = _count_calls(monkeypatch, cli.ct, "chi_r")
    assert run(["chi", "--field", "7^1", "--d", "5", "--s", "2", "--a", "all",
                "--method", "both", "--out", str(tmp_path / "chi.csv")]) == 0
    # r = 4, 5 for each of the 49 a-vectors
    assert len(oracle) == 49 * 2
    assert {args[0].a for args in oracle} == set(
        select_a_vectors(make_field(7), 5, 2, "all", 0)
    )


@pytest.mark.parametrize("workers", ["abc", "0", "-3"])
def test_bad_vslab_workers_is_a_usage_error(workers, tmp_path, monkeypatch):
    monkeypatch.setenv("VSLAB_WORKERS", workers)
    assert run(["mean", "--field", "7^1", "--d", "4", "--s", "1", "--a", "1",
                "--out", str(tmp_path / "mean.json")]) == 2
    assert run(["appendix", "--out", str(tmp_path / "appendix.json")]) == 2
