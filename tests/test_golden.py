"""Golden outputs: every README CLI example, plus a few non-README cases,
must reproduce the stored bytes of each written file and of stdout, and
the stored exit code.

Each case runs in-process through `vslab.cli.main` in an empty working
directory, so the README commands run as written.  The expected bytes
live under tests/golden/<case>/: one file per output file, plus
`stdout` when the command writes to stdout.  VSLAB_WORKERS is removed
from the environment, so every case runs on one worker.

After a deliberate change to the outputs, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of tests/golden/ before committing it.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
from pathlib import Path

import pytest

from vslab.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (case, argv, exit code, {input file: golden file it is copied from})
README_CASES = [
    ("mean", "mean --field 7^1 --d 4 --s 1 --a 1 --out mean.json", 0, {}),
    ("second-moment",
     "second-moment --field 5^1 --d 4 --s 0 --out v2.json --csv v2.csv", 0, {}),
    ("chi", "chi --field 7^1 --d 4 --s 2 --a 1,2 --method both --out chi.csv",
     0, {}),
    ("smn", "smn --field 5^1 --d 3 --s 1 --a 1 --method both --out smn.csv",
     0, {}),
    ("gamma",
     "gamma --field 5^1 --d 3 --s 1 --a 2 --m 1,2 --n 1 --out gamma.json",
     0, {}),
    ("verify-identities", "verify-identities --field 5^1 --d 4 --s 1 --a all",
     0, {}),
    ("verify-bounds",
     "verify-bounds --fields 7^1,11^1,13^1,5^2,3^3 --d 5-9 --a random:1 "
     "--seed 42 --out bounds.csv", 0, {}),
    ("sweep",
     "sweep --fields 5^1,7^1,11^1,13^1 --d 5 --s 1 --a random:3 --seed 42 "
     "--out sweep.csv", 0, {}),
    # the quoted (3,7) discriminant form mismatches: a reported finding
    ("appendix", "appendix --out appendix.json", 1, {}),
    ("audit-linear",
     "audit-linear --field 5^1 --d 4 --s 1 --a 1 --count 50 --out audit.json",
     0, {}),
    ("report-merge", "report-merge sweep1.csv sweep2.csv --out merged.csv", 0,
     {"sweep1.csv": "sweep/sweep.csv", "sweep2.csv": "sweep-s012/sweep.csv"}),
]

EXTRA_CASES = [
    ("chi-r", "chi --field 7^1 --d 5 --s 2 --a 1,2 --r 4,5 --method both "
     "--out chi.csv", 0, {}),
    ("smn-s0", "smn --field 7^1 --d 5 --s 0 --out smn.csv", 0, {}),
    ("gamma-r",
     "gamma --field 5^1 --d 4 --s 1 --a 2 --r 1,3,4 --m 1 --n 1,2 "
     "--out gamma.json", 0, {}),
    ("verify-bounds-s",
     "verify-bounds --fields 7^1,11^1 --d 5,6 --s 0,1,3 --budget 3000 "
     "--seed 3 --out bounds.csv", 0, {}),
    ("sweep-s012",
     "sweep --fields 5^1,7^1 --d 4,5 --s 0,1,2 --a random:2 --seed 5 "
     "--out sweep.csv", 0, {}),
    # a CSV command without --out writes its CSV to stdout
    ("chi-stdout", "chi --field 7^1 --d 4 --s 2 --a 1,2", 0, {}),
    # every a of a family, one entry per a in --a order: an extension field
    # and a prime field
    ("mean-all-a", "mean --field 3^2 --d 5 --s 2 --a all --out mean.json", 0, {}),
    ("second-moment-all-a",
     "second-moment --field 7^1 --d 5 --s 2 --a all --out v2.json", 0, {}),
]

CASES = README_CASES + EXTRA_CASES


def run_case(argv, inputs, workdir):
    """Run one case in workdir; return (exit code, stdout, {file: bytes})."""
    for name, source in inputs.items():
        shutil.copyfile(GOLDEN / source, workdir / name)
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv.split())
    finally:
        os.chdir(cwd)
    files = {
        p.name: p.read_bytes()
        for p in sorted(workdir.iterdir())
        if p.name not in inputs
    }
    return code, out.getvalue().encode(), files


def expected_files(case):
    return {
        p.name: p.read_bytes()
        for p in sorted((GOLDEN / case).iterdir())
        if p.name != "stdout"
    }


@pytest.mark.parametrize(
    "case,argv,code,inputs", CASES, ids=[c[0] for c in CASES]
)
def test_golden(case, argv, code, inputs, tmp_path, monkeypatch):
    monkeypatch.delenv("VSLAB_WORKERS", raising=False)
    got_code, stdout, files = run_case(argv, inputs, tmp_path)
    assert got_code == code
    stdout_path = GOLDEN / case / "stdout"
    assert stdout == (stdout_path.read_bytes() if stdout_path.exists() else b"")
    assert files.keys() == expected_files(case).keys()
    for name, data in expected_files(case).items():
        assert files[name] == data, f"{case}/{name} differs from the golden bytes"


def regenerate():
    import tempfile

    os.environ.pop("VSLAB_WORKERS", None)
    # cases that read other cases' golden files run last
    for case, argv, code, inputs in sorted(CASES, key=lambda c: bool(c[3])):
        with tempfile.TemporaryDirectory() as tmp:
            got_code, stdout, files = run_case(argv, inputs, Path(tmp))
        if got_code != code:
            raise SystemExit(f"{case}: exit {got_code}, expected {code}")
        target = GOLDEN / case
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        if stdout:
            (target / "stdout").write_bytes(stdout)
        for name, data in files.items():
            (target / name).write_bytes(data)
        print(f"{case}: {sorted(files)}{' + stdout' if stdout else ''}")


if __name__ == "__main__":
    regenerate()
