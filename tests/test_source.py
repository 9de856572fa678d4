"""Checks on the package source itself."""

import ast
import re
from pathlib import Path

import vslab

SOURCE = Path(vslab.__file__).parent


def _raises(node, name):
    """Whether node is a `raise name` or `raise name(...)` statement."""
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == name


def _nodes(where):
    """`file:line` of every AST node of the package for which where(node) holds."""
    return [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if where(node)
    ]


def test_no_assert_statements():
    # python -O strips assert statements, so an invariant guarded by one
    # goes unchecked; a raised AssertionError escapes the VslabError -> exit 2
    # mapping.  The package raises BrokenInvariant instead of either.
    found = _nodes(
        lambda node: isinstance(node, ast.Assert) or _raises(node, "AssertionError")
    )
    assert found == []


def test_no_bare_value_errors():
    # a bare ValueError escapes the VslabError -> exit 2 mapping as a
    # traceback; InvalidParameter is both, so `except ValueError` still works
    assert _nodes(lambda node: _raises(node, "ValueError")) == []


def _names(path):
    """Every identifier a module names: variables, attributes and imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_no_environment_settings():
    # every setting is a flag or a --config key: no module reads os.environ
    # or calls os.getenv, so an environment variable changes no run
    found = _nodes(
        lambda node: isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "os"
        and node.attr in ("environ", "getenv", "environb", "getenvb")
    )
    assert found == []


def _names_numpy_random(node):
    """Whether node is np.random or numpy.random, or imports numpy.random."""
    if isinstance(node, ast.Attribute):
        return (node.attr == "random" and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("numpy.random") for alias in node.names)
    if isinstance(node, ast.ImportFrom) and node.module:
        return node.module.startswith("numpy.random") or (
            node.module == "numpy" and any(a.name == "random" for a in node.names)
        )
    return False


def test_no_numpy_random():
    # the random draws are cli's own Philox stream, which gives what numpy's
    # generator gives without the cost of loading numpy.random; the tests
    # keep numpy's generator as the reference
    assert _nodes(_names_numpy_random) == []


def test_one_module_starts_sweeps():
    # every engine count is read off the FamilyStats that the CLI's instance
    # loop collects; the oracles in counting must not see the engine at all
    entries = {"collect_stats", "collect_many"}
    starts = sorted(
        path.name
        for path in SOURCE.glob("*.py")
        if path.name not in ("sweep.py", "cli.py") and entries & _names(path)
    )
    assert starts == []
    assert "FamilyStats" not in _names(SOURCE / "counting.py")


def test_the_oracles_stay_scalar():
    # the oracles are the second route the engine is checked against: their
    # arithmetic is GF's scalar and row operations, so counting names neither
    # numpy nor the engine's lookup tables
    path = SOURCE / "counting.py"
    modules = {
        node.module
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and node.module
    }
    engine = {"numpy", "np", "add_table", "mul_table"}
    assert sorted(
        name for name in _names(path) | modules if name.split(".")[0] in engine
    ) == []


def test_the_stream_is_the_clis_only_sweep_entry():
    # one collect_many stream per command: a collect_stats call in the CLI
    # would bring back a sweep that waits for its own last chunk
    names = _names(SOURCE / "cli.py")
    assert "collect_many" in names and "collect_stats" not in names
    calls = _nodes(
        lambda node: isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "collect_many"
    )
    assert len([site for site in calls if site.startswith("cli.py:")]) == 1, calls


def test_one_mallopt_site():
    # the heap setting is made in one place, where a stream starts its chunks
    sites = _nodes(
        lambda node: isinstance(node, ast.Attribute) and node.attr == "mallopt"
    )
    assert len(sites) == 1 and sites[0].startswith("sweep.py:"), sites


def test_one_exit_code_decision_site():
    # every command's checks go through one ledger helper, which alone
    # decides that a run failed: outside its definition, CHECK_FAILED is
    # named at that one site
    sites = _nodes(
        lambda node: isinstance(node, ast.Name) and node.id == "CHECK_FAILED"
        and isinstance(node.ctx, ast.Load)
    )
    assert len(sites) == 1 and sites[0].startswith("cli.py:"), sites


def test_one_exact_correction_site():
    # the kernel only counts class shapes; the gamma correction is exact
    # arithmetic done once per family, so the package names the memo where
    # it is defined and in _assemble, and nowhere else
    name = "multi_root_correction"
    tree = ast.parse((SOURCE / "sweep.py").read_text())
    (assemble,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_assemble"
    ]
    inside = range(assemble.lineno, assemble.end_lineno + 1)
    defined = _nodes(lambda node: isinstance(node, ast.FunctionDef) and node.name == name)
    named = _nodes(
        lambda node: name in (
            getattr(node, "id", None), getattr(node, "attr", None),
            node.name if isinstance(node, ast.alias) else None,
        )
    )
    assert len(defined) == 1 and defined[0].startswith("sweep.py:"), defined
    assert named and all(
        site.startswith("sweep.py:") and int(site.split(":")[1]) in inside
        for site in named
    ), named


def test_one_module_forms_main_terms():
    # every main term comes from moments.main_term, which alone reads mu
    named = sorted(
        path.name
        for path in SOURCE.glob("*.py")
        if path.name != "moments.py" and "mu" in _names(path)
    )
    assert named == []
    # the CLI reads main terms and residuals off the moment record
    assert "main_term" not in _names(SOURCE / "cli.py")


def test_one_instance_loop_in_the_cli():
    # every handler hands its (instance, results, checks) entries to
    # _conclude, which alone collects the failing checks: no other function
    # of the CLI keeps a ledger of them
    tree = ast.parse((SOURCE / "cli.py").read_text())
    keepers = sorted(
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name != "_conclude"
        and any(isinstance(inner, ast.Name) and inner.id in ("ledger", "failed")
                for inner in ast.walk(node))
    )
    assert keepers == []


def test_one_pool_construction_site():
    # a stream forks its pool in one place, and a command runs one stream,
    # so one pool serves a whole run; a second construction site would
    # bring back a pool per sweep
    pools = ("Pool", "ThreadPool", "ProcessPoolExecutor")

    def constructs_pool(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name in pools

    sites = _nodes(constructs_pool)
    assert len(sites) == 1 and sites[0].startswith("sweep.py:"), sites


def test_four_exception_classes():
    # bad input is InvalidParameter (a ValueError), an enumeration over its
    # budget BudgetExceeded, a bug BrokenInvariant; main catches their base
    # VslabError.  A finer class is one that no caller tells apart.
    tree = ast.parse((SOURCE / "errors.py").read_text())
    classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    assert classes == [
        "VslabError", "InvalidParameter", "BudgetExceeded", "BrokenInvariant"
    ]
    for name in classes[1:]:
        assert _nodes(lambda node: _raises(node, name)), f"{name} is never raised"
    assert _nodes(lambda node: _raises(node, "VslabError")) == []

    def defines_exception(node):
        bases = [getattr(base, "id", getattr(base, "attr", "")) for base in node.bases]
        return any(b in classes or b.endswith(("Error", "Exception")) for b in bases)

    sites = _nodes(
        lambda node: isinstance(node, ast.ClassDef) and defines_exception(node)
    )
    assert all(site.startswith("errors.py:") for site in sites), sites


def test_one_function_builds_the_blocks():
    # what a family is swept as comes from family.cover alone: it and the
    # stabiliser_blocks it reads are defined once, and it is every cover=
    # argument there is
    for name in ("cover", "stabiliser_blocks"):
        defined = _nodes(
            lambda node: isinstance(node, ast.FunctionDef) and node.name == name
        )
        assert len(defined) == 1 and defined[0].startswith("family.py:"), defined
    passed = [
        ast.unparse(node.value)
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.keyword) and node.arg == "cover"
    ]
    assert passed == ["cover"]


def test_one_sylvester_layout():
    # the resultants, numeric and symbolic, read their rows from one builder
    # in mpoly; each route keeps its own determinant
    builders = _nodes(
        lambda node: isinstance(node, ast.FunctionDef)
        and re.search(r"sylvester|subres1_(rows|matrix)", node.name)
    )
    assert len(builders) == 1 and builders[0].startswith("mpoly.py:"), builders
    assert "sylvester_rows" in _names(SOURCE / "upoly.py")


def test_the_cli_defines_no_oracle():
    # the oracles and their costs live in counting: the CLI names none of
    # the scalar pieces an oracle is built from, nor a subset count
    pieces = {"enumerate_b", "family_poly", "batch_eval", "eval_at", "comb"}
    assert pieces & _names(SOURCE / "cli.py") == set()


def test_mpoly_has_no_det_dispatcher():
    # the commands' determinants are Bareiss's alone; cofactor expansion is
    # the independent route that the tests check Bareiss against, and no
    # function of the package calls it
    tree = ast.parse((SOURCE / "mpoly.py").read_text())
    dets = [node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("det")]
    assert dets == ["det_minors", "det_bareiss"]
    calls = _nodes(
        lambda node: isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "det_minors"
    )
    assert calls == []
