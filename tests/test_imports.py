"""Import footprint per command, the lazy public API and the CLI patch points."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import pqliouville
import pqliouville.cli as cli

ROOT = Path(__file__).resolve().parents[1]
TINY_GRID = str(ROOT / "bench" / "inputs" / "tiny_product_grid.par")
PRODUCT = ["--kind", "product", "--N", "2", "--p", "2.2", "--q", "2", "--s", "0.5", "--m", "2.0"]
DEGENERATE = ["--kind", "product", "--N", "2", "--p", "2", "--q", "2", "--s", "0.1", "--m", "0.5"]
SUM = ["--kind", "sum", "--N", "2", "--p", "2", "--q", "1.9", "--s", "1.5", "--m", "0.5",
       "--M", "1"]
RADIAL = ["solve-radial", "--kind", "hamilton_jacobi", "--N", "2", "--p", "3", "--q", "2",
          "--m", "2.5", "--r0", "1", "--r1", "2", "--u0", "-64", "--u1", "0", "--mesh-n", "64"]
HEAVY = ("numpy", "scipy")
# The grid kernels' thread pool; operators imports it on the first
# multi-block call only.
POOL = "concurrent.futures"
# dataclasses pulls in inspect, ast, dis and tokenize; the closed-form records
# are NamedTuples so that the closed-form path imports none of them.
CLOSED_FORM_SKIPS = (*HEAVY, "dataclasses", "inspect", POOL)


def fresh(code: str):
    """Run code in a new interpreter, where a RuntimeWarning is an error as in
    this one; return the JSON it prints on its last line."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def loaded_by(code: str, modules=HEAVY) -> list[str]:
    probe = f"{code}\nimport json, sys\nprint(json.dumps([m for m in {modules!r} if m in sys.modules]))"
    return fresh(probe)


def loaded_by_cli(argv: list[str], tmp_path, modules=HEAVY) -> list[str]:
    argv = [*argv, "--out", str(tmp_path / "report.json")]
    return loaded_by(f"import pqliouville.cli\nassert pqliouville.cli.main({argv!r}) == 0", modules)


def test_package_import_skips_numpy_and_scipy():
    assert loaded_by("import pqliouville", CLOSED_FORM_SKIPS) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", *PRODUCT],
        ["il-window", "--q", "2", "--m", "3"],
        ["sweep", "--params", TINY_GRID],
        ["search-b", *SUM],
        ["search-b", *DEGENERATE],
    ],
    ids=["classify", "il-window", "sweep", "search-b-sum", "search-b-degenerate"],
)
def test_closed_form_commands_skip_numpy_and_scipy(argv, tmp_path):
    assert loaded_by_cli(argv, tmp_path, CLOSED_FORM_SKIPS) == []


def test_product_search_b_loads_numpy_only(tmp_path):
    assert loaded_by_cli(["search-b", *PRODUCT], tmp_path, (*HEAVY, POOL)) == ["numpy"]


def test_solve_radial_skips_the_identity_checks(tmp_path):
    modules = ("pqliouville.identities", "pqliouville.operators", "pqliouville.fields")
    assert loaded_by_cli([*RADIAL, "--fit"], tmp_path, modules) == []


def test_solve_radial_loads_numpy_only(tmp_path):
    modules = (*HEAVY, "scipy.linalg", POOL)
    assert loaded_by_cli([*RADIAL, "--fit"], tmp_path, modules) == ["numpy"]


def test_solve_radial_starts_no_thread(tmp_path):
    # The module test above sees only the grid kernels' pool; a thread
    # started by numpy or LAPACK would show in this count.
    argv = [*RADIAL, "--fit", "--out", str(tmp_path / "report.json")]
    threads = fresh(f"import json, threading, pqliouville.cli\n"
                    f"assert pqliouville.cli.main({argv!r}) == 0\n"
                    f"print(json.dumps(threading.active_count()))")
    assert threads == 1


def dgtsv_probe(flapack=None) -> dict:
    """In a fresh interpreter: which scipy modules radial._dgtsv loads, the
    file of the LAPACK module its dgtsv comes from, and a catalogue solve's
    u digest.  A flapack path replaces radial.FLAPACK first."""
    patch = "" if flapack is None else f"radial.FLAPACK = {flapack!r}\n"
    return fresh(
        "import hashlib, json, sys\n"
        "from pqliouville import radial\n"
        f"{patch}"
        "dgtsv = radial._dgtsv()\n"
        "loaded = [m for m in ('scipy', 'scipy.linalg') if m in sys.modules]\n"
        "module = sys.modules['scipy.linalg._flapack']\n"
        "inst = radial.ProblemInstance(2, 3.0, 2.0, 'hamilton_jacobi', m=2.5)\n"
        "sol = radial.solve_radial(radial.RadialProblem(inst, 1.0, 2.0, -4096.0, 0.0, 1024))\n"
        "import scipy.linalg.lapack\n"
        "print(json.dumps({'loaded': loaded, 'file': module.__file__,\n"
        "                  'same': dgtsv is module.dgtsv is scipy.linalg.lapack.dgtsv,\n"
        "                  'converged': sol.converged,\n"
        "                  'u': hashlib.sha256(sol.u.tobytes()).hexdigest()}))"
    )


def test_dgtsv_loads_from_the_lapack_file():
    probe = dgtsv_probe()
    folder = importlib.util.find_spec("scipy").submodule_search_locations[0]
    assert probe["loaded"] == []
    assert os.path.dirname(probe["file"]) == os.path.join(folder, "linalg")
    assert os.path.basename(probe["file"]).startswith("_flapack.")
    assert probe["same"] and probe["converged"]


def test_dgtsv_falls_back_to_the_public_import():
    by_file, public = dgtsv_probe(), dgtsv_probe(os.path.join("linalg", "_no_such_module"))
    assert public["loaded"] == ["scipy", "scipy.linalg"]
    assert public["same"] and public["converged"]
    assert public["u"] == by_file["u"]


def test_thread_pool_loads_on_the_first_multi_block_call(tmp_path):
    # verify-identities at resolution 9 fits every kernel into one block.
    assert loaded_by_cli(["verify-identities", "--resolution", "9"], tmp_path, (POOL,)) == []
    grid_3d = "import numpy as np\nfrom pqliouville.operators import laplacian\n"
    assert loaded_by(f"{grid_3d}laplacian(np.ones((9, 9, 9)), 0.1)", (POOL,)) == []
    assert loaded_by(f"{grid_3d}laplacian(np.ones((97, 97, 97)), 0.1)", (POOL,)) == [POOL]


def test_public_names_resolve_in_a_fresh_interpreter():
    names = fresh(
        "import json, pqliouville\n"
        "listed = sorted(set(pqliouville.__all__) - set(dir(pqliouville)))\n"
        "namespace = {}\n"
        "exec('from pqliouville import *', namespace)\n"
        "starred = sorted(set(pqliouville.__all__) - set(namespace))\n"
        "print(json.dumps([listed, starred]))"
    )
    assert names == [[], []]
    for name in pqliouville.__all__:
        assert getattr(pqliouville, name) is not None


def test_every_public_name_is_its_submodules_object():
    """__all__ is built from the package namespace, so a helper the package
    imports from elsewhere would leak into it.  Each exported name must be
    one the package imports, eagerly or deferred, from a submodule, and be
    the object that submodule binds."""
    tree = ast.parse(Path(pqliouville.__file__).read_text())
    sources = {alias.asname or alias.name: node.module for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}
    sources.update(pqliouville._DEFERRED)
    assert set(pqliouville.__all__) == set(sources)
    for name in pqliouville.__all__:
        module = importlib.import_module(f"pqliouville.{sources[name]}")
        assert getattr(pqliouville, name) is vars(module)[name], name


def package_imports(package: Path) -> dict[str, set[str]]:
    """Each module of the package and the package modules it imports.

    Imports inside functions count as well as top-level ones; the package
    itself is `__init__`.  Imports built at run time (importlib) do not.
    """
    modules = {path.stem for path in package.glob("*.py")}

    def targets(module, names):
        if module:
            return {module.split(".")[0]}
        return {name if name in modules else "__init__" for name in names}

    graph = {}
    for name in modules:
        found = set()
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found |= targets(node.module, [alias.name for alias in node.names])
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pqliouville":
                found |= targets(node.module.partition(".")[2], [alias.name for alias in node.names])
            elif isinstance(node, ast.Import):
                found |= {alias.name.split(".")[1] if "." in alias.name else "__init__"
                          for alias in node.names if alias.name.split(".")[0] == "pqliouville"}
        graph[name] = found
    return graph


def test_package_import_graph_is_acyclic():
    graph = package_imports(Path(pqliouville.__file__).parent)
    assert {"operators", "fields"} <= graph["identities"] and "__init__" in graph["cli"]
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


def test_classify_stays_the_function():
    kinds = fresh(
        "import json, pqliouville.cli\n"
        "kinds = [type(pqliouville.classify).__name__]\n"
        "pqliouville.solve_radial, pqliouville.CATALOG, pqliouville.cli.bochner_check\n"
        "kinds.append(type(pqliouville.classify).__name__)\n"
        "print(json.dumps(kinds))"
    )
    assert kinds == ["function", "function"]


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        pqliouville.no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name


def spy(monkeypatch, name: str) -> list:
    calls = []
    original = getattr(cli, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, counted)
    return calls


def test_patched_solve_radial_gets_the_call(monkeypatch, tmp_path):
    calls = spy(monkeypatch, "solve_radial")
    assert cli.main([*RADIAL, "--out", str(tmp_path / "radial.json")]) == 0
    assert calls == ["solve_radial"]


def test_patched_bochner_check_gets_the_calls(monkeypatch, tmp_path):
    calls = spy(monkeypatch, "bochner_check")
    assert cli.main(["verify-identities", "--resolution", "5",
                     "--out", str(tmp_path / "identities.json")]) == 0
    assert calls == ["bochner_check"] * 3


def layer_calls() -> tuple:
    """The benchmark's table of patch points (bench/tracing.py is stdlib-only)."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_CALLS


@pytest.mark.parametrize("target, attr", [(t, a) for t, a, *_ in layer_calls()])
def test_benchmark_patch_points_resolve(target, attr):
    """Each name the traced benchmark wraps exists where it looks: a module
    attribute, or a method defined on the class itself (it reads __dict__)."""
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        assert callable(vars(getattr(owner, class_name)).get(attr))
    else:
        assert callable(getattr(owner, attr))
