"""What each entry point imports: every CLI command pays for it at start-up.

Each probe runs in a fresh interpreter started with ``-S`` and no
``PYTHON*`` variables, so no site ``.pth`` hook or start-up file can import
these modules first and hide a regression.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# dataclasses brings inspect, ast, dis and tokenize; json is only needed for
# JSON input and output.
AVOIDED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "json")

# The build layers, and the five layers perfbench/tracer.py reads after ``import subcat.cli``.
BUILD = ["catalog", "errors", "linalg", "rep"]
CLI = sorted(BUILD + ["closures", "lattices", "cli"])

# Every public name of ``dir(subcat)`` when the package imported its modules eagerly.
EAGER_NAMES = (
    "Algebra CapExceeded Catalog CatalogError ChainCertificate CheckConfig Decomposable "
    "DuplicateIso EmptyCatalog Family HasseDiagram KINDS Mat Morphism NotTorsionFree "
    "ParseError Rep ShapeError SubRep SubcatBits SubcatError Subspace TorsionPair "
    "UnknownModule all_submodules build_builtin catalog chain_certificate closures "
    "cokernel direct_sum enumerate_family errors fac_contains filt_contains "
    "generated_submodule hasse hasse_to_dot hom_basis hom_dim image is_closed "
    "is_isomorphic kernel lattices linalg load_algebra load_catalog load_module nullspace "
    "quotient reject relations_report rep rref serre_closure solve sub_contains sub_to_rep "
    "torf_closure tors_closure torsion_pair_complete trace validate"
).split()


def probe(code: str):
    """Run ``code`` in a fresh interpreter; the Python literal it prints last."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.splitlines()[-1])


LOADED = "import sys as _s; print(sorted(m[7:] for m in _s.modules if m.startswith('subcat.')))"


def loaded_by_command(argv: list) -> list:
    """The subcat modules loaded after ``subcat.cli.main(argv)`` succeeds."""
    return probe("import contextlib, io, subcat.cli\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    assert subcat.cli.main({argv!r}) == 0\n" + LOADED)


def test_cli_import_avoids_heavy_modules():
    code = f"import subcat.cli, sys; print([m for m in {AVOIDED!r} if m in sys.modules])"
    assert probe(code) == []


def test_package_import_loads_no_module():
    assert probe("import subcat; " + LOADED) == []


def test_build_loads_only_the_build_layers():
    assert probe("import subcat; subcat.build_builtin('an:4'); " + LOADED) == BUILD


def test_cli_import_loads_the_traced_layers_only():
    """perfbench/tracer.py reads these five layers from sys.modules after ``import subcat.cli``."""
    assert probe("import subcat.cli; " + LOADED) == CLI


@pytest.mark.parametrize("argv,extra", [
    (["enumerate", "--builtin", "a2", "--kind", "all"], []),
    (["closure", "--builtin", "a2", "--kind", "tors", "--set", "B"], []),
    (["verify", "--builtin", "a2"], ["_kernel_search"]),
])
def test_command_loads(argv, extra):
    """The kernel oracle loads on the first wide/ice/ike check, which only verify makes."""
    assert loaded_by_command(argv) == sorted(CLI + extra)


def test_file_catalog_loads_the_file_module(tmp_path):
    (tmp_path / "algebra.json").write_text('{"field_char": 2, "vertices": ["1"]}')
    (tmp_path / "mods").mkdir()
    (tmp_path / "mods" / "S.json").write_text('{"dims": {"1": 1}}')
    argv = ["catalog", "--algebra", str(tmp_path / "algebra.json"),
            "--modules", str(tmp_path / "mods")]
    assert loaded_by_command(argv) == sorted(CLI + ["files"])


def test_every_eager_name_resolves_to_its_defining_object():
    got = probe(
        "import sys, types, subcat\n"
        "listed = set(dir(subcat))\n"
        "bad = []\n"
        f"for name in {EAGER_NAMES!r}:\n"
        "    value = getattr(subcat, name)\n"
        "    if isinstance(value, types.ModuleType):\n"
        "        ok = value is sys.modules['subcat.' + name]\n"
        "    else:\n"
        "        home = getattr(value, '__module__', 'subcat.lattices')\n"
        "        ok = getattr(sys.modules[home], name) is value\n"
        "    if not ok or name not in listed:\n"
        "        bad.append(name)\n"
        "print(bad)\n"
    )
    assert got == []


def test_star_import_and_unknown_name():
    import subcat

    namespace: dict = {}
    exec("from subcat import *", namespace)
    assert set(subcat.__all__) <= set(namespace)
    assert namespace["build_builtin"] is subcat.catalog.build_builtin
    assert namespace["load_catalog"] is subcat.files.load_catalog
    assert namespace["KINDS"] is subcat.lattices.KINDS
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        subcat.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from subcat import no_such_name", {})
