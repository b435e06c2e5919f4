"""Malformed algebra and module files: always a SubcatError, never another exception.

Each generated file is a valid one with one part broken on purpose: a value
of the wrong JSON type, a non-prime field, a missing key, an undeclared or
duplicate name, a path that does not compose, a matrix of the wrong shape, a
relation that does not vanish, or text that is not a JSON object.  Loading it
must raise a ``SubcatError`` subclass, and the CLI must answer it with exit
code 2 and exactly one line on stderr.
"""

import copy
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from subcat.cli import main
from subcat.errors import SubcatError
from subcat.files import load_algebra, load_module

VALID_ALGEBRA = {
    "field_char": 3,
    "vertices": ["1", "2"],
    "arrows": [{"name": "a", "from": "1", "to": "2"}, {"name": "x", "from": "2", "to": "2"}],
    "relations": [[{"coeff": 1, "path": ["x", "x"]}]],
}
VALID_MODULE = {"dims": {"1": 1, "2": 1}, "matrices": {"a": [[1]], "x": [[0]]}}
VERTICES = {"1", "2"}
ARROWS = {"a", "x"}

scalars = (st.none() | st.booleans() | st.integers(-9, 9)
           | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def is_kind(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def not_kind(kind):
    return json_values.filter(lambda v: not is_kind(v, kind))


def unknown(names):
    """A value whose string form names nothing declared (the loaders apply str())."""
    return json_values.filter(lambda v: str(v) not in names)


SET, DELETE, APPEND = "set", "delete", "append"


def edit(op, path, value_strategy=st.none()):
    return st.tuples(st.just(op), st.just(path), value_strategy)


NON_PRIMES = st.sampled_from([-7, -2, -1, 0, 1, 4, 6, 9, 15, 1000])
ALGEBRA_EDITS = st.one_of(
    edit(SET, ("field_char",), not_kind(int) | NON_PRIMES),
    edit(DELETE, ("field_char",)),
    edit(DELETE, ("vertices",)),
    edit(SET, ("vertices",), not_kind(list)),
    edit(APPEND, ("vertices",), st.sampled_from(sorted(VERTICES))),
    edit(SET, ("arrows",), not_kind(list)),
    edit(SET, ("arrows", 0), not_kind(dict)),
    edit(DELETE, ("arrows", 1, "name")),
    edit(DELETE, ("arrows", 0, "from")),
    edit(DELETE, ("arrows", 1, "to")),
    edit(SET, ("arrows", 0, "from"), unknown(VERTICES)),
    edit(SET, ("arrows", 1, "to"), unknown(VERTICES)),
    edit(APPEND, ("arrows",), st.just({"name": "a", "from": "2", "to": "2"})),
    edit(SET, ("relations",), not_kind(list)),
    edit(SET, ("relations", 0), not_kind(list) | st.just([])),
    edit(SET, ("relations", 0, 0), not_kind(dict)),
    edit(DELETE, ("relations", 0, 0, "coeff")),
    edit(SET, ("relations", 0, 0, "coeff"), not_kind(int)),
    edit(SET, ("relations", 0, 0, "path"), not_kind(list) | st.just([]) | st.just(["a", "a"])),
    edit(SET, ("relations", 0, 0, "path", 1), unknown(ARROWS)),
    edit(APPEND, ("relations", 0), st.just({"coeff": 1, "path": ["a"]})),
)
MODULE_EDITS = st.one_of(
    edit(SET, ("dims",), not_kind(dict)),
    edit(SET, ("matrices",), not_kind(dict)),
    edit(SET, ("dims", "1"), not_kind(int) | st.integers(-9, -1)),
    edit(SET, ("dims", "3"), json_values),
    edit(SET, ("matrices", "b"), json_values),
    edit(SET, ("matrices", "a"), (not_kind(list) | st.sampled_from([[[1, 0]], [[1], [0]], [[]]]))
         .filter(lambda v: v is not None)),
    edit(SET, ("matrices", "a", 0, 0), not_kind(int)),
    # x*x = 0 fails for any x that is nonzero mod 3
    edit(SET, ("matrices", "x"), st.integers(-9, 9).filter(lambda k: k % 3).map(lambda k: [[k]])),
)


def not_json_object():
    """Text that does not parse, or parses to something that is not an object."""
    def rejected(text):
        try:
            return not isinstance(json.loads(text), dict)
        except ValueError:
            return True

    return st.text(max_size=12).filter(rejected) | json_values.filter(lambda v: not is_kind(v, dict)).map(json.dumps)


def apply(base, change) -> str:
    op, path, value = change
    doc = copy.deepcopy(base)
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    if op == DELETE:
        del holder[path[-1]]
    elif op == APPEND:
        holder[path[-1]].append(value)
    else:
        holder[path[-1]] = value
    return json.dumps(doc)


malformed_algebras = ALGEBRA_EDITS.map(lambda change: apply(VALID_ALGEBRA, change)) | not_json_object()
malformed_modules = MODULE_EDITS.map(lambda change: apply(VALID_MODULE, change)) | not_json_object()


def write_catalog(root: Path, algebra_text: str, module_text: str) -> tuple[Path, Path]:
    (root / "algebra.json").write_text(algebra_text, encoding="utf-8")
    mods = root / "mods"
    mods.mkdir(exist_ok=True)
    (mods / "M.json").write_text(module_text, encoding="utf-8")
    return root / "algebra.json", mods / "M.json"


def raises_subcat_error(fn, *args) -> bool:
    try:
        fn(*args)
    except SubcatError:
        return True
    return False  # any other exception propagates and fails the test


def test_the_unbroken_files_load():
    with tempfile.TemporaryDirectory() as tmp:
        alg_path, mod_path = write_catalog(Path(tmp), json.dumps(VALID_ALGEBRA), json.dumps(VALID_MODULE))
        load_module(load_algebra(alg_path), mod_path)


@settings(max_examples=300, deadline=None)
@given(malformed_algebras)
def test_malformed_algebra_raises_subcat_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        alg_path, _ = write_catalog(Path(tmp), text, "{}")
        assert raises_subcat_error(load_algebra, alg_path), text


@settings(max_examples=300, deadline=None)
@given(malformed_modules)
def test_malformed_module_raises_subcat_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        alg_path, mod_path = write_catalog(Path(tmp), json.dumps(VALID_ALGEBRA), text)
        algebra = load_algebra(alg_path)
        assert raises_subcat_error(load_module, algebra, mod_path), text


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(
    malformed_algebras.map(lambda text: (text, json.dumps(VALID_MODULE))),
    malformed_modules.map(lambda text: (json.dumps(VALID_ALGEBRA), text)),
))
def test_malformed_files_exit_2_with_one_line(capsys, files):
    with tempfile.TemporaryDirectory() as tmp:
        alg_path, mod_path = write_catalog(Path(tmp), *files)
        code = main(["catalog", "--algebra", str(alg_path), "--modules", str(mod_path.parent)])
    out = capsys.readouterr()
    assert code == 2, (files, out.err)
    assert out.err.count("\n") == 1 and out.err.startswith("error: "), out.err
