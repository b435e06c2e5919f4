"""The extension table from Ext^1 ranks against assembled and identified middles."""

import json

import pytest

from subcat.catalog import Catalog, build_builtin
from subcat.errors import UnknownModule
from subcat.files import load_catalog
from subcat.linalg import Subspace, unpack_row
from subcat.rep import validate

from test_lattice_path import nakayama_a3_rad2

CATALOGS = [
    ("a2", 2), ("a3", 2), *((f"an:3:{w}", 2) for w in (">>", "<<", "<>", "><")),
    ("uniserial:2", 2), ("uniserial:3", 2), ("uniserial:4", 2),
    ("a2", 3), ("a3", 3), ("uniserial:3", 3), ("a2", 5),
]


def assembled(cat, i, j, theta, offs, total):
    m = cat._assemble_extension(cat.indecs[i], cat.indecs[j],
                                unpack_row(cat.algebra.p, theta, total), offs)
    assert validate(m) is None
    return m


def reference_table(cat):
    """Every cocycle theta, all of Z and not coset representatives: assemble, identify."""
    table = {}
    for i in range(cat.n):
        for j in range(cat.n):
            offs, cocycles = cat._cocycles(i, j)
            table[(i, j)] = frozenset(
                cat.identify(assembled(cat, i, j, theta, offs, cocycles.ncols))
                for theta in Subspace(cocycles.ncols, cocycles).vectors()
            )
    return table


def checked_rank_profiles(cat):
    """Check each long-exact-sequence profile against the assembled middle; their number."""
    spaces = {(i, j): cat._ext_space(i, j) for i in range(cat.n) for j in range(cat.n)}
    nonsplit = 0
    for (i, j), space in spaces.items():
        for theta, prof in cat._middle_profiles(i, j, spaces):
            assert prof == cat.profile(assembled(cat, i, j, theta, space.offs, space.total)), (i, j)
            nonsplit += 1
    return nonsplit


@pytest.fixture()
def no_middle_modules(monkeypatch):
    """Make any assembly, profile or identification of a middle term fail."""
    def fail(*args, **kwargs):
        raise AssertionError("a complete catalog decodes every middle from its ranks")

    for name in ("_assemble_extension", "profile", "identify", "_identify_uncached"):
        monkeypatch.setattr(Catalog, name, fail)
    return monkeypatch


@pytest.mark.parametrize("descriptor,p", CATALOGS)
def test_ext_table_matches_every_cocycle(descriptor, p, no_middle_modules):
    cat = build_builtin(descriptor, p=p)
    op = cat.opposite()
    no_middle_modules.undo()
    for c in (cat, op):
        assert c.ext_table == reference_table(c)
        assert checked_rank_profiles(c)


def test_ext_table_matches_on_incomplete_catalog(tmp_path):
    cat = nakayama_a3_rad2(tmp_path)
    assert not cat.complete
    for c in (cat, cat.opposite()):
        assert c.ext_table == reference_table(c)
        assert checked_rank_profiles(c)


def test_missing_middle_summand_raises(tmp_path):
    """A2 catalog {S1, S2} without P1, the middle of the non-split extension of S1 by S2."""
    apath = tmp_path / "algebra.json"
    apath.write_text(json.dumps({
        "field_char": 2,
        "vertices": ["1", "2"],
        "arrows": [{"name": "a", "from": "1", "to": "2"}],
    }))
    paths = []
    for name, dims in (("S1", {"1": 1}), ("S2", {"2": 1})):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({"dims": dims}))
    with pytest.raises(UnknownModule, match=r"dimension vector \(1, 1\)"):
        load_catalog(apath, paths)
