"""Catalog construction, extension tables, identification, opposites."""

import json
import random
from itertools import product

import pytest

from subcat.catalog import (
    build_builtin,
    find_nontrivial_idempotent,
    mid_add,
)
from subcat.errors import (
    CatalogError,
    Decomposable,
    DuplicateIso,
    EmptyCatalog,
    ParseError,
)
from subcat.files import load_catalog
from subcat.linalg import Mat
from subcat.rep import Rep, direct_sum, hom_dim, is_isomorphic, validate


@pytest.fixture(scope="module")
def a2():
    return build_builtin("a2")


@pytest.fixture(scope="module")
def a3():
    return build_builtin("a3")


@pytest.fixture(scope="module")
def u3():
    return build_builtin("uniserial:3")


def names_of(cat, mid):
    return sorted(cat.names[k] for k in mid)


# -- builtins -----------------------------------------------------------------


def test_a2_builtin(a2):
    assert a2.names == ("A", "B", "C")
    assert [m.dims for m in a2.indecs] == [(0, 1), (1, 1), (1, 0)]
    # the non-split extension realizes B as a middle term of (A, C)
    mids = {tuple(names_of(a2, mid)) for mid in a2.ext_table[(0, 2)]}
    assert mids == {("A", "C"), ("B",)}


def test_uniserial_1():
    cat = build_builtin("uniserial:1")
    assert cat.n == 1
    assert cat.simples == (0,)


def test_a3_has_six_indecs(a3):
    assert a3.n == 6
    assert len(a3.simples) == 3


def test_a3_exhaustive_indec_search(a3):
    """All indecomposables with per-vertex dimension at most 1, by brute force."""
    alg = a3.algebra
    classes = []
    for dims in product([0, 1], repeat=3):
        shapes = [(dims[a.target], dims[a.source]) for a in alg.arrows]
        entry_counts = [r * c for r, c in shapes]
        for flat in product([0, 1], repeat=sum(entry_counts)):
            mats = []
            pos = 0
            for r, c in shapes:
                take = flat[pos : pos + r * c]
                pos += r * c
                rows = [list(take[i * c : (i + 1) * c]) for i in range(r)]
                mats.append(Mat.from_rows(2, rows, ncols=c))
            rep = Rep(alg, dims, tuple(mats))
            if validate(rep) is not None or rep.total_dim == 0:
                continue
            if find_nontrivial_idempotent(rep) is not None:
                continue
            if any(is_isomorphic(rep, seen) for seen in classes):
                continue
            classes.append(rep)
    assert len(classes) == 6
    for rep in classes:
        assert any(is_isomorphic(rep, m) for m in a3.indecs)


def test_bad_descriptors():
    with pytest.raises(ParseError):
        build_builtin("an:3:>x")
    with pytest.raises(ParseError):
        build_builtin("an:0")
    with pytest.raises(ParseError):
        build_builtin("mystery:4")


def test_orientation_word():
    cat = build_builtin("an:2:<")
    arrow = cat.algebra.arrows[0]
    assert (arrow.source, arrow.target) == (1, 0)
    assert cat.n == 3


# -- ext tables ------------------------------------------------------------------


def test_ext_split_always_present(a2, a3, u3):
    for cat in (a2, a3, u3):
        for i in range(cat.n):
            for j in range(cat.n):
                assert tuple(sorted((i, j))) in cat.ext_table[(i, j)]


def test_ext_c_a_split_only(a2):
    assert a2.ext_middle_terms(2, 0) == frozenset({(0, 2)})


def test_ext_factors_additive(a2, a3, u3):
    for cat in (a2, a3, u3):
        for i in range(cat.n):
            for j in range(cat.n):
                want = mid_add(
                    cat.composition_factors(cat.indecs[i]),
                    cat.composition_factors(cat.indecs[j]),
                )
                for mid in cat.ext_table[(i, j)]:
                    got = cat.composition_factors(cat.rep_of(mid))
                    assert got == want


def test_cohomologous_thetas_isomorphic(u3):
    """theta and theta + L*s - s*N give isomorphic middle terms."""
    alg = u3.algebra
    L, N = u3.indecs[1], u3.indecs[0]  # M2 and M1
    # middles on L + N with arrow [[J2, theta], [0, 0]]
    def middle(theta_col):
        rows = [
            [0, 0, theta_col[0]],
            [1, 0, theta_col[1]],
            [0, 0, 0],
        ]
        return Rep(alg, (3,), (Mat.from_rows(2, rows, ncols=3),))

    for theta in ([0, 0], [0, 1], [1, 0], [1, 1]):
        m = middle(theta)
        assert validate(m) is None
        # coboundary J2 @ s for s = [1]: adds [0, 1]
        shifted = middle([theta[0], theta[1] ^ 1])
        assert is_isomorphic(m, shifted)


# -- identify ----------------------------------------------------------------------


def test_identify_zero(a2):
    assert a2.identify(Rep.zero(a2.algebra)) == ()


def test_identify_extension_middle(a2):
    nontrivial = [mid for mid in a2.ext_table[(0, 2)] if mid != (0, 2)]
    assert nontrivial == [(1,)]


def test_identify_double(a2):
    a_rep = a2.indecs[0]
    m = direct_sum(a2.algebra, [a_rep, a_rep]).rep
    assert a2.identify(m) == (0, 0)


def test_identify_additive(a2, a3, u3):
    rng = random.Random(5)
    for cat in (a2, a3, u3):
        for _ in range(10):
            mid1 = tuple(sorted(rng.choices(range(cat.n), k=rng.randrange(0, 3))))
            mid2 = tuple(sorted(rng.choices(range(cat.n), k=rng.randrange(0, 3))))
            x, y = cat.rep_of(mid1), cat.rep_of(mid2)
            s = direct_sum(cat.algebra, [x, y]).rep
            assert cat.identify(s) == mid_add(mid1, mid2)


def test_identify_roundtrip_shuffled(u3):
    """Identification sees through a change of basis."""
    m = direct_sum(u3.algebra, [u3.indecs[0], u3.indecs[1]]).rep
    g = Mat.from_rows(2, [[1, 1, 0], [0, 1, 0], [1, 0, 1]])
    ginv = Mat.from_rows(2, [[1, 1, 0], [0, 1, 0], [1, 1, 1]])
    assert g.mul(ginv) == Mat.identity(2, 3)
    cand = Rep(u3.algebra, (3,), (g.mul(m.mats[0]).mul(ginv),))
    assert validate(cand) is None
    assert u3.identify(cand) == (0, 1)


# -- composition factors ---------------------------------------------------------------


def test_factors_b(a2):
    assert names_of(a2, a2.composition_factors(a2.indecs[1])) == ["A", "C"]


def test_factors_zero(a2):
    assert a2.composition_factors(Rep.zero(a2.algebra)) == ()


def test_factors_uniserial(u3):
    assert u3.composition_factors(u3.indecs[2]) == (0, 0, 0)


def test_simple_counts(a3, u3):
    assert len(a3.simples) == 3
    assert len(u3.simples) == 1


# -- opposite catalogs -------------------------------------------------------------------


def test_opposite_uniserial_self_dual(u3):
    op = u3.opposite()
    assert op.algebra == u3.algebra
    for i in range(u3.n):
        assert is_isomorphic(op.indecs[i], u3.indecs[i])


def test_opposite_a2_reverses(a2):
    op = a2.opposite()
    arrow = op.algebra.arrows[0]
    assert (arrow.source, arrow.target) == (1, 0)
    assert op.names == a2.names


def test_opposite_involution(a2):
    back = a2.opposite().opposite()
    assert back.algebra == a2.algebra
    for i in range(a2.n):
        assert back.indecs[i] == a2.indecs[i]


def test_opposite_hom_dims_transpose(a2, a3, u3):
    for cat in (a2, a3, u3):
        op = cat.opposite()
        n = cat.n
        for i in range(n):
            for j in range(n):
                assert op.hom_dims[i][j] == cat.hom_dims[j][i]


# -- load_catalog ----------------------------------------------------------------------------


def write_a2_files(tmp_path, include=("A", "B", "C"), extra=None):
    alg = {
        "field_char": 2,
        "vertices": ["1", "2"],
        "arrows": [{"name": "a", "from": "1", "to": "2"}],
        "relations": [],
    }
    mods = {
        "A": {"dims": {"1": 0, "2": 1}, "matrices": {}},
        "B": {"dims": {"1": 1, "2": 1}, "matrices": {"a": [[1]]}},
        "C": {"dims": {"1": 1, "2": 0}, "matrices": {}},
    }
    if extra:
        mods.update(extra)
        include = tuple(include) + tuple(extra)
    apath = tmp_path / "algebra.json"
    apath.write_text(json.dumps(alg))
    mpaths = []
    for name in include:
        mp = tmp_path / f"{name}.json"
        mp.write_text(json.dumps(mods[name]))
        mpaths.append(mp)
    return apath, mpaths


def test_load_matches_builtin(tmp_path, a2):
    apath, mpaths = write_a2_files(tmp_path)
    cat = load_catalog(apath, mpaths)
    assert cat.names == ("A", "B", "C")
    assert cat.hom_dims == a2.hom_dims
    assert cat.ext_table == a2.ext_table
    for mine, theirs in zip(cat.indecs, a2.indecs):
        assert mine.dims == theirs.dims


def test_load_decomposable_rejected(tmp_path):
    extra = {"AC": {"dims": {"1": 1, "2": 1}, "matrices": {"a": [[0]]}}}
    apath, mpaths = write_a2_files(tmp_path, include=("A", "B", "C"), extra=extra)
    with pytest.raises(Decomposable):
        load_catalog(apath, mpaths)


def test_load_duplicate_rejected(tmp_path):
    extra = {"B2": {"dims": {"1": 1, "2": 1}, "matrices": {"a": [[1]]}}}
    apath, mpaths = write_a2_files(tmp_path, extra=extra)
    with pytest.raises(DuplicateIso):
        load_catalog(apath, mpaths)


def test_isomorphism_search_only_for_equal_profiles(monkeypatch):
    """Isomorphic modules share a Hom profile, so distinct profiles need no search."""
    from subcat import catalog

    calls = []

    def counting(*args):
        calls.append(args)
        return is_isomorphic(*args)

    monkeypatch.setattr(catalog, "is_isomorphic", counting)
    build_builtin("a3")
    assert calls == []


def test_load_empty_rejected(tmp_path):
    apath, _ = write_a2_files(tmp_path)
    with pytest.raises(EmptyCatalog):
        load_catalog(apath, [])


def test_load_invalid_module(tmp_path):
    apath, _ = write_a2_files(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dims": {"1": 1, "2": 1}, "matrices": {"a": [[1, 0]]}}))
    with pytest.raises(ParseError):
        load_catalog(apath, [bad])


def test_load_relation_violation(tmp_path):
    alg = {
        "field_char": 2,
        "vertices": ["1"],
        "arrows": [{"name": "x", "from": "1", "to": "1"}],
        "relations": [[{"coeff": 1, "path": ["x", "x"]}]],
    }
    apath = tmp_path / "algebra.json"
    apath.write_text(json.dumps(alg))
    bad = tmp_path / "unit.json"
    bad.write_text(json.dumps({"dims": {"1": 1}, "matrices": {"x": [[1]]}}))
    with pytest.raises(CatalogError, match="x\\*x"):
        load_catalog(apath, [bad])


def test_load_parse_error_position(tmp_path):
    apath = tmp_path / "broken.json"
    apath.write_text("{not json")
    with pytest.raises(ParseError, match="broken.json:1:"):
        load_catalog(apath, [])


# -- hom dims against the morphism-level computation ------------------------------------------


def test_hom_dims_match_direct(a2, u3):
    for cat in (a2, u3):
        for i in range(cat.n):
            for j in range(cat.n):
                assert cat.hom_dims[i][j] == hom_dim(cat.indecs[i], cat.indecs[j])


# -- profile agreement and incomplete catalogs --------------------------------------------


def test_iso_agrees_with_profiles(a2, a3, u3):
    u4 = build_builtin("uniserial:4")
    for cat in (a2, a3, u3, u4):
        profiles = [tuple(cat.hom_dims[k][j] for k in range(cat.n)) for j in range(cat.n)]
        for i in range(cat.n):
            for j in range(cat.n):
                same_profile = profiles[i] == profiles[j]
                assert is_isomorphic(cat.indecs[i], cat.indecs[j]) == same_profile


def test_partial_catalog_flags_unknown_modules(tmp_path):
    from subcat.closures import SubcatBits, serre_closure
    from subcat.errors import UnknownModule

    apath, mpaths = write_a2_files(tmp_path, include=("A", "B"))
    cat = load_catalog(apath, mpaths)
    assert cat.names == ("A", "B")
    # the submodule line of B is fine (A is present), but the quotient is not
    with pytest.raises(UnknownModule):
        serre_closure(SubcatBits.of(cat, [1]))


def test_partial_catalog_flags_unknown_modules_in_lattice_path(tmp_path):
    from subcat.errors import UnknownModule
    from subcat.lattices import enumerate_family

    apath, mpaths = write_a2_files(tmp_path, include=("A", "B"))
    cat = load_catalog(apath, mpaths)
    # B/A is the missing simple C; the lattice path must not derive around it
    with pytest.raises(UnknownModule):
        enumerate_family(cat, "wide")


def test_partial_catalog_identify_unknown_sum(tmp_path):
    from subcat.errors import UnknownModule

    apath, mpaths = write_a2_files(tmp_path, include=("A", "B"))
    cat = load_catalog(apath, mpaths)
    vertex1_simple = Rep(cat.algebra, (1, 0), (Mat.zeros(2, 0, 1),))
    stray = direct_sum(cat.algebra, [cat.indecs[0], vertex1_simple]).rep
    with pytest.raises(UnknownModule):
        cat.identify(stray)


def test_load_rejects_stray_keys(tmp_path):
    apath, _ = write_a2_files(tmp_path)
    bad = tmp_path / "typo.json"
    bad.write_text(json.dumps({"dims": {"3": 1}, "matrices": {}}))
    with pytest.raises(ParseError, match="unknown vertex"):
        load_catalog(apath, [bad])
    bad.write_text(json.dumps({"dims": {"1": 1}, "matrices": {"b": [[1]]}}))
    with pytest.raises(ParseError, match="unknown arrow"):
        load_catalog(apath, [bad])
