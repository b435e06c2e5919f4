"""Catalog build internals: the integer profile decoder, and the mu bounds the kernel oracle builds."""

from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import cache
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subcat import catalog as catalog_module
from subcat.catalog import Catalog, _apply_inverse, _invert_over_rationals, build_builtin
from subcat.closures import SubcatBits, chain_certificate, torf_closure, tors_closure
from subcat.lattices import KINDS, enumerate_family, hasse, is_closed
from subcat.rep import hom_basis

from test_kernel_search import mu_table
from test_verify_oracles import saturation

# -- the integer decoder against a Fraction reference ------------------------------------


def reference_inverse(rows):
    """Gauss-Jordan over Fraction: the inverse of an integer matrix, or None when singular."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                c = aug[i][col]
                aug[i] = [x - c * y for x, y in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def reference_decode(inv, vec):
    """inv @ vec as a tuple of ints, or None when some entry is not an integer."""
    out = [sum(c * v for c, v in zip(row, vec)) for row in inv]
    if any(x.denominator != 1 for x in out):
        return None
    return tuple(int(x) for x in out)


@cache
def hom_matrix(descriptor):
    return build_builtin(descriptor).hom_dims


orientation = st.integers(3, 5).flatmap(
    lambda n: st.text(alphabet="<>", min_size=n - 1, max_size=n - 1).map(lambda w: f"an:{n}:{w}")
)
uniserial = st.integers(3, 5).map(lambda n: f"uniserial:{n}")
HAND_MADE = ((2, 1), (0, 3))


def assert_decoder_matches(rows, vec):
    inverse = _invert_over_rationals(rows)
    ref = reference_inverse(rows)
    assert (inverse is None) == (ref is None)
    if inverse is None:
        return
    a, d = inverse
    assert d >= 1
    assert _apply_inverse(a, d, vec) == reference_decode(ref, vec)


@settings(max_examples=60, deadline=None)
@given(st.one_of(orientation, uniserial), st.data())
def test_decoder_matches_fraction_reference_on_hom_matrices(descriptor, data):
    rows = hom_matrix(descriptor)
    vec = data.draw(st.lists(st.integers(-6, 6), min_size=len(rows), max_size=len(rows)))
    assert_decoder_matches(rows, vec)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=2, max_size=2))
def test_decoder_divisibility_branch(vec):
    a, d = _invert_over_rationals(HAND_MADE)
    assert d == 6
    assert_decoder_matches(HAND_MADE, vec)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.integers(-10, 10), min_size=n, max_size=n),
)))
def test_decoder_on_random_integer_matrices(case):
    rows, vec = case
    assert_decoder_matches(rows, vec)


def assert_inverse_matches(rows):
    """(A, D) is D * rows^-1 for the least positive D, as the Fraction reference gives it."""
    inverse, ref = _invert_over_rationals(rows), reference_inverse(rows)
    assert (inverse is None) == (ref is None)
    if inverse is not None:
        a, d = inverse
        assert d == lcm(*(x.denominator for row in ref for x in row))
        assert [[Fraction(x, d) for x in row] for row in a] == ref


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_decoder_matches_fraction_reference_on_an7(data):
    rows = hom_matrix("an:7")
    vec = data.draw(st.lists(st.integers(-6, 6), min_size=len(rows), max_size=len(rows)))
    assert_decoder_matches(rows, vec)


@pytest.mark.parametrize("descriptor", ["an:7", "uniserial:6", "an:5:<><>"])
def test_inverse_matches_fraction_reference_on_hom_matrices(descriptor):
    assert_inverse_matches(hom_matrix(descriptor))


@pytest.mark.parametrize("rows", [
    ((2, 1), (1, 1)),  # pivots 2 then 1
    ((2, 0), (1, 1)),  # pivots 2 then 2: a zero entry over an equal pivot is left alone
    ((2, 0), (0, 3)),  # a row with a zero entry at the new pivot 6 is still rescaled by 6 / 2
    ((2, 0, 0), (1, 1, 0), (0, 0, 3)),
    ((-1, 0), (0, 1)),
])
def test_inverse_matches_fraction_reference_off_unit_pivots(rows):
    """Bareiss pivots other than +-1, where a row with a zero entry may still need its update."""
    assert_inverse_matches(rows)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_inverse_matches_fraction_reference_on_random_matrices(rows):
    assert_inverse_matches(rows)


def test_decoder_rejects_exactly_the_non_integral():
    a, d = _invert_over_rationals(HAND_MADE)
    # H^-1 = [[1/2, -1/6], [0, 1/3]]
    assert _apply_inverse(a, d, (2, 0)) == (1, 0)
    assert _apply_inverse(a, d, (1, 0)) is None
    assert _apply_inverse(a, d, (3, 3)) == (1, 1)
    assert _apply_inverse(a, d, (3, 2)) is None


# -- lazy mu bounds ----------------------------------------------------------------------

# Recorded from the eager build (every mu bound computed in Catalog.__init__).
PINNED_MU = {
    "uniserial:4": ((1,) * 4,) * 4,
    "uniserial:5": ((1,) * 5,) * 5,
    "an:4:<><": (
        (1, 1, 1, 1, 0, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 1, 0, 0, 0, 0, 0),
        (0, 1, 1, 1, 1, 1, 1, 0, 0, 0),
        (0, 1, 0, 1, 1, 0, 1, 0, 0, 1),
        (0, 0, 0, 0, 1, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 1, 1, 1, 0, 0, 0),
        (0, 0, 0, 0, 1, 0, 1, 0, 0, 1),
        (0, 0, 1, 1, 0, 1, 1, 1, 1, 0),
        (0, 0, 0, 1, 0, 0, 1, 0, 1, 1),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    ),
}
PINNED_SATURATION = {
    "uniserial:4": (1,) * 4,
    "uniserial:5": (1,) * 5,
    "an:4:<><": (1,) * 10,
}


def test_enumeration_never_builds_mu_bounds():
    cat = build_builtin("uniserial:5")
    for kind in KINDS:
        enumerate_family(cat, kind)
    assert "pair_lattice" not in cat._closure_memo


@pytest.mark.parametrize("descriptor", sorted(PINNED_MU))
def test_kernel_search_builds_pinned_mu_bounds(descriptor):
    cat = build_builtin(descriptor)
    assert "pair_lattice" not in cat._closure_memo
    # the first kernel step reads the bounds of its pairs, one pair at a time
    is_closed("wide", SubcatBits(cat, (1 << cat.n) - 1))
    assert cat._closure_memo["pair_lattice"]
    assert mu_table(cat) == PINNED_MU[descriptor]
    assert saturation(mu_table(cat)) == PINNED_SATURATION[descriptor]


def test_concurrent_first_reads_agree():
    cat = build_builtin("uniserial:5")
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(lambda: mu_table(cat)) for _ in range(4)]
        sats = [saturation(f.result(timeout=60)) for f in futures]
    assert sats == [PINNED_SATURATION["uniserial:5"]] * 4


# -- tables on first read ------------------------------------------------------------------


@pytest.mark.parametrize("descriptor", ["an:5", "uniserial:6", "an:7"])
def test_hom_vanishing_commands_read_no_table(descriptor, monkeypatch):
    """The build, serre, tors and torf enumeration, the tors Hasse diagram, both closures
    and the chain certificates run with the Ext spaces, the middles and the catalog Hom
    bases all refused; the tables read afterwards equal those of an eager build."""
    def refuse(*args, **kwargs):
        raise AssertionError("a Hom-vanishing command read a catalog table")

    monkeypatch.setattr(Catalog, "_ext_space", refuse)
    monkeypatch.setattr(Catalog, "_ext_middles", refuse)
    monkeypatch.setattr(catalog_module, "_hom_basis", refuse)
    cat = build_builtin(descriptor)
    for kind in ("serre", "tors", "torf"):
        enumerate_family(cat, kind)
    hasse(enumerate_family(cat, "tors"))
    top = SubcatBits(cat, 1 << (cat.n - 1))
    tors_closure(top)
    torf_closure(top)
    for kind in ("tors", "torf"):
        for k in range(cat.n):
            chain_certificate(top, k, kind)
    monkeypatch.undo()
    eager = build_builtin(descriptor)  # its table read first, as the constructor once did
    assert cat.ext_table == eager.ext_table
    assert all(cat.hom_pair_basis(i, j) == hom_basis(cat.indecs[i], cat.indecs[j])
               for i in range(cat.n) for j in range(cat.n))
