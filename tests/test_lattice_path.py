"""The exact lattice path against its oracles: brute force, chain closures, published counts."""

import json
import random
from itertools import product
from math import comb

import pytest

from subcat import catalog, linalg, rep
from subcat._kernel_search import _ext_violation
from subcat.catalog import Catalog, build_builtin, find_nontrivial_idempotent, is_brick
from subcat.closures import SubcatBits, _ext_rows, _fill, serre_closure, torf_closure, tors_closure
from subcat.errors import CapExceeded
from subcat.files import load_catalog
from subcat.lattices import (KINDS, _closure_operator, _next_closure_enum, _perp_operator,
                             _table_closure, enumerate_family)
from subcat.linalg import Mat
from subcat.rep import Algebra, Rep, hom_basis

from test_value_types import f2_times_f4

AN3_WORDS = (">>", "<<", "<>", "><")
DERIVED = ("wide", "ice", "ike", "ie")


def nakayama_a3_rad2(tmp_path, p=2):
    """A3 linearly oriented with rad^2 = 0 over F_p: three simples and two length-2 projectives."""
    apath = tmp_path / "algebra.json"
    apath.write_text(json.dumps({
        "field_char": p,
        "vertices": ["1", "2", "3"],
        "arrows": [{"name": "a", "from": "1", "to": "2"}, {"name": "b", "from": "2", "to": "3"}],
        "relations": [[{"coeff": 1, "path": ["a", "b"]}]],
    }))
    mods = tmp_path / "mods"
    mods.mkdir()
    modules = {
        "S1": {"dims": {"1": 1}},
        "S2": {"dims": {"2": 1}},
        "S3": {"dims": {"3": 1}},
        "P1": {"dims": {"1": 1, "2": 1}, "matrices": {"a": [[1]]}},
        "P2": {"dims": {"2": 1, "3": 1}, "matrices": {"b": [[1]]}},
    }
    for name, data in modules.items():
        (mods / f"{name}.json").write_text(json.dumps(data))
    return load_catalog(apath, sorted(mods.glob("*.json")))


@pytest.mark.parametrize("descriptor,p", [
    ("a2", 2), ("a3", 2), *((f"an:3:{w}", 2) for w in AN3_WORDS),
    ("uniserial:2", 2), ("uniserial:3", 2), ("uniserial:4", 2), ("a2", 3), ("a3", 3),
])
def test_lattice_equals_bruteforce(descriptor, p):
    cat = build_builtin(descriptor, p=p)
    for kind in DERIVED:
        lattice = enumerate_family(cat, kind)
        brute = enumerate_family(cat, kind, "bruteforce")
        assert lattice.member_names() == brute.member_names(), (descriptor, p, kind)


def test_lattice_equals_bruteforce_nakayama(tmp_path):
    cat = nakayama_a3_rad2(tmp_path)
    assert cat.n == 5 and not cat.complete
    for kind in DERIVED:
        lattice = enumerate_family(cat, kind)
        brute = enumerate_family(cat, kind, "bruteforce")
        assert lattice.member_names() == brute.member_names(), kind


def assert_fill_lists_the_extension_closed_subsets(cat):
    """NextClosure over _fill lists exactly the subsets with no extension witness.

    bruteforce filters only these for the letter kinds; the literal check
    over all 2^n subsets is their oracle.  On the catalog and its opposite.
    """
    for c in (cat, cat.opposite()):
        listed = _next_closure_enum(lambda bits: _fill(_ext_rows(c), bits), c.n)
        literal = [bits for bits in range(1 << c.n) if _ext_violation(SubcatBits(c, bits)) is None]
        assert sorted(listed) == literal


def test_bruteforce_candidates_are_the_extension_closed_subsets(tmp_path):
    descriptors = ["a2", "a3", *(f"an:3:{w}" for w in AN3_WORDS),
                   *(f"an:4:{''.join(w)}" for w in product("<>", repeat=3)),
                   *(f"uniserial:{n}" for n in range(2, 6)), "an:5:><><"]
    for descriptor in descriptors:
        assert_fill_lists_the_extension_closed_subsets(build_builtin(descriptor))
    assert_fill_lists_the_extension_closed_subsets(nakayama_a3_rad2(tmp_path))


# a3 is the builtin an:3:>>, so the four orientations cover it
@pytest.mark.parametrize("word", AN3_WORDS)
def test_table_operator_equals_chain_closures(word):
    cat = build_builtin(f"an:3:{word}")
    for bits in range(1 << cat.n):
        s = SubcatBits(cat, bits)
        assert _table_closure(cat, "tors", bits) == tors_closure(s).bits, bits
        assert _table_closure(cat, "torf", bits) == torf_closure(s).bits, bits


def assert_perps_match_chains(cat, subsets, families=True):
    """Perp operators and the serre support rule against the chain closures on the subsets.

    With ``families``, also the perp families (torf as {T^perp}, serre as one
    member per vertex subset) against NextClosure over the chain closures.
    """
    tors, torf = _perp_operator(cat, "tors"), _perp_operator(cat, "torf")
    support = [sum(1 << v for v, d in enumerate(m.dims) if d) for m in cat.indecs]
    for bits in subsets:
        s = SubcatBits(cat, bits)
        assert tors(bits) == tors_closure(s).bits, bits
        assert torf(bits) == torf_closure(s).bits, bits
        vs = 0
        for k in s.indices():
            vs |= support[k]
        rule = sum(1 << k for k, sup in enumerate(support) if not sup & ~vs)
        assert serre_closure(s).bits == rule, bits
    for kind in ("serre", "tors", "torf") if families else ():
        chain = _next_closure_enum(_closure_operator(kind, cat), cat.n)
        assert enumerate_family(cat, kind).bitsets() == frozenset(chain), kind


EXHAUSTIVE = [
    ("a2", 2), *((f"an:3:{w}", 2) for w in AN3_WORDS),
    *((f"uniserial:{n}", 2) for n in range(2, 7)),
    ("a2", 3), ("a3", 3), ("a2", 5), ("a3", 5), ("uniserial:4", 3), ("an:4:<><", 2),
]


# a3 is the builtin an:3:>>, so the four orientations cover it
@pytest.mark.parametrize("descriptor,p", EXHAUSTIVE)
def test_perp_operators_equal_chain_closures(descriptor, p):
    cat = build_builtin(descriptor, p=p)
    assert_perps_match_chains(cat, range(1 << cat.n))


@pytest.mark.parametrize("descriptor,p", [("an:4", 3), ("an:5:><><", 2)])
def test_perp_operators_on_seeded_subsets(descriptor, p):
    cat = build_builtin(descriptor, p=p)
    rng = random.Random(f"{descriptor}:{p}")
    assert_perps_match_chains(cat, [rng.getrandbits(cat.n) for _ in range(200)], families=False)


def test_perp_operators_on_complete_nakayama(tmp_path):
    """Its five modules are every indecomposable of A3 with rad^2 = 0."""
    files = nakayama_a3_rad2(tmp_path)
    cat = Catalog(files.algebra, files.indecs, files.names, complete=True)
    assert_perps_match_chains(cat, range(1 << cat.n))


def test_complete_catalog_families_need_no_linear_algebra(monkeypatch):
    """After the build, every family of a complete catalog reads the catalog's tables alone."""
    cat = build_builtin("an:5")

    def refuse(*args, **kwargs):
        raise AssertionError("linear algebra on the enumeration path")

    for owner, name in ((rep, "hom_dim"), (catalog, "hom_dim"), (Catalog, "identify"),
                        (Catalog, "identify_sub"), (linalg, "rref"), (rep, "rref"),
                        (catalog, "rref"), (rep, "hom_basis"), (catalog, "hom_basis")):
        monkeypatch.setattr(owner, name, refuse)
    counts = {kind: enumerate_family(cat, kind).count for kind in KINDS}
    assert counts == {"serre": 32, "tors": 132, "torf": 132, "wide": 132,
                      "ice": 394, "ike": 394, "ie": 1308}


def large_schroeder(n):
    return sum(comb(n, k) * comb(n + k, k) // (k + 1) for k in range(n + 1))


@pytest.mark.parametrize("n,wide,schroeder", [(5, 132, 394), (6, 429, 1806), (7, 1430, 8558)])
def test_published_counts(n, wide, schroeder):
    """All seven families of linear A_n from one catalog build (an:7 has 28 indecomposables)."""
    assert comb(2 * (n + 1), n + 1) // (n + 2) == wide
    assert large_schroeder(n) == schroeder
    cat = build_builtin(f"an:{n}")
    families = {kind: enumerate_family(cat, kind) for kind in KINDS}
    assert {kind: fam.count for kind, fam in families.items() if kind != "ie"} == {
        "serre": 2 ** n, "tors": wide, "torf": wide, "wide": wide,
        "ice": schroeder, "ike": schroeder,
    }
    assert families["ice"].bitsets() | families["ike"].bitsets() <= families["ie"].bitsets()


def test_brick_with_field_extension_endomorphisms():
    """x = [[0,1],[1,1]] generates F_4 over F_2: End has dimension 2 and is a field."""
    alg = Algebra.build(2, ["1"], [("x", "1", "1")])
    m = Rep(alg, (2,), (Mat.from_rows(2, [[0, 1], [1, 1]], ncols=2),))
    assert len(hom_basis(m, m)) == 2
    assert is_brick(m)


def test_uniserial_m2_is_not_a_brick():
    """End(M2) = k[x]/x^2 has the nonzero nilpotent x."""
    m2 = build_builtin("uniserial:2").indecs[1]
    assert not is_brick(m2)


def test_endomorphism_walk_readers_on_edge_cases(monkeypatch):
    """The zero module, a split sum X + X, and both cap messages of the one End walk."""
    cat = build_builtin("uniserial:2")
    zero = Rep.zero(cat.algebra)
    assert not is_brick(zero) and find_nontrivial_idempotent(zero) is None
    split = rep.direct_sum(cat.algebra, [cat.indecs[1], cat.indecs[1]]).rep
    e = find_nontrivial_idempotent(split)
    assert e is not None and e.compose(e) == e and not is_brick(split)
    f4_brick = f2_times_f4().indecs[1]  # its catalog checks End for idempotents under the budget
    monkeypatch.setattr(linalg, "COEFF_WALK_BUDGET", 3)
    with pytest.raises(CapExceeded, match="End space of dimension 2 exceeds the brick test budget"):
        is_brick(f4_brick)
    with pytest.raises(CapExceeded, match="exceeds the idempotent search budget"):
        find_nontrivial_idempotent(split)
    # the basis of End(M2) holds the nilpotent x, so M2 is answered under the same budget
    assert not is_brick(cat.indecs[1])


def test_a_nonunit_basis_map_refutes_a_brick_with_no_walk(monkeypatch):
    """16 of the 17 basis maps of End(M17) are nilpotent: no walk over its 2^17 maps."""
    def no_walk(m, basis, test):
        raise AssertionError("a non-unit basis map answers the brick test")

    monkeypatch.setattr(catalog, "_nonunits", no_walk)
    alg = Algebra.build(2, ["1"], [("x", "1", "1")], [[(1, ["x"] * 17)]])
    shift = Mat.from_rows(2, [[int(c == r - 1) for c in range(17)] for r in range(17)], ncols=17)
    assert not is_brick(Rep(alg, (17,), (shift,)))
    monkeypatch.setattr(linalg, "COEFF_WALK_BUDGET", 3)
    assert not is_brick(build_builtin("uniserial:2").indecs[1])
