"""The exact lattice path against its oracles: brute force, chain closures, published counts."""

import json
import random
from math import comb

import pytest

from subcat import catalog, linalg, rep
from subcat.catalog import Catalog, build_builtin, is_brick
from subcat.closures import SubcatBits, serre_closure, torf_closure, tors_closure
from subcat.files import load_catalog
from subcat.lattices import KINDS, _perp_operator, _table_closure, enumerate_family
from subcat.linalg import Mat
from subcat.rep import Algebra, Rep, hom_basis

AN3_WORDS = (">>", "<<", "<>", "><")
DERIVED = ("wide", "ice", "ike", "ie")


def nakayama_a3_rad2(tmp_path):
    """A3 linearly oriented with rad^2 = 0: three simples and two length-2 projectives."""
    apath = tmp_path / "algebra.json"
    apath.write_text(json.dumps({
        "field_char": 2,
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
        perp = enumerate_family(cat, kind)
        chain = enumerate_family(cat, kind, "nextclosure")
        assert perp.member_names() == chain.member_names(), kind


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
