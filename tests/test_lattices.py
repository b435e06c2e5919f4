"""Class checkers, family enumeration, Hasse diagrams, relations report."""

from itertools import product

import pytest

from subcat.catalog import build_builtin
from subcat.closures import SubcatBits
from subcat.errors import ShapeError
from subcat.rep import hom_basis, morphism_from_coeffs
from subcat.lattices import (
    KINDS,
    Family,
    _closure_operator,
    _next_closure_enum,
    enumerate_family,
    hasse,
    hasse_to_dot,
    is_closed,
    relations_report,
)

A, B, C = 0, 1, 2

TABLE_A2 = {
    "serre": [(), ("A",), ("C",), ("A", "B", "C")],
    "tors": [(), ("A",), ("C",), ("B", "C"), ("A", "B", "C")],
    "torf": [(), ("A",), ("C",), ("A", "B"), ("A", "B", "C")],
    "wide": [(), ("A",), ("B",), ("C",), ("A", "B", "C")],
    "ice": [(), ("A",), ("B",), ("C",), ("B", "C"), ("A", "B", "C")],
    "ike": [(), ("A",), ("B",), ("C",), ("A", "B"), ("A", "B", "C")],
    "ie": [(), ("A",), ("B",), ("C",), ("A", "B"), ("B", "C"), ("A", "B", "C")],
}


@pytest.fixture(scope="module")
def a2():
    return build_builtin("a2")


@pytest.fixture(scope="module")
def a3():
    return build_builtin("a3")


@pytest.fixture(scope="module")
def u2():
    return build_builtin("uniserial:2")


def sub(cat, *idxs):
    return SubcatBits.of(cat, idxs)


# -- is_closed spot checks ------------------------------------------------------------


def test_is_closed_tors_vs_torf(a2):
    ok, _ = is_closed("tors", sub(a2, B, C))
    assert ok
    ok, witness = is_closed("torf", sub(a2, B, C))
    assert not ok and "A" in witness


def test_is_closed_wide_b(a2):
    ok, _ = is_closed("wide", sub(a2, B))
    assert ok


def test_is_closed_ie_ac(a2):
    ok, witness = is_closed("ie", sub(a2, A, C))
    assert not ok and witness


def test_ice_witness_is_a_cokernel(a2):
    ok, witness = is_closed("ice", sub(a2, A, B))
    assert not ok and "cokernel" in witness and "C" in witness


def test_ike_witness_is_a_kernel(a2):
    ok, witness = is_closed("ike", sub(a2, B, C))
    assert not ok and "kernel" in witness and "A" in witness


def test_unknown_kind(a2):
    with pytest.raises(ShapeError):
        is_closed("thick", sub(a2, B))


# -- enumeration ------------------------------------------------------------------------


def test_a2_families_match_table(a2):
    for kind, expected in TABLE_A2.items():
        fam = enumerate_family(a2, kind)
        assert fam.member_names() == expected, kind


def next_closure_family(cat, kind):
    """The closed sets of the chain closure operator, by NextClosure."""
    return _next_closure_enum(_closure_operator(kind, cat), cat.n)


def test_nextclosure_equals_bruteforce(a2, a3, u2):
    u3 = build_builtin("uniserial:3")
    for cat in (a2, a3, u2, u3):
        for kind in ("serre", "tors", "torf"):
            lectic = next_closure_family(cat, kind)
            brute = enumerate_family(cat, kind, "bruteforce")
            assert len(set(lectic)) == len(lectic)
            assert frozenset(lectic) == brute.bitsets()


def test_strategy_kind_mismatch(a2):
    """nextclosure is no strategy of enumerate_family, for any kind."""
    for kind in ("tors", "ie", "wide"):
        with pytest.raises(ShapeError, match="unknown strategy 'nextclosure'"):
            enumerate_family(a2, kind, "nextclosure")


def test_serre_count_powers_of_two(a2, a3, u2):
    assert enumerate_family(a2, "serre").count == 4
    assert enumerate_family(a3, "serre").count == 8
    assert enumerate_family(u2, "serre").count == 2


def test_a3_tors_torf_14(a3):
    assert enumerate_family(a3, "tors").count == 14
    assert enumerate_family(a3, "torf").count == 14


def test_ie_by_intersection(a2):
    inter = enumerate_family(a2, "ie")
    brute = enumerate_family(a2, "ie", "bruteforce")
    assert inter.bitsets() == brute.bitsets()


def test_family_json_shape(a2):
    data = enumerate_family(a2, "ie").to_json()
    assert data["kind"] == "ie"
    assert data["count"] == 7
    assert ["A", "B"] in data["members"]
    assert data["checker_config"] == {"mult_cap": 2, "dim_cap": 16}


def test_family_bitsets_built_once(a2):
    fam = enumerate_family(a2, "tors")
    assert fam.bitsets() is fam.bitsets()
    assert fam.bitsets() == frozenset(m.bits for m in fam.members)


def test_threaded_enumeration_matches(a2):
    # the lattice tables are built lazily on first use and cached on the catalog;
    # several threads doing that first use at once must still agree with the oracle
    from concurrent.futures import ThreadPoolExecutor

    serial = enumerate_family(a2, "ike", "bruteforce").bitsets()
    fresh = build_builtin("a2")
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: enumerate_family(fresh, "ike").bitsets(), range(4)))
    assert results == [serial] * 4


# -- Hasse diagrams -----------------------------------------------------------------------


def test_hasse_a2_ie(a2):
    fam = enumerate_family(a2, "ie")
    diagram = hasse(fam)
    assert len(diagram.nodes) == 7
    assert len(diagram.edges) == 9
    label = lambda i: diagram.nodes[i].label()
    covers = {(label(lo), label(hi)) for lo, hi in diagram.edges}
    assert covers == {
        ("{A, B}", "{A, B, C}"),
        ("{B, C}", "{A, B, C}"),
        ("{A}", "{A, B}"),
        ("{B}", "{A, B}"),
        ("{B}", "{B, C}"),
        ("{C}", "{B, C}"),
        ("{}", "{A}"),
        ("{}", "{B}"),
        ("{}", "{C}"),
    }


def test_hasse_two_element_family(u2):
    diagram = hasse(enumerate_family(u2, "tors"))
    assert len(diagram.nodes) == 2
    assert len(diagram.edges) == 1


def test_hasse_a2_tors(a2):
    # pentagon: {} < {A},{C}; {C} < {B,C}; {A},{B,C} < full
    diagram = hasse(enumerate_family(a2, "tors"))
    assert len(diagram.nodes) == 5
    assert len(diagram.edges) == 5


def test_dot_output_golden(a2):
    dot = hasse_to_dot(hasse(enumerate_family(a2, "ie")))
    expected = """digraph hasse {
  rankdir=TB;
  node [shape=none];
  n0 [label="{}"];
  n1 [label="{A}"];
  n2 [label="{B}"];
  n3 [label="{C}"];
  n4 [label="{A, B}"];
  n5 [label="{B, C}"];
  n6 [label="{A, B, C}"];
  n1 -> n0;
  n2 -> n0;
  n3 -> n0;
  n4 -> n1;
  n4 -> n2;
  n5 -> n2;
  n5 -> n3;
  n6 -> n4;
  n6 -> n5;
}
"""
    assert dot == expected


def reference_hasse_edges(family):
    """Covers by their definition, no third member strictly between: the earlier triple loop."""
    bits = [m.bits for m in family.members]
    edges = []
    for i, low in enumerate(bits):
        for j, high in enumerate(bits):
            if low == high or (low & ~high):
                continue
            if any(k != i and k != j and (low & ~bits[k]) == 0 and (bits[k] & ~high) == 0
                   for k in range(len(bits))):
                continue
            edges.append((i, j))
    edges.sort(key=lambda e: (e[1], e[0]))
    return tuple(edges)


SMALL_BUILTINS = ["a2", "a3", *(f"uniserial:{n}" for n in range(1, 5)),
                  *(f"an:{n}:{''.join(w)}" for n in (2, 3, 4) for w in product("<>", repeat=n - 1))]


@pytest.mark.parametrize("descriptor", SMALL_BUILTINS)
def test_hasse_equals_triple_loop(descriptor):
    cat = build_builtin(descriptor)
    for kind in KINDS:
        family = enumerate_family(cat, kind)
        assert hasse(family).edges == reference_hasse_edges(family), kind


def test_hasse_of_unsorted_members_keeps_node_order(a2):
    family = enumerate_family(a2, "ie")
    shuffled = Family("ie", a2, family.members[::-1])
    assert hasse(shuffled).edges == reference_hasse_edges(shuffled)


def test_dot_deterministic(a2):
    one = hasse_to_dot(hasse(enumerate_family(a2, "ie")))
    two = hasse_to_dot(hasse(enumerate_family(a2, "ie", "bruteforce")))
    assert one == two


# -- relations report -----------------------------------------------------------------------


def test_relations_a2(a2):
    rep = relations_report(a2, label="a2")
    assert rep.all_inclusions_hold()
    assert rep.all_pairwise_distinct
    assert not rep.commutative
    text = rep.table_text()
    assert "{}, {A}, {C}, {A, B, C}" in text
    assert text.rstrip().endswith("7")


def test_relations_uniserial(u2):
    u3 = build_builtin("uniserial:3")
    for cat in (u2, u3):
        rep = relations_report(cat)
        assert rep.commutative
        assert all(ok for _, ok in rep.commutative_collapse)
        assert all(fam.count == 2 for fam in rep.families.values())
        assert rep.coincidence_groups == [list(KINDS)]


def test_relations_json(a2):
    data = relations_report(a2, label="a2").to_json()
    assert data["all_pairwise_distinct"] is True
    assert len(data["inclusions"]) == 9
    assert all(entry["holds"] for entry in data["inclusions"])


def test_cap_doubling_stable_a2(a2):
    """bruteforce equals the lattice family; the checks it runs take no caps to double."""
    for k in ("wide", "ice", "ike", "ie"):
        brute = enumerate_family(a2, k, "bruteforce").bitsets()
        assert brute == enumerate_family(a2, k).bitsets(), k


def test_tors_members_pass_checker(a2, a3):
    """Closure outputs are themselves closed (quotients and extensions)."""
    from subcat.closures import tors_closure

    for cat in (a2, a3):
        for bits in range(1 << cat.n):
            closed = tors_closure(SubcatBits(cat, bits))
            ok, _ = is_closed("tors", closed)
            assert ok


def test_other_prime_field_same_shapes():
    """The a2 and uniserial lattices do not depend on the base prime."""
    a2_3 = build_builtin("a2", p=3)
    assert a2_3.hom_dims == build_builtin("a2").hom_dims
    for kind, expected in TABLE_A2.items():
        assert enumerate_family(a2_3, kind).member_names() == expected
    u2_3 = build_builtin("uniserial:2", p=3)
    assert all(enumerate_family(u2_3, kind).count == 2 for kind in KINDS)


# -- independent brute-force oracle for the morphism-letter checkers -----------------------


def brute_letter_closed(cat, kind, bits):
    """Literal definition check over all morphisms between one-copy member sums.

    Enumerates every f: X -> Y with X, Y direct sums of distinct members and
    tests the kind's letters on ker/im/coker directly.
    """
    from itertools import combinations, product as iproduct

    from subcat.rep import cokernel, image as image_of, kernel as kernel_of

    idxs = [i for i in range(cat.n) if (bits >> i) & 1]
    contains = lambda mid: all((bits >> k) & 1 for k in mid)
    # extension closure on member pairs, as in the main checker
    for i in idxs:
        for j in idxs:
            if any(not contains(mid) for mid in cat.ext_table[(i, j)]):
                return False
    sums = []
    for r in range(1, len(idxs) + 1):
        for combo in combinations(idxs, r):
            if sum(cat.indecs[k].total_dim for k in combo) <= 4:
                sums.append(tuple(combo))
    letters = {"wide": "kc", "ice": "ic", "ike": "ik"}[kind]
    for xmid in sums:
        for ymid in sums:
            x, y = cat.rep_of(xmid), cat.rep_of(ymid)
            basis = hom_basis(x, y)
            assert 2 ** len(basis) <= 1024
            for coeffs in iproduct(range(2), repeat=len(basis)):
                f = morphism_from_coeffs(basis, coeffs, x, y)
                if "i" in letters and not contains(cat.identify_sub(image_of(f))):
                    return False
                if "k" in letters and not contains(cat.identify_sub(kernel_of(f))):
                    return False
                if "c" in letters and not contains(cat.identify(cokernel(f)[0])):
                    return False
    return True


def test_letter_checkers_match_brute_force():
    for descriptor in ("a2", "an:2:<", "uniserial:2", "uniserial:3"):
        cat = build_builtin(descriptor)
        for kind in ("wide", "ice", "ike"):
            for bits in range(1 << cat.n):
                want = brute_letter_closed(cat, kind, bits)
                got = is_closed(kind, SubcatBits(cat, bits))[0]
                assert got == want, (descriptor, kind, bits)


def test_an4_catalan_counts():
    cat = build_builtin("an:4")
    assert len(next_closure_family(cat, "tors")) == 42
    assert len(next_closure_family(cat, "torf")) == 42
    assert len(next_closure_family(cat, "serre")) == 16
