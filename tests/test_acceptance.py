"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Every tolerance is exact equality; the stated runtime caps
are asserted with perf counters.
"""

import random
import time
from itertools import combinations, product

import pytest

from subcat.catalog import build_builtin
from subcat.closures import (
    SubcatBits,
    fac_contains,
    filt_contains,
    sub_contains,
    torf_closure,
    tors_closure,
    torsion_pair_complete,
)
from subcat.lattices import (
    KINDS,
    enumerate_family,
    _table_closure,
    hasse,
    is_closed,
    relations_report,
)
from subcat.linalg import Mat, Subspace, solve
from subcat.rep import (
    Morphism,
    SubRep,
    all_submodules,
    check_morphism,
    hom_basis,
    subrep_is_stable,
)

from test_lattice_path import nakayama_a3_rad2

TABLE_A2 = {
    "serre": [(), ("A",), ("C",), ("A", "B", "C")],
    "tors": [(), ("A",), ("C",), ("B", "C"), ("A", "B", "C")],
    "torf": [(), ("A",), ("C",), ("A", "B"), ("A", "B", "C")],
    "wide": [(), ("A",), ("B",), ("C",), ("A", "B", "C")],
    "ice": [(), ("A",), ("B",), ("C",), ("B", "C"), ("A", "B", "C")],
    "ike": [(), ("A",), ("B",), ("C",), ("A", "B"), ("A", "B", "C")],
    "ie": [(), ("A",), ("B",), ("C",), ("A", "B"), ("B", "C"), ("A", "B", "C")],
}

IE_HASSE_COVERS = {
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


@pytest.fixture(scope="module")
def cats():
    return {
        "a2": build_builtin("a2"),
        "a3": build_builtin("a3"),
        "uniserial:2": build_builtin("uniserial:2"),
        "uniserial:3": build_builtin("uniserial:3"),
        "uniserial:4": build_builtin("uniserial:4"),
    }


def report(criterion, detail):
    print(f"PASS {criterion}: {detail}")


def test_criterion_01_table_reproduction():
    t0 = time.perf_counter()
    cat = build_builtin("a2")
    families = {kind: enumerate_family(cat, kind) for kind in KINDS}
    counts = [families[k].count for k in KINDS]
    assert counts == [4, 5, 5, 5, 6, 6, 7]
    for kind, expected in TABLE_A2.items():
        assert families[kind].member_names() == expected, kind
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report("criterion-1", f"a2 family lists match the table exactly ({elapsed:.2f}s)")


def test_criterion_02_hasse_reproduction():
    t0 = time.perf_counter()
    cat = build_builtin("a2")
    diagram = hasse(enumerate_family(cat, "ie"))
    assert len(diagram.nodes) == 7
    assert len(diagram.edges) == 9
    covers = {
        (diagram.nodes[lo].label(), diagram.nodes[hi].label()) for lo, hi in diagram.edges
    }
    assert covers == IE_HASSE_COVERS
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report("criterion-2", f"ie Hasse diagram has the 9 reference cover edges ({elapsed:.2f}s)")


def test_criterion_03_closure_oracle_equivalence(cats):
    t0 = time.perf_counter()
    checked = 0
    for name in ("a2", "a3"):
        cat = cats[name]
        for bits in range(1 << cat.n):
            s = SubcatBits(cat, bits)
            tors_bits = tors_closure(s).bits
            torf_bits = torf_closure(s).bits
            memo_fac: dict = {}
            memo_sub: dict = {}
            filt_tors = 0
            filt_torf = 0
            for k in range(cat.n):
                if filt_contains(cat, lambda x: fac_contains(s, x), cat.indecs[k], _memo=memo_fac):
                    filt_tors |= 1 << k
                if filt_contains(cat, lambda x: sub_contains(s, x), cat.indecs[k], _memo=memo_sub):
                    filt_torf |= 1 << k
            assert tors_bits == filt_tors, (name, bits)
            assert torf_bits == filt_torf, (name, bits)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report("criterion-3", f"trace chains equal filtration search on {checked} subsets ({elapsed:.1f}s)")


def ie_catalogs(tmp_path):
    """Every builtin with n <= 4, each orientation of an:2 to an:4, and the rad^2 = 0 fixture both ways."""
    names = ["a2", "a3", *(f"uniserial:{n}" for n in range(1, 5)),
             *(f"an:{n}:{''.join(w)}" for n in (2, 3, 4) for w in product("<>", repeat=n - 1))]
    for name in names:
        yield name, build_builtin(name)
    nakayama = nakayama_a3_rad2(tmp_path)
    yield "nakayama", nakayama
    yield "nakayama^op", nakayama.opposite()


def test_criterion_04_ie_equals_meet_of_closures(tmp_path):
    """The theorem IE-closed = T meet F, with ie checked by its definition on every subset.

    Strategy bruteforce decides ie by the extension and image letter checks.
    The meet reference is the theorem in closure form, tors(s) meet torf(s) = s,
    with the chain closures read as tables (_table_closure, which
    test_lattice_properties ties to the chain closures).
    """
    t0 = time.perf_counter()
    checked = 0
    for name, cat in ie_catalogs(tmp_path):
        lattice = enumerate_family(cat, "ie").bitsets()
        brute = enumerate_family(cat, "ie", "bruteforce").bitsets()
        for bits in range(1 << cat.n):
            meet = _table_closure(cat, "tors", bits) & _table_closure(cat, "torf", bits)
            assert (meet == bits) == (bits in brute) == (bits in lattice), (name, bits)
        checked += 1 << cat.n
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report("criterion-4", f"image+extension closure equals meet of closures on {checked} subsets "
                          f"({elapsed:.1f}s)")


def test_criterion_05_local_artinian_collapse():
    t0 = time.perf_counter()
    for n in (2, 3, 4):
        cat = build_builtin(f"uniserial:{n}")
        families = {kind: enumerate_family(cat, kind) for kind in KINDS}
        full = SubcatBits.full(cat).bits
        for kind in KINDS:
            assert families[kind].bitsets() == {0, full}, (n, kind)
            assert families[kind].count == 2
        serre_bits = families["serre"].bitsets()
        assert all(families[k].bitsets() == serre_bits for k in ("tors", "wide", "ice"))
        torf_bits = families["torf"].bitsets()
        assert all(families[k].bitsets() == torf_bits for k in ("ike", "ie"))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report("criterion-5", f"uniserial 2..4 collapse to the two trivial subcategories ({elapsed:.1f}s)")


def test_criterion_06_inclusion_diagram(cats):
    distinct_on_a2 = None
    for name, cat in cats.items():
        rep = relations_report(cat, label=name)
        for a, b, holds in rep.inclusions:
            assert holds, (name, a, b)
        if name == "a2":
            distinct_on_a2 = rep.all_pairwise_distinct
    assert distinct_on_a2 is True
    report("criterion-6", "nine containments hold everywhere; a2 families pairwise distinct")


def test_criterion_07_torsion_pair_completion(cats):
    total = 0
    for name, cat in cats.items():
        for member in enumerate_family(cat, "torf").members:
            result = torsion_pair_complete(member)
            assert result.verified, (name, member.label())
            total += 1
    report("criterion-7", f"all {total} torsion-free classes complete to verified torsion pairs")


def test_criterion_08_duality(cats):
    a2 = cats["a2"]
    op = a2.opposite()
    assert enumerate_family(a2, "torf").bitsets() == enumerate_family(op, "tors").bitsets()
    assert enumerate_family(a2, "tors").bitsets() == enumerate_family(op, "torf").bitsets()
    a3 = cats["a3"]
    tors_count = enumerate_family(a3, "tors", "bruteforce").count
    torf_count = enumerate_family(a3, "torf", "bruteforce").count
    assert tors_count == torf_count == 14
    report("criterion-8", "a2 duality transport holds; a3 has 14 torsion and 14 torsion-free classes")


def test_criterion_09_cap_robustness(cats):
    """verify's cap-robustness line: brute force, which takes no caps, for wide, ice and ike."""
    for name, cat in cats.items():
        for kind in ("wide", "ice", "ike"):
            brute = enumerate_family(cat, kind, "bruteforce").bitsets()
            assert brute == enumerate_family(cat, kind).bitsets(), (name, kind)
    report("criterion-9", "brute force equals the wide, ice and ike families")


def brute_hom_count(m, n):
    alg = m.algebra
    shapes = [(n.dims[v], m.dims[v]) for v in range(alg.n_vertices)]
    count = 0
    for flat in product(range(2), repeat=sum(r * c for r, c in shapes)):
        comps = []
        pos = 0
        for r, c in shapes:
            rows = [list(flat[pos + i * c : pos + (i + 1) * c]) for i in range(r)]
            pos += r * c
            comps.append(Mat.from_rows(2, rows, ncols=c))
        if check_morphism(Morphism(m, n, tuple(comps))):
            count += 1
    return count


def all_subspaces(n):
    seen = {}
    for r in range(n + 1):
        for combo in combinations(range(1, 1 << n), r):
            sp = Subspace.from_matrix_rows(Mat(2, len(combo), n, tuple(combo)))
            seen[sp.basis.rows] = sp
    return list(seen.values())


def test_criterion_10_low_level_oracles(cats):
    t0 = time.perf_counter()
    a2, u3 = cats["a2"], cats["uniserial:3"]

    # all_submodules against the exhaustive arrow-stable filter
    sub_cases = [a2.indecs[1], a2.rep_of((0, 2)), u3.indecs[2], a2.rep_of((1, 2))]
    for m in sub_cases:
        assert m.total_dim <= 4
        per_vertex = [all_subspaces(d) for d in m.dims]
        expect = set()
        for combo in product(*per_vertex):
            s = SubRep(m, tuple(combo))
            if subrep_is_stable(s):
                expect.add(s.key())
        got = {s.key() for s in all_submodules(m)}
        assert got == expect

    # hom_basis dimension against exhaustive intertwiner enumeration
    hom_cases = [
        (a2.indecs[i], a2.indecs[j]) for i in range(3) for j in range(3)
    ] + [(u3.indecs[0], u3.indecs[1]), (u3.indecs[1], u3.indecs[1])]
    for m, n in hom_cases:
        assert m.total_dim <= 3 and n.total_dim <= 3
        assert 2 ** len(hom_basis(m, n)) == brute_hom_count(m, n)

    # solve against exhaustive solution enumeration
    rng = random.Random(41)
    for _ in range(60):
        rows, cols = rng.randrange(1, 4), rng.randrange(1, 4)
        a = Mat.from_rows(2, [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)])
        b = Mat.from_rows(2, [[rng.randrange(2)] for _ in range(rows)])
        truth = {
            cand
            for cand in product(range(2), repeat=cols)
            if a.mul(Mat.from_rows(2, [[c] for c in cand], 1)) == b
        }
        sol = solve(a, b)
        if sol is None:
            assert truth == set()
            continue
        got = set()
        for coeffs in product(range(2), repeat=sol.nullspace.nrows):
            x = list(sol.particular.column(0))
            for c, i in zip(coeffs, range(sol.nullspace.nrows)):
                row = sol.nullspace.row_entries(i)
                x = [(u + c * v) % 2 for u, v in zip(x, row)]
            got.add(tuple(x))
        assert got == truth
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report("criterion-10", f"submodule, hom, and solve oracles agree exhaustively ({elapsed:.1f}s)")
