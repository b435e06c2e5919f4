"""Trace/reject, torsion-theoretic closures, filtration oracle, torsion pairs."""

import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subcat import closures, rep
from subcat.catalog import build_builtin
from subcat.closures import (
    ChainCertificate,
    SubcatBits,
    chain_certificate,
    fac_contains,
    filt_contains,
    reject,
    serre_closure,
    sub_contains,
    torf_closure,
    tors_closure,
    torsion_pair_complete,
    trace,
)
from subcat.errors import CapExceeded, NotTorsionFree
from subcat.lattices import enumerate_family
from subcat.linalg import Subspace
from subcat.rep import Rep, SubRep, all_submodules, direct_sum, hom_basis, image, kernel, quotient

from test_lattice_path import nakayama_a3_rad2

A, B, C = 0, 1, 2


@pytest.fixture(scope="module")
def a2():
    return build_builtin("a2")


@pytest.fixture(scope="module")
def a3():
    return build_builtin("a3")


@pytest.fixture(scope="module")
def u3():
    return build_builtin("uniserial:3")


def sub(cat, *idxs):
    return SubcatBits.of(cat, idxs)


def all_subsets(cat):
    return [SubcatBits(cat, bits) for bits in range(1 << cat.n)]


# -- trace / reject -----------------------------------------------------------------


def test_trace_full_recovers_module(a2):
    full = SubcatBits.full(a2)
    for k in range(a2.n):
        assert trace(full, a2.indecs[k]).is_full
    m = direct_sum(a2.algebra, [a2.indecs[0], a2.indecs[1]]).rep
    assert trace(full, m).is_full


def test_trace_examples(a2):
    assert trace(sub(a2, C), a2.indecs[B]).is_zero
    assert trace(sub(a2, B), a2.indecs[C]).is_full


def test_reject_examples(a2):
    assert reject(SubcatBits.full(a2), a2.indecs[B]).is_zero
    assert reject(sub(a2, A), a2.indecs[B]).is_full  # Hom(B, A) = 0
    r = reject(sub(a2, C), a2.indecs[B])
    assert r.dims == (0, 1)  # the kernel line of B onto C


def test_fac_sub_membership(a2):
    zero = Rep.zero(a2.algebra)
    assert fac_contains(sub(a2, C), zero)
    assert fac_contains(sub(a2, B), a2.indecs[C])
    assert not fac_contains(sub(a2, C), a2.indecs[B])
    assert sub_contains(sub(a2, B), a2.indecs[A])


# -- closures ------------------------------------------------------------------------


def test_tors_closure_trivial(a2):
    assert tors_closure(SubcatBits.empty(a2)).is_empty
    assert tors_closure(SubcatBits.full(a2)).is_full


def test_tors_closure_b(a2):
    assert tors_closure(sub(a2, B)).names() == ("B", "C")


def test_torf_closure_b(a2):
    assert torf_closure(sub(a2, B)).names() == ("A", "B")


def test_closure_laws(a2, a3, u3):
    rng = random.Random(3)
    cases = all_subsets(a2) + all_subsets(u3)
    cases += [SubcatBits(a3, rng.randrange(1 << a3.n)) for _ in range(12)]
    for cl in (tors_closure, torf_closure, serre_closure):
        for s in cases:
            closed = cl(s)
            assert s.issubset(closed)  # extensive
            assert cl(closed).bits == closed.bits  # idempotent
        for s in cases[:20]:
            bigger = SubcatBits(s.catalog, s.bits | rng.randrange(1 << s.catalog.n))
            assert cl(s).issubset(cl(bigger))  # monotone


def test_oracle_equivalence_a2(a2):
    """Iterated trace quotients match the literal filtration search."""
    for s in all_subsets(a2):
        by_chain = tors_closure(s)
        memo = {}
        by_filt = [
            k
            for k in range(a2.n)
            if filt_contains(a2, lambda x: fac_contains(s, x), a2.indecs[k], _memo=memo)
        ]
        assert list(by_chain.indices()) == by_filt
        dual_chain = torf_closure(s)
        memo = {}
        dual_filt = [
            k
            for k in range(a2.n)
            if filt_contains(a2, lambda x: sub_contains(s, x), a2.indecs[k], _memo=memo)
        ]
        assert list(dual_chain.indices()) == dual_filt


def test_duality_of_closures(a2, u3):
    for cat in (a2, u3):
        op = cat.opposite()
        for s in all_subsets(cat):
            mirrored = SubcatBits(op, s.bits)
            assert tors_closure(s).bits == torf_closure(mirrored).bits
            assert torf_closure(s).bits == tors_closure(mirrored).bits


# -- chain certificates -----------------------------------------------------------------


def test_chain_certificate_member(a2):
    cert = chain_certificate(sub(a2, B), C, "tors")
    assert isinstance(cert, ChainCertificate)
    assert cert.member
    data = cert.to_json()
    assert data["kind"] == "tors"
    assert data["steps"]


def test_chain_certificate_nonmember(a2):
    cert = chain_certificate(sub(a2, C), A, "tors")
    assert not cert.member


def test_chain_lengths_strictly_decrease(a2, u3):
    for cat in (a2, u3):
        for s in all_subsets(cat):
            for k in range(cat.n):
                for kind in ("tors", "torf"):
                    cert = chain_certificate(s, k, kind)
                    if not cert.member:
                        continue
                    totals = [sum(cat.dims_of(tuple(
                        cat.index_of(nm) for nm in step.module))) for step in cert.steps]
                    assert all(x > y for x, y in zip(totals, totals[1:]))


# -- filtration oracle ---------------------------------------------------------------------


def test_filt_zero_always(a2):
    assert filt_contains(a2, lambda x: False, Rep.zero(a2.algebra))


def test_filt_fac_b_contains_c(a2):
    s = sub(a2, B)
    assert filt_contains(a2, lambda x: fac_contains(s, x), a2.indecs[C])


def test_filt_simple_filters_everything(u3):
    simple = u3.simples[0]

    def is_sum_of_simples(x):
        return all(k == simple for k in u3.identify(x))

    for k in range(u3.n):
        assert filt_contains(u3, is_sum_of_simples, u3.indecs[k])


# -- Serre closure -----------------------------------------------------------------------


def test_serre_closure_examples(a2):
    assert serre_closure(SubcatBits.empty(a2)).is_empty
    assert serre_closure(sub(a2, B)).is_full
    # extension closure pulls the middle term B back in
    assert serre_closure(sub(a2, A, C)).is_full


def test_serre_closure_matches_factor_support(a2, a3, u3):
    """Independent description: closed iff composition factors stay inside."""
    for cat in (a2, a3, u3):
        for s in [SubcatBits(cat, b) for b in range(1 << cat.n)]:
            allowed = set()
            for i in s.indices():
                allowed.update(cat.composition_factors(cat.indecs[i]))
            expect = 0
            for k in range(cat.n):
                if set(cat.composition_factors(cat.indecs[k])) <= allowed:
                    expect |= 1 << k
            assert serre_closure(s).bits == expect


def reference_subquotients(cat):
    """Per index, the bits of the classes of its submodules and quotients."""
    out = []
    for m in cat.indecs:
        bits = 0
        for s in all_submodules(m):
            bits |= SubcatBits.of(cat, cat.identify_sub(s)).bits
            bits |= SubcatBits.of(cat, cat.identify(quotient(m, s)[0])).bits
        out.append(bits)
    return out


def reference_serre_closure(cat, subquotients, bits):
    """Add the subquotients and every middle term of every member pair, round after round."""
    while True:
        idxs = SubcatBits(cat, bits).indices()
        add = 0
        for i in idxs:
            add |= subquotients[i]
            for j in idxs:
                for mid in cat.ext_table[(i, j)]:
                    add |= SubcatBits.of(cat, mid).bits
        if add & ~bits == 0:
            return bits
        bits |= add


def test_serre_closure_masks_match_the_rescan(tmp_path):
    cats = [build_builtin(d) for d in ("a3", "an:3:<>", "an:3:><", "uniserial:4")]
    cats.append(nakayama_a3_rad2(tmp_path))
    for cat in cats:
        for c in (cat, cat.opposite()):
            subquotients = reference_subquotients(c)
            for bits in range(1 << c.n):
                assert serre_closure(SubcatBits(c, bits)).bits == reference_serre_closure(
                    c, subquotients, bits), (c.names, bits)


@pytest.mark.parametrize("names,dim", [(("M2", "M4"), 4), (("M4", "M5"), 4),
                                       (("M1", "M3", "M6"), 4)])
def test_serre_cap_error_names_the_first_member_over_the_cap(monkeypatch, names, dim):
    """The fixpoint visits members in index order, the lowest first, including added ones.

    So {M1, M3, M6} reaches M4 through extensions of M1 and M2 before it visits M6.
    """
    monkeypatch.setattr(rep, "SUBMODULE_BUDGET", 4)  # M_d has d + 1 submodules
    cat = build_builtin("uniserial:6")
    with pytest.raises(CapExceeded, match=f"^the submodules of a module of total dimension {dim} "
                                          "exceed the submodule budget 4$"):
        serre_closure(SubcatBits.from_names(cat, names))


# -- torsion pairs ------------------------------------------------------------------------


def test_torsion_pair_full(a2):
    res = torsion_pair_complete(SubcatBits.full(a2))
    assert res.tors.is_empty and res.verified


def test_torsion_pair_empty(a2):
    res = torsion_pair_complete(SubcatBits.empty(a2))
    assert res.tors.is_full and res.verified


def test_torsion_pair_a(a2):
    res = torsion_pair_complete(sub(a2, A))
    assert res.tors.names() == ("B", "C")
    assert res.verified
    assert all(w["ok"] for w in res.witnesses)


def test_torsion_pair_rejects_non_torf(a2):
    with pytest.raises(NotTorsionFree):
        torsion_pair_complete(sub(a2, B))


# -- the join memo ---------------------------------------------------------------------------


def reference_layer(c, m, kind):
    """The trace (kind tors) or reject (kind torf) of C in m, joined over every member of C."""
    cat = c.catalog
    p = cat.algebra.p
    if kind == "tors":
        spaces = [Subspace.zero(p, d) for d in m.dims]
        for i in c.indices():
            for f in hom_basis(cat.indecs[i], m):
                spaces = [s.add(t) for s, t in zip(spaces, image(f).spaces)]
    else:
        spaces = [Subspace.full(p, d) for d in m.dims]
        for i in c.indices():
            for f in hom_basis(m, cat.indecs[i]):
                spaces = [s.intersect(t) for s, t in zip(spaces, kernel(f).spaces)]
    return SubRep(m, tuple(spaces))


def assert_layers_are_direct_joins(cat, subsets, modules):
    """Ask in order, so the memo is warm from earlier subsets when later ones ask."""
    for bits in subsets:
        c = SubcatBits(cat, bits)
        for m in modules:
            assert trace(c, m) == reference_layer(c, m, "tors"), (bits, m)
            assert reject(c, m) == reference_layer(c, m, "torf"), (bits, m)


@settings(max_examples=25, deadline=None)
@given(word=st.text(alphabet="<>", max_size=3), p=st.sampled_from((2, 3)), data=st.data())
def test_layers_equal_direct_joins(word, p, data):
    """an:1 to an:4 with random orientations, random subsets, every member and one sum."""
    cat = build_builtin(f"an:{len(word) + 1}:{word}", p=p)
    subsets = data.draw(st.lists(st.integers(0, (1 << cat.n) - 1), min_size=1, max_size=4),
                        label="subsets")
    pair = data.draw(st.lists(st.integers(0, cat.n - 1), min_size=2, max_size=2), label="pair")
    assert_layers_are_direct_joins(cat, subsets, [*cat.indecs, cat.rep_of(tuple(pair))])


def test_layers_equal_direct_joins_off_a_complete_catalog(tmp_path):
    cat = nakayama_a3_rad2(tmp_path)
    assert not cat.complete
    subsets = list(range(1 << cat.n))
    random.Random(0).shuffle(subsets)
    assert_layers_are_direct_joins(cat, subsets, [*cat.indecs, cat.rep_of((0, 4))])


def test_join_memo_computes_each_asked_contribution_once(monkeypatch):
    """The contributions computed are exactly those of the members asked about, each once."""
    cat = build_builtin("a3")
    calls = []
    contribution = closures._contribution

    def counted(cat, i, m, kind):
        calls.append((i, m, kind))
        return contribution(cat, i, m, kind)

    monkeypatch.setattr(closures, "_contribution", counted)
    asked = set()
    for bits in random.Random(1).sample(range(1 << cat.n), 20):
        c = SubcatBits(cat, bits)
        for m in cat.indecs:
            for kind, layer in (("tors", trace), ("torf", reject)):
                layer(c, m)
                asked.update((i, m, kind) for i in c.indices())
    assert len(calls) == len(set(calls))
    assert set(calls) == asked


def reference_step(c, mid, kind):
    """One chain step on the assembled sum: its layer's dims and the class it leaves."""
    cat = c.catalog
    m = cat.rep_of(mid)
    layer = reference_layer(c, m, kind)
    nxt = cat.identify(quotient(m, layer)[0]) if kind == "tors" else cat.identify_sub(layer)
    return layer.dims, nxt


def assert_steps_split_over_summands(cat, subsets, mids):
    for bits in subsets:
        c = SubcatBits(cat, bits)
        for mid in mids:
            for kind in ("tors", "torf"):
                assert closures._chain_next(c, mid, kind) == reference_step(c, mid, kind), (
                    bits, mid, kind)


@pytest.mark.parametrize("descriptor,p", [("a3", 2), ("an:3:<>", 3), ("uniserial:3", 2)])
def test_chain_steps_split_over_summands(descriptor, p):
    """Every subset, and every sum of at most three members, repeats included."""
    cat = build_builtin(descriptor, p=p)
    mids = [mid for size in (1, 2, 3) for mid in combinations_with_replacement(range(cat.n), size)]
    assert_steps_split_over_summands(cat, range(1 << cat.n), mids)


def test_chain_steps_split_over_summands_off_a_complete_catalog(tmp_path):
    cat = nakayama_a3_rad2(tmp_path)
    assert not cat.complete
    rng = random.Random(2)
    subsets = rng.sample(range(1 << cat.n), 12)
    mids = [tuple(sorted(rng.choices(range(cat.n), k=rng.randint(1, 3)))) for _ in range(16)]
    assert_steps_split_over_summands(cat, subsets, mids)


def reference_witnesses(f):
    """torsion_pair_complete's witnesses from direct joins, with no memo."""
    cat = f.catalog
    f_idx = f.indices()
    t = SubcatBits(cat, sum(1 << k for k in range(cat.n)
                            if all(cat.hom_dims[k][j] == 0 for j in f_idx)))
    out = []
    for k, x in enumerate(cat.indecs):
        tr = reference_layer(t, x, "tors")
        torsion_part = cat.identify_sub(tr)
        free_part = cat.identify(quotient(x, tr)[0])
        out.append({
            "module": cat.names[k],
            "torsion_part": sorted(cat.names[i] for i in torsion_part),
            "torsion_free_part": sorted(cat.names[i] for i in free_part),
            "ok": t.contains_id(torsion_part) and f.contains_id(free_part),
        })
    return tuple(out)


@pytest.mark.parametrize("descriptor", ["a3", "uniserial:4"])
def test_torsion_pair_witnesses_match_unmemoized(descriptor):
    cat = build_builtin(descriptor)
    for f in enumerate_family(cat, "torf").members:
        pair = torsion_pair_complete(f)
        assert pair.verified
        assert pair.witnesses == reference_witnesses(f), f.label()
