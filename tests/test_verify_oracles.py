"""The verify oracles against literal references: the filtration search and the kernel search."""

import hashlib
import io
import json
import random
import shlex
from collections import Counter
from contextlib import redirect_stdout
from operator import add, sub
from pathlib import Path

import pytest

from subcat import _kernel_search, cli, rep
from subcat.catalog import Catalog, build_builtin, mid_add, mid_from_counts
from subcat.closures import SubcatBits, fac_contains, filt_contains, sub_contains
from subcat.errors import CapExceeded
from subcat._kernel_search import (
    _kernel_classes,
    _kernel_violation,
    _mid_label,
    _step_escape,
    letter_violation,
)
from subcat.lattices import KINDS, enumerate_family
from subcat.linalg import Subspace
from subcat.rep import all_submodules, hom_basis, image, kernel, quotient, sub_to_rep

from test_kernel_search import mu_table, reference_classes
from test_lattice_path import AN3_WORDS, nakayama_a3_rad2

DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"


# -- the filtration oracle ---------------------------------------------------------------


def literal_fac(cat, members, x):
    """The images of all maps from members into x span x."""
    p = cat.algebra.p
    spaces = [Subspace.zero(p, d) for d in x.dims]
    for i in members:
        for f in hom_basis(cat.indecs[i], x):
            spaces = [a.add(b) for a, b in zip(spaces, image(f).spaces)]
    return [sp.dim for sp in spaces] == list(x.dims)


def literal_sub(cat, members, x):
    """The kernels of all maps from x into members meet in zero."""
    p = cat.algebra.p
    spaces = [Subspace.full(p, d) for d in x.dims]
    for i in members:
        for f in hom_basis(x, cat.indecs[i]):
            spaces = [a.intersect(b) for a, b in zip(spaces, kernel(f).spaces)]
    return all(sp.dim == 0 for sp in spaces)


def literal_filt(pred, x):
    """Uncached: x is zero, satisfies pred, or has a pred submodule over a filtered quotient."""
    if x.total_dim == 0 or pred(x):
        return True
    for s in all_submodules(x):
        if not (s.is_zero or s.is_full) and pred(sub_to_rep(s)[0]):
            if literal_filt(pred, quotient(x, s)[0]):
                return True
    return False


FILT_CATALOGS = [("a2", 2), ("a3", 2), *((f"an:3:{w}", 2) for w in AN3_WORDS),
                 ("uniserial:2", 2), ("uniserial:3", 2), ("uniserial:4", 2), ("a3", 3)]


def assert_filt_matches_literal(cat):
    for bits in range(1 << cat.n):
        s = SubcatBits(cat, bits)
        members = s.indices()
        for cached, literal in ((fac_contains, literal_fac), (sub_contains, literal_sub)):
            memo: dict = {}
            for k in range(cat.n):
                x = cat.indecs[k]
                got = filt_contains(cat, lambda y: cached(s, y), x, _memo=memo)
                assert got == literal_filt(lambda y: literal(cat, members, y), x), (bits, k)


@pytest.mark.parametrize("descriptor,p", FILT_CATALOGS)
def test_filtration_search_matches_literal_search(descriptor, p):
    assert_filt_matches_literal(build_builtin(descriptor, p=p))


def test_filtration_search_matches_literal_search_nakayama(tmp_path):
    cat = nakayama_a3_rad2(tmp_path)
    assert not cat.complete
    assert_filt_matches_literal(cat)


@pytest.mark.parametrize("descriptor", ["an:4", "uniserial:4"])
def test_filtration_search_computes_no_hom_profile(descriptor, monkeypatch):
    """The search memoizes on module values: on seeded subsets it never asks for a Hom profile."""
    cat = build_builtin(descriptor)

    def no_profile(self, m):
        raise AssertionError("the filtration search computes no Hom profile")

    monkeypatch.setattr(Catalog, "profile", no_profile)
    rng = random.Random(0)
    for bits in sorted(rng.sample(range(1 << cat.n), 12)):
        s = SubcatBits(cat, bits)
        for pred in (fac_contains, sub_contains):
            memo: dict = {}
            for x in cat.indecs:
                filt_contains(cat, lambda y: pred(s, y), x, _memo=memo)


def test_splits_over_the_cap_raise_on_every_call_and_cache_nothing(monkeypatch):
    monkeypatch.setattr(rep, "SUBMODULE_BUDGET", 2)  # B has 3 submodules
    cat = build_builtin("a2")
    b = cat.index_of("B")
    for _ in range(2):
        with pytest.raises(CapExceeded, match="^the submodules of a module of total dimension 2 "
                                              "exceed the submodule budget 2$"):
            filt_contains(cat, lambda x: False, cat.indecs[b])
    assert cat._closure_memo["filt_splits"] == {}


ORACLE_MEMOS = ("filt_splits", ("layer", "tors"), ("layer", "torf"),
                "sub_classes", "quotient_classes", "kerstep",
                "pair_lattice", "subquotients", "ext_closed", "letters")


@pytest.mark.parametrize("descriptor", ["a3", "uniserial:4", "an:5"])
def test_enumeration_builds_no_oracle_memo(descriptor):
    cat = build_builtin(descriptor)
    for kind in KINDS:
        enumerate_family(cat, kind, "auto")
    assert not [m for m in ORACLE_MEMOS if m in cat._closure_memo]


def test_verification_builds_every_oracle_memo():
    """The names above are the keys the oracles use, so their absence proves something."""
    cat = build_builtin("a2")
    cli.run_verification(cat, "a2")
    assert [m for m in ORACLE_MEMOS if m not in cat._closure_memo] == []


def test_verification_decides_each_letter_once_per_subset(monkeypatch):
    """The four letter kinds share one image, kernel and cokernel verdict per subset."""
    calls = Counter()
    for letter, check in dict(_kernel_search._CHECKS).items():
        def counted(s, letter=letter, check=check):
            calls[(id(s.catalog), letter, s.bits)] += 1
            return check(s)

        monkeypatch.setitem(_kernel_search._CHECKS, letter, counted)
    cat = build_builtin("an:4")
    assert all(ok for _, ok, _ in cli.run_verification(cat, "an:4"))
    assert {letter for _, letter, _ in calls} == {"image", "kernel", "cokernel"}
    assert max(calls.values()) == 1


def test_a_letter_that_raises_stores_nothing_and_raises_again():
    cat = build_builtin("uniserial:6")
    full = SubcatBits.full(cat)
    for _ in range(2):
        with pytest.raises(CapExceeded, match=r"^Hom\(M1 \+ M2 \+ M3 \+ M4 \+ M5 \+ M6, M4\) "
                                              r"of dimension 18 exceeds the kernel search budget$"):
            letter_violation("wide", full)
        assert cat._closure_memo["letters"]["kernel"] == {}


# -- the kernel step against the capped tuple walk ----------------------------------------


def saturation(mu):
    """Per indecomposable, its largest mu bound into any catalog member, at least 1."""
    return tuple(max(1, max(row)) for row in mu)


def reference_kernel_violation(s, mult_cap, dim_cap, dual=False):
    """A capped walk on count vectors, with every multiset step spelled out.

    From every maximal seed within the caps (at most ``mult_cap`` copies of
    each member, total dimension at most ``dim_cap``), it follows the
    kernels of maps into single members: the core keeps min(count, mu)
    copies of each indecomposable, the rest is added back to each kernel
    class, and each count is capped at saturation + 1.  Its first escape is
    its witness.

    Kernel classes per (core, b) come from the catalog's memo, which
    test_kernel_search checks against materialized kernels.
    """
    cat = s.catalog
    classes = cat._closure_memo.setdefault("kerstep", {})
    mu = mu_table(cat)
    sat = saturation(mu)
    caps = [min(mult_cap, sat[i] + 1) if s.has(i) else 0 for i in range(cat.n)]
    dims = [m.total_dim for m in cat.indecs]
    members = s.indices()
    room = [sum(caps[i] * dims[i] for i in members[k:]) for k in range(len(members) + 1)]
    seeds = set()

    def grow(k, counts, used, need):
        """Every seed extending counts on members[:k].

        A seed is maximal when its total dimension ``used`` reaches ``need``:
        a member below its cap could not take one more copy within dim_cap.
        """
        if used > dim_cap or used + room[k] < need:
            return
        if k == len(members):
            if used:
                seeds.add(tuple(counts))
            return
        i = members[k]
        for c in range(caps[i] + 1):
            counts[i] = c
            grow(k + 1, counts, used + c * dims[i],
                 need if c == caps[i] else max(need, dim_cap - dims[i] + 1))
        counts[i] = 0

    grow(0, [0] * cat.n, 0, 0)
    as_mid = lambda counts: mid_from_counts(dict(enumerate(counts)))
    columns = {b: tuple(row[b] for row in mu) for b in members}
    sticky = tuple(m + 1 for m in sat)
    seen = set(seeds)
    frontier = sorted(seen, key=as_mid)
    steps: dict = {}
    while frontier:
        state = frontier.pop()
        for b in members:
            core = tuple(map(min, state, columns[b]))
            if (core, b) not in steps:
                key = (as_mid(core), b)
                if key not in classes:
                    classes[key] = _kernel_classes(cat, *key)
                steps[(core, b)] = [(tuple(kid.count(i) for i in range(cat.n)), kid)
                                    for kid in sorted(classes[key])]
            surplus = tuple(map(sub, state, core))
            for kc, kid in steps[(core, b)]:
                if not s.contains_id(kid):
                    arrow = (f"{cat.names[b]} -> {_mid_label(cat, as_mid(state))}" if dual
                             else f"{_mid_label(cat, as_mid(state))} -> {cat.names[b]}")
                    word = "cokernel" if dual else "kernel"
                    return (f"a morphism {arrow} between member sums has {word} "
                            f"{_mid_label(cat, mid_add(kid, as_mid(surplus)))}, "
                            f"outside the subcategory")
                capped = tuple(map(min, map(add, kc, surplus), sticky))
                if any(capped) and capped not in seen:
                    seen.add(capped)
                    frontier.append(capped)
    return None


def saturating_caps(cat):
    """(mult_cap, dim_cap) whose seeds include the saturated seed: saturation + 1 of each member."""
    sat = saturation(mu_table(cat))
    return max(sat) + 1, sum((m + 1) * x.total_dim for m, x in zip(sat, cat.indecs))


def assert_step_witnesses_are_genuine(cat, subsets=None):
    """The step refutes where the walk at saturating caps does, with genuine witnesses.

    On the catalog and its opposite; a witness class must be the kernel,
    built and identified, of some map from its core, and must leave s.
    """
    built: dict = {}
    for c, dual in ((cat, False), (cat.opposite(), True)):
        saturating = saturating_caps(c)
        for bits in subsets or range(1, 1 << cat.n):
            s = SubcatBits(c, bits)
            text = _kernel_violation(s, dual)
            assert (text is None) == (reference_kernel_violation(s, *saturating) is None), bits
            if text is None:
                continue
            core, b, kid = _step_escape(s)
            if (core, b) not in built:
                built[(core, b)] = reference_classes(c, core, b)
            assert kid in built[(core, b)] and not s.contains_id(kid), bits
            arrow = (f"{c.names[b]} -> {_mid_label(c, core)}" if dual
                     else f"{_mid_label(c, core)} -> {c.names[b]}")
            word = "cokernel" if dual else "kernel"
            assert text == (f"a morphism {arrow} between member sums has {word} "
                            f"{_mid_label(c, kid)}, outside the subcategory"), text


@pytest.mark.parametrize("descriptor", ["a2", "a3", *(f"an:3:{w}" for w in AN3_WORDS),
                                        "uniserial:3", "uniserial:4"])
def test_kernel_witnesses_match_tuple_reference(descriptor):
    assert_step_witnesses_are_genuine(build_builtin(descriptor))


# Subsets of an:4 on which the capped walk's first witness depended on its visiting order.
AN4_ORDER_SENSITIVE = (45, 47, 61, 62, 63, 77, 158, 253, 286, 318, 414, 446)


def test_kernel_witnesses_match_tuple_reference_an4_order_sensitive():
    assert_step_witnesses_are_genuine(build_builtin("an:4"), AN4_ORDER_SENSITIVE)


def test_kernel_witnesses_match_tuple_reference_nakayama(tmp_path):
    assert_step_witnesses_are_genuine(nakayama_a3_rad2(tmp_path))


@pytest.mark.parametrize("descriptor,p", [("a3", 2), ("a2", 3)])
def test_bruteforce_at_doubled_caps_matches_tuple_reference(descriptor, p):
    """The reference walk at the doubled caps (4, 32) refutes exactly where the step does.

    test_lattice_path checks that bruteforce, which reads the step, equals
    the lattice families on these catalogs.
    """
    cat = build_builtin(descriptor, p=p)
    for c in (cat, cat.opposite()):
        for bits in range(1, 1 << cat.n):
            s = SubcatBits(c, bits)
            walk = reference_kernel_violation(s, 4, 32)
            assert (_kernel_violation(s) is None) == (walk is None), bits


@pytest.mark.parametrize("descriptor", ["a3", "an:4", "uniserial:5"])
def test_bruteforce_at_small_caps_equals_the_lattice(descriptor):
    """Where the reference walk at the small caps (1, 2) misses a kernel, bruteforce does not.

    bruteforce takes no caps, so its wide family is the lattice family.
    """
    cat = build_builtin(descriptor)
    missed = [bits for bits in range(1, 1 << cat.n)
              if _kernel_violation(SubcatBits(cat, bits)) is not None
              and reference_kernel_violation(SubcatBits(cat, bits), 1, 2) is None]
    assert missed
    wide = enumerate_family(cat, "wide").bitsets()
    assert enumerate_family(cat, "wide", "bruteforce").bitsets() == wide
    assert not wide & set(missed)


# Catalogs on which a kernel walk at small caps misses refutations (see the test above).
@pytest.mark.parametrize("argv", ["verify --builtin uniserial:5", "verify --builtin an:4"])
def test_verify_passes(argv, capsys):
    assert cli.main(argv.split()) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and out.splitlines()[-1].startswith("RESULT: PASS"), out


def assert_top_step_matches_ordered(cat, caps):
    """Every refutation of the walk capped at each (mult_cap, dim_cap) is one of the step.

    At saturating caps, whose seeds include the saturated seed, the two
    refute the same subsets.
    """
    saturating = saturating_caps(cat)
    for cap in (*caps, saturating):
        for bits in range(1, 1 << cat.n):
            s = SubcatBits(cat, bits)
            step = _kernel_violation(s) is not None
            walk = reference_kernel_violation(s, *cap) is not None
            assert step == walk if cap == saturating else (step or not walk), (bits, cap)


BOTH_CAPS = ((2, 16), (4, 32))


# The "decision" these gates name is the step, which decides closure under kernels.
@pytest.mark.parametrize("descriptor", ["a2", "a3", *(f"an:3:{w}" for w in AN3_WORDS),
                                        "uniserial:2", "uniserial:3", "uniserial:4"])
def test_decision_walk_matches_ordered_walk(descriptor):
    cat = build_builtin(descriptor)
    for c in (cat, cat.opposite()):
        assert_top_step_matches_ordered(c, BOTH_CAPS)


def test_decision_walk_matches_ordered_walk_nakayama(tmp_path):
    cat = nakayama_a3_rad2(tmp_path)
    for c in (cat, cat.opposite()):
        assert_top_step_matches_ordered(c, BOTH_CAPS)


def test_decision_walk_matches_ordered_walk_an4():
    assert_top_step_matches_ordered(build_builtin("an:4"), ((2, 16),))


def test_verify_digests_match_recorded():
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    keys = [k for k in digests if k.startswith("verify ")]
    assert len(keys) == 7
    for key in keys:
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(shlex.split(key)) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digests[key], key


def test_verify_an5_keeps_its_stdout():
    """The frontier: verify on an:5 (32,768 subsets per brute force) passes in seconds."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["verify", "--builtin", "an:5"]) == 0
    assert (hashlib.sha256(out.getvalue().encode()).hexdigest()
            == "cdde2a05b8e4aeee5c041f0ab4504926a8f710f635c380272f80cd39ba24fc8b")
