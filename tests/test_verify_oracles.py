"""The verify oracles against literal references: the filtration search and the kernel search."""

import hashlib
import io
import json
import shlex
from contextlib import redirect_stdout
from itertools import product
from pathlib import Path

import pytest

from subcat import cli
from subcat.catalog import build_builtin, mid_counts, mid_from_counts
from subcat.closures import SubcatBits, fac_contains, filt_contains, sub_contains
from subcat.errors import CapExceeded
from subcat._kernel_search import _kernel_classes, _kernel_violation, _mid_label, _packing
from subcat.lattices import KINDS, CheckConfig, enumerate_family
from subcat.linalg import Subspace
from subcat.rep import all_submodules, hom_basis, image, kernel, quotient, sub_to_rep

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


def test_cached_splits_still_check_a_smaller_cap():
    cat = build_builtin("a2")
    b = cat.index_of("B")
    assert not filt_contains(cat, lambda x: False, cat.indecs[b])
    assert cat._closure_memo["filt_splits"]
    with pytest.raises(CapExceeded, match="exceeds submodule cap 1"):
        filt_contains(cat, lambda x: False, cat.indecs[b], cap=1)


ORACLE_MEMOS = ("filt_keys", "filt_splits", ("layer", "tors"), ("layer", "torf"),
                ("successor", "tors"), ("successor", "torf"), "packing", "kerstep_packed")


@pytest.mark.parametrize("descriptor", ["a3", "uniserial:4", "an:5"])
def test_enumeration_builds_no_oracle_memo(descriptor):
    cat = build_builtin(descriptor)
    for kind in KINDS:
        enumerate_family(cat, kind, "auto")
    assert not [m for m in ORACLE_MEMOS if m in cat._closure_memo]


# -- the kernel search on packed multisets -------------------------------------------------


def reference_kernel_violation(s, cfg, dual=False):
    """The kernel search on sorted index tuples, with every multiset step spelled out.

    Kernel classes per (core, b) come from the catalog's memo, which
    test_kernel_search checks against materialized kernels.
    """
    cat = s.catalog
    classes = cat._closure_memo.setdefault("kerstep", {})
    sat = cat.saturation
    caps = [min(cfg.mult_cap, sat[i] + 1) for i in range(cat.n)]
    dims = [m.total_dim for m in cat.indecs]
    seeds = set()
    for counts in product(*(range(caps[i] + 1) if s.has(i) else (0,) for i in range(cat.n))):
        used = sum(c * d for c, d in zip(counts, dims))
        if used and used <= cfg.dim_cap and all(
                counts[i] == caps[i] or used + dims[i] > cfg.dim_cap for i in s.indices()):
            seeds.add(mid_from_counts({i: c for i, c in enumerate(counts) if c}))
    seen = set(seeds)
    frontier = sorted(seen)
    while frontier:
        state = frontier.pop()
        counts = mid_counts(state)
        for b in s.indices():
            core = {i: min(m, cat.mu_bound(i, b)) for i, m in counts.items() if cat.mu_bound(i, b)}
            surplus = [i for i, m in counts.items() for _ in range(m - core.get(i, 0))]
            key = (mid_from_counts(core), b)
            if key not in classes:
                classes[key] = _kernel_classes(cat, *key)
            kids = sorted(tuple(sorted(kid + tuple(surplus))) for kid in classes[key])
            for kid in kids:
                if any(not s.has(k) for k in kid):
                    arrow = (f"{cat.names[b]} -> {_mid_label(cat, state)}" if dual
                             else f"{_mid_label(cat, state)} -> {cat.names[b]}")
                    word = "cokernel" if dual else "kernel"
                    return (f"a morphism {arrow} between member sums has {word} "
                            f"{_mid_label(cat, kid)}, outside the subcategory")
                capped = mid_from_counts({i: min(m, sat[i] + 1) for i, m in mid_counts(kid).items()})
                if capped and capped not in seen:
                    seen.add(capped)
                    frontier.append(capped)
    return None


@pytest.mark.parametrize("descriptor", ["a2", "a3", *(f"an:3:{w}" for w in AN3_WORDS),
                                        "uniserial:3", "uniserial:4"])
def test_kernel_witnesses_match_tuple_reference(descriptor):
    cat = build_builtin(descriptor)
    cfg = CheckConfig()
    for c, dual in ((cat, False), (cat.opposite(), True)):
        for bits in range(1, 1 << cat.n):
            s = SubcatBits(c, bits)
            assert _kernel_violation(s, cfg, dual) == reference_kernel_violation(s, cfg, dual), bits


@pytest.mark.parametrize("descriptor,p", [("a3", 2), ("a2", 3)])
def test_bruteforce_at_doubled_caps_matches_tuple_reference(descriptor, p):
    cat = build_builtin(descriptor, p=p)
    cfg = CheckConfig(4, 32)
    for c in (cat, cat.opposite()):
        for bits in range(1, 1 << cat.n):
            s = SubcatBits(c, bits)
            assert _kernel_violation(s, cfg) == reference_kernel_violation(s, cfg), bits


# Subsets of an:4 whose first witness moves when the frontier is not sorted as
# tuples (kernel search) or when the sticky cap is one lower (cokernel search).
AN4_ORDER_SENSITIVE = {False: (45, 47, 61, 62, 63, 77), True: (158, 253, 286, 318, 414, 446)}


def test_kernel_witnesses_match_tuple_reference_an4_order_sensitive():
    cat = build_builtin("an:4")
    cfg = CheckConfig()
    for c, dual in ((cat, False), (cat.opposite(), True)):
        for bits in AN4_ORDER_SENSITIVE[dual]:
            s = SubcatBits(c, bits)
            assert _kernel_violation(s, cfg, dual) == reference_kernel_violation(s, cfg, dual), bits


def test_kernel_witnesses_match_tuple_reference_nakayama(tmp_path):
    cat = nakayama_a3_rad2(tmp_path)
    cfg = CheckConfig()
    for c, dual in ((cat, False), (cat.opposite(), True)):
        for bits in range(1, 1 << cat.n):
            s = SubcatBits(c, bits)
            assert _kernel_violation(s, cfg, dual) == reference_kernel_violation(s, cfg, dual), bits


@pytest.mark.parametrize("descriptor,p", [("uniserial:4", 2), ("a3", 3)])
def test_step_classes_are_visited_in_sorted_tuple_order(descriptor, p):
    cat = build_builtin(descriptor, p=p)
    enumerate_family(cat, "wide", "bruteforce", CheckConfig(4, 32))
    pk = _packing(cat)
    ordered = cat._closure_memo["kerstep_packed"]
    assert any(len(classes) > 1 for classes in ordered.values())
    for (core, b, top), classes in ordered.items():
        surpluses = [()] if top < 0 else [mid_from_counts(dict(enumerate(c))) + (top,)
                                           for c in product(range(3), repeat=top)]
        for surplus in surpluses:
            kids = [pk.unpack(kc + pk.pack(surplus)) for kc, _ in classes]
            assert kids == sorted(kids), (core, b, surplus)


def test_surplus_order_depends_on_its_largest_index_only():
    """Adding a surplus reorders kernel classes only through the surplus's largest index."""
    multisets = [mid_from_counts(dict(enumerate(c))) for c in product(range(3), repeat=3)]
    for a, b, surplus in product(multisets, repeat=3):
        tail = surplus[-1:]
        plus = lambda kid, extra: tuple(sorted(kid + extra))
        assert (plus(a, surplus) < plus(b, surplus)) == (plus(a, tail) < plus(b, tail))


def test_verify_digests_match_recorded():
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    keys = [k for k in digests if k.startswith("verify ")]
    assert len(keys) == 7
    for key in keys:
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(shlex.split(key)) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digests[key], key
