"""The rank-based kernel step against materialized kernels, and its errors."""

import json
import re
from itertools import combinations_with_replacement, product

import pytest

from subcat import _kernel_search, cli, linalg
from subcat.catalog import Catalog, build_builtin
from subcat.closures import SubcatBits
from subcat.errors import CapExceeded, UnknownModule
from subcat.files import load_catalog
from subcat.lattices import KINDS, enumerate_family, is_closed
from subcat.rep import hom_basis, kernel, morphism_from_coeffs

from test_lattice_path import nakayama_a3_rad2
from test_value_types import kronecker_preprojectives


def reference_classes(cat, core, b):
    """Every nonzero morphism core -> X_b: build its kernel and identify it.

    One map per line, with first nonzero coefficient 1, since ker(c*v) = ker v.
    """
    src, tgt = cat.rep_of(core), cat.indecs[b]
    basis = hom_basis(src, tgt)
    p = cat.algebra.p
    return frozenset(
        cat.identify_sub(kernel(morphism_from_coeffs(basis, coeffs, src, tgt)))
        for coeffs in product(range(p), repeat=len(basis))
        if next((c for c in coeffs if c), 0) == 1
    )


def mu_table(cat):
    """mu[i][j] = _mu_bound(cat, i, j) over every pair; the kernel step reads them one at a time."""
    return tuple(tuple(_kernel_search._mu_bound(cat, i, j) for j in range(cat.n))
                 for i in range(cat.n))


def searched_catalogs(cat):
    """The catalog, its opposite and the opposite's opposite, after wide brute force on both."""
    op = cat.opposite()
    enumerate_family(cat, "wide", "bruteforce")
    enumerate_family(op, "wide", "bruteforce")
    return (cat, op, op.opposite())


def assert_keys_match_reference(cat):
    keys = 0
    for c in searched_catalogs(cat):
        for (core, b), classes in c._closure_memo.get("kerstep", {}).items():
            assert classes == reference_classes(c, core, b), (core, b)
            keys += 1
    assert keys


# catalogs whose every core of at most 3 summands, repeats included, is checked too
MULTISET_CORES = {("a3", 2), ("uniserial:3", 2), ("a2", 5), ("an:3:<>", 3)}


@pytest.mark.parametrize("descriptor,p", [
    ("a2", 2), ("a3", 2), *((f"an:3:{w}", 2) for w in (">>", "<<", "<>", "><")),
    ("uniserial:3", 2), ("uniserial:4", 2), ("a3", 3), ("a2", 5), ("an:3:<>", 3),
])
def test_kernel_classes_match_materialized_kernels(descriptor, p, monkeypatch):
    def no_kernel_modules(cat, core, b):
        raise AssertionError("a complete catalog decodes every kernel from its ranks")

    # on a complete catalog, every decode succeeds and no kernel is built
    monkeypatch.setattr(_kernel_search, "_materialized_kernel_classes", no_kernel_modules)
    cat = build_builtin(descriptor, p=p)
    assert_keys_match_reference(cat)
    if (descriptor, p) in MULTISET_CORES:
        for size in (1, 2, 3):
            for core in combinations_with_replacement(range(cat.n), size):
                for b in range(cat.n):
                    assert (_kernel_search._kernel_classes(cat, core, b)
                            == reference_classes(cat, core, b)), (core, b)


def test_kernel_classes_match_on_incomplete_catalog(tmp_path):
    cat = nakayama_a3_rad2(tmp_path)
    assert not cat.complete
    assert_keys_match_reference(cat)


def test_the_step_takes_mu_copies_of_each_member():
    """Of the Kronecker preprojectives, only P1 + P1 maps onto X with a kernel, P2, outside {P1, X}."""
    cat = kronecker_preprojectives(2)
    assert _kernel_search._mu_bound(cat, 1, 2) == 2
    assert _kernel_search._kernel_violation(SubcatBits(cat, 0b110)) == (
        "a morphism P1 + P1 + X -> X between member sums has kernel P2 + X, outside the subcategory")


@pytest.mark.parametrize("p", [2, 3])
def test_kernel_classes_fold_each_member_within_its_copies(p, monkeypatch):
    """Cores of P2 and P1 hold fewer copies than mu(P2, X) = 3 and as many as mu(P2, P1) = 2.

    Every kernel of a map out of a sum of projectives P2 and P1 is projective,
    so the Kronecker preprojectives, marked complete, decode each of them.
    """
    def no_kernel_modules(cat, core, b):
        raise AssertionError("a complete catalog decodes every kernel from its ranks")

    monkeypatch.setattr(_kernel_search, "_materialized_kernel_classes", no_kernel_modules)
    kron = kronecker_preprojectives(p)
    cat = Catalog(kron.algebra, kron.indecs, kron.names, complete=True)
    assert mu_table(cat) == ((1, 2, 3), (0, 1, 2), (0, 0, 1))
    cases = [(core, b) for size in (1, 2, 3)
             for core in combinations_with_replacement((0, 1), size) for b in (1, 2)]
    assert len(cases) == 18
    for core, b in cases:
        assert _kernel_search._kernel_classes(cat, core, b) == reference_classes(cat, core, b), (
            core, b)


@pytest.mark.parametrize("descriptor,p", [("uniserial:6", 2), ("uniserial:8", 2), ("uniserial:6", 3)])
def test_every_hom_between_uniserials_needs_one_copy(descriptor, p):
    """Hom(M_i, M_j) is cyclic over End(M_i), so each mu bound is 1."""
    cat = build_builtin(descriptor, p=p)
    assert mu_table(cat) == ((1,) * cat.n,) * cat.n


def test_over_the_budget_raises_before_enumerating():
    """On uniserial:17, the full-set step and the pair (M17, M17) both exceed 2^16 maps.

    The full-set core into M1 holds every member once, 2^17 maps; Hom(M17, M17)
    alone has 2^17.  Neither enumerates anything before it raises.
    """
    cat = build_builtin("uniserial:17")
    with pytest.raises(CapExceeded, match=r", M1\) of dimension 17 exceeds"):
        is_closed("wide", SubcatBits(cat, (1 << cat.n) - 1))
    assert "pair_lattice" not in cat._closure_memo
    with pytest.raises(CapExceeded, match=re.escape("Hom(M17, M17) of dimension 17 exceeds")):
        _kernel_search._pair_lattice(cat, 16, 16)
    assert cat._closure_memo["pair_lattice"] == {}


def test_kernel_search_cap_message(monkeypatch):
    """The budget bounds the catalog build too, so the catalog and its opposite come first."""
    cat = build_builtin("uniserial:3")
    cat.opposite()
    monkeypatch.setattr(linalg, "COEFF_WALK_BUDGET", 1)
    with pytest.raises(CapExceeded, match="exceeds the kernel search budget"):
        is_closed("wide", SubcatBits(cat, (1 << cat.n) - 1))


def step_outcome(c, s, budget):
    """The kernel step on s under a budget on the lines of Hom: "raised", "escape" or None.

    Members in index order, as the step takes them, reading the mu bounds
    and classes the unbudgeted step stored in the catalog's memo.
    """
    p = c.algebra.p
    for b in s.indices():
        core = tuple(i for i in s.indices() for _ in range(_kernel_search._mu_bound(c, i, b)))
        if not core:
            continue
        if (p ** sum(c.hom_dims[i][b] for i in core) - 1) // (p - 1) > budget:
            return "raised"
        if any(not s.contains_id(kid) for kid in c._closure_memo["kerstep"][(core, b)]):
            return "escape"
    return None


def test_decision_walk_keeps_cap_errors_and_witnesses(monkeypatch):
    """Under every budget the steps straddle, is_closed("wide") raises where a step does.

    That is on exactly the subsets with no extension witness whose kernel
    step, or failing an escape there the cokernel step, meets a core over
    the budget before an escape.  Elsewhere the answer and witness are the
    unbudgeted ones.  The budget bounds catalog builds too, so each fresh
    catalog and its opposite are built before it is lowered.
    """
    cat = build_builtin("uniserial:4")
    unbudgeted = {bits: is_closed("wide", SubcatBits(cat, bits)) for bits in range(1, 1 << cat.n)}
    reached = sorted({cat.algebra.p ** sum(cat.hom_dims[i][b] for i in core)
                      for core, b in cat._closure_memo["kerstep"]})
    outcomes = set()
    fresh_catalogs = [build_builtin("uniserial:4") for _ in reached[:-1]]
    for fresh in fresh_catalogs:
        fresh.opposite()
    for budget, fresh in zip(reached[:-1], fresh_catalogs):
        monkeypatch.setattr(linalg, "COEFF_WALK_BUDGET", budget)
        for bits in range(1, 1 << cat.n):
            s = SubcatBits(cat, bits)
            expected = None
            if _kernel_search._ext_violation(s) is None:
                expected = step_outcome(cat, s, budget)
                if expected is None:
                    expected = step_outcome(cat.opposite(), SubcatBits(cat.opposite(), bits), budget)
            try:
                assert is_closed("wide", SubcatBits(fresh, bits)) == unbudgeted[bits], bits
                raised = False
            except CapExceeded:
                raised = True
            assert raised == (expected == "raised"), (budget, bits)
            outcomes.add(raised)
    assert outcomes == {True, False}


def test_undecodable_kernel_on_a_complete_catalog_raises(monkeypatch, capsys):
    """A kernel class that does not decode contradicts completeness: UnknownModule, exit 2."""
    cat = build_builtin("a2")
    enumerate_family(cat, "wide", "bruteforce")
    (core, b), kid = next((key, kid) for key, classes in sorted(cat._closure_memo["kerstep"].items())
                          for kid in sorted(classes) if kid)
    rep = cat.rep_of(kid)
    key = (rep.dims, cat.profile(rep))
    class_of = Catalog._class_of
    monkeypatch.setattr(Catalog, "_class_of", lambda self, dims, prof: (
        None if (dims, prof) == key else class_of(self, dims, prof)))
    arrow = f"{_kernel_search._mid_label(cat, core)} -> {cat.names[b]}"
    with pytest.raises(UnknownModule, match=re.escape(arrow)):
        _kernel_search._kernel_classes(build_builtin("a2"), core, b)
    assert cli.main(["verify", "--builtin", "a2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "marked complete" in err, err


def reference_ext_violation(s):
    """The ordered scan of every member pair's middle terms, with no masks."""
    cat = s.catalog
    for i in s.indices():
        for j in s.indices():
            for mid in cat.ext_table[(i, j)]:
                if not s.contains_id(mid):
                    return (f"an extension of {cat.names[j]} by {cat.names[i]} has middle "
                            f"term {_kernel_search._mid_label(cat, mid)}")
    return None


def test_extension_masks_keep_the_ordered_witness(tmp_path):
    cats = [build_builtin(d) for d in ("a3", "an:3:<>", "an:4:<><", "uniserial:4")]
    cats.append(nakayama_a3_rad2(tmp_path))
    for cat in cats:
        for c in (cat, cat.opposite()):
            for bits in range(1 << c.n):
                s = SubcatBits(c, bits)
                assert _kernel_search._ext_violation(s) == reference_ext_violation(s), bits


def test_composition_table_is_built_only_by_the_bounded_search():
    cat = build_builtin("uniserial:3")
    assert "pair_lattice" not in cat._closure_memo
    for kind in KINDS:
        enumerate_family(cat, kind)
    assert "pair_lattice" not in cat._closure_memo
    is_closed("wide", SubcatBits(cat, (1 << cat.n) - 1))
    assert cat._closure_memo["pair_lattice"]


def test_missing_kernel_summand_raises(tmp_path):
    """A2 catalog {P1, S1} without S2, the kernel of the projection P1 -> S1."""
    apath = tmp_path / "algebra.json"
    apath.write_text(json.dumps({
        "field_char": 2,
        "vertices": ["1", "2"],
        "arrows": [{"name": "a", "from": "1", "to": "2"}],
    }))
    modules = {"P1": {"dims": {"1": 1, "2": 1}, "matrices": {"a": [[1]]}},
               "S1": {"dims": {"1": 1}}}
    paths = []
    for name, data in modules.items():
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(data))
    cat = load_catalog(apath, paths)
    with pytest.raises(UnknownModule):
        is_closed("wide", SubcatBits(cat, 0b11))
