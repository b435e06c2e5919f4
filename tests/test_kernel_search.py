"""The rank-based kernel step of the bounded search against materialized kernels."""

import json
from itertools import product

import pytest

from subcat import _kernel_search
from subcat.catalog import build_builtin
from subcat.closures import SubcatBits
from subcat.errors import CapExceeded, UnknownModule
from subcat.files import load_catalog
from subcat.lattices import KINDS, enumerate_family, is_closed
from subcat.rep import hom_basis, kernel, morphism_from_coeffs

from test_lattice_path import nakayama_a3_rad2


def reference_classes(cat, core, b):
    """Every nonzero morphism core -> X_b: build its kernel and identify it."""
    src, tgt = cat.rep_of(core), cat.indecs[b]
    basis = hom_basis(src, tgt)
    p = cat.algebra.p
    return frozenset(
        cat.identify_sub(kernel(morphism_from_coeffs(basis, coeffs, src, tgt)))
        for coeffs in product(range(p), repeat=len(basis))
        if any(coeffs)
    )


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


@pytest.mark.parametrize("descriptor,p", [
    ("a2", 2), ("a3", 2), *((f"an:3:{w}", 2) for w in (">>", "<<", "<>", "><")),
    ("uniserial:3", 2), ("uniserial:4", 2), ("a3", 3), ("a2", 5),
])
def test_kernel_classes_match_materialized_kernels(descriptor, p, monkeypatch):
    def no_kernel_modules(cat, core, b):
        raise AssertionError("a complete catalog decodes every kernel from its ranks")

    # on a complete catalog, every decode succeeds and no kernel is built
    monkeypatch.setattr(_kernel_search, "_materialized_kernel_classes", no_kernel_modules)
    assert_keys_match_reference(build_builtin(descriptor, p=p))


def test_kernel_classes_match_on_incomplete_catalog(tmp_path):
    cat = nakayama_a3_rad2(tmp_path)
    assert not cat.complete
    assert_keys_match_reference(cat)


def test_kernel_search_cap_message(monkeypatch):
    monkeypatch.setattr(_kernel_search, "KERNEL_ENUM_CAP", 1)
    cat = build_builtin("uniserial:3")
    with pytest.raises(CapExceeded, match="exceeds the kernel search budget"):
        is_closed("wide", SubcatBits(cat, (1 << cat.n) - 1))


def test_composition_table_is_built_only_by_the_bounded_search():
    cat = build_builtin("uniserial:3")
    assert "pair_images" not in cat._closure_memo
    for kind in KINDS:
        enumerate_family(cat, kind)
    assert "pair_images" not in cat._closure_memo
    is_closed("wide", SubcatBits(cat, (1 << cat.n) - 1))
    assert cat._closure_memo["pair_images"]


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
