"""Module boundaries: only linalg knows the F_2 row format, only linalg eliminates, and
each table that one oracle reads lives beside that oracle, not on the catalog."""

import re
from pathlib import Path

import subcat
from subcat.catalog import Catalog, build_builtin

SRC = Path(subcat.__file__).parent


def test_only_linalg_branches_on_the_field():
    hits = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(SRC.glob("*.py")) if path.name != "linalg.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"p (==|!=) 2", line)
    ]
    assert hits == []


def test_lattices_defines_no_elimination():
    """Spans in lattices come from linalg: no row arithmetic mod p, no echelon insert."""
    text = (SRC / "lattices.py").read_text()
    assert re.findall(r".*%\s*p\b.*", text) == []
    assert "_pivot_insert" not in text


def test_catalog_defines_no_oracle_tables():
    """The mu bounds live in _kernel_search and the subquotient table in closures."""
    text = (SRC / "catalog.py").read_text()
    assert re.findall(r"def \w*(mu|saturation|subspaces|subquotient)\w*", text) == []
    cat = build_builtin("a2")
    for name in ("mu_bound", "saturation", "subquotient_indices", "_mu_tables", "_subq_cache"):
        assert not hasattr(Catalog, name) and not hasattr(cat, name), name


def test_only_the_catalog_decodes_profiles():
    """Catalog._class_of owns the memo of decoded classes; other modules call it."""
    hits = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(SRC.glob("*.py")) if path.name != "catalog.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\b(_id_cache|_decode)\b", line)
    ]
    assert hits == []


def test_one_endomorphism_walk(monkeypatch):
    """The idempotent search and the brick test walk End(m) in _nonunits; the mu bounds do not."""
    from subcat import _kernel_search, catalog

    from test_kernel_search import mu_table
    from test_value_types import f2_times_f4

    walk, seen = catalog._nonunits, []

    def recording(m, basis, test):
        seen.append(test)
        return walk(m, basis, test)

    monkeypatch.setattr(catalog, "_nonunits", recording)
    assert not hasattr(_kernel_search, "_nonunits")
    cat = build_builtin("uniserial:3")
    assert catalog.find_nontrivial_idempotent(cat.indecs[2]) is None
    assert catalog.is_brick(f2_times_f4().indecs[1])
    mu_table(cat)
    assert set(seen) == {"idempotent search", "brick test"}


def test_one_join_closure(monkeypatch):
    """The mu bounds grow End-submodules in _join_closure; all_submodules walks covers instead."""
    from subcat import _kernel_search, linalg, rep

    from test_kernel_search import mu_table

    closure, grown = linalg._join_closure, []

    def recording(p, zero, gens):
        grown.append(len(gens))
        return closure(p, zero, gens)

    assert not hasattr(rep, "_join_closure")
    monkeypatch.setattr(_kernel_search, "_join_closure", recording)
    mu_table(build_builtin("uniserial:3"))
    assert grown


def test_one_closure_engine(monkeypatch):
    """Serre, the torsion tables and Filt run _fill; closures and certificates walk _chain."""
    from subcat import closures, lattices

    fill, filled = closures._fill, []

    def recording_fill(rows, bits, single=None):
        filled[-1] += 1
        return fill(rows, bits, single)

    monkeypatch.setattr(closures, "_fill", recording_fill)
    monkeypatch.setattr(lattices, "_fill", recording_fill)
    runs = (lambda: closures.serre_closure(closures.SubcatBits.of(build_builtin("a3"), [0])),
            lambda: lattices._table_closure(build_builtin("an:3:<>"), "tors", 1),
            lambda: lattices.enumerate_family(build_builtin("an:4"), "wide"))
    for run in runs:
        filled.append(0)
        run()
    assert all(filled), filled

    chain, walked = closures._chain, []

    def recording_chain(c, idx, kind):
        walked.append(kind)
        return chain(c, idx, kind)

    monkeypatch.setattr(closures, "_chain", recording_chain)
    cat = build_builtin("a2")
    closures.tors_closure(closures.SubcatBits.of(cat, [1]))
    assert set(walked) == {"tors"}
    walked.clear()
    closures.chain_certificate(closures.SubcatBits.of(cat, [1]), 0, "torf")
    assert walked == ["torf"]


def test_chains_stay_on_catalog_members(monkeypatch):
    """Chain steps split over summands, so no chain assembles a sum; layers join in _join."""
    from subcat import closures, linalg

    tors_cat, cert_cat = build_builtin("an:3:<>"), build_builtin("an:4")
    join, joined = linalg._join, []

    def recording(p, a, c):
        joined.append(p)
        return join(p, a, c)

    def refused(self, mid):
        raise AssertionError(f"rep_of{mid} called on the chain path")

    monkeypatch.setattr(closures, "_join", recording)
    monkeypatch.setattr(Catalog, "rep_of", refused)
    for bits in range(1 << tors_cat.n):
        c = closures.SubcatBits(tors_cat, bits)
        closures.tors_closure(c)
        closures.torf_closure(c)
    for k in range(cert_cat.n):
        c = closures.SubcatBits.of(cert_cat, [k])
        for idx in range(cert_cat.n):
            for kind in ("tors", "torf"):
                closures.chain_certificate(c, idx, kind)
    assert joined


def test_value_semantics_are_defined_once():
    """_Frozen derives equality, hashing, repr and pickling; only Rep caches its own hash."""
    from subcat import closures, lattices, rep  # noqa: F401  (they define the subclasses)
    from subcat.linalg import _Frozen

    methods = ("__eq__", "__hash__", "__repr__", "__reduce__")
    own = {cls.__name__: [m for m in methods if m in vars(cls)] for cls in _Frozen.__subclasses__()}
    assert {"Mat", "Subspace", "Rep", "Morphism", "SubRep", "SubcatBits", "Family"} <= set(own)
    assert own.pop("Rep") == ["__hash__"]
    assert all(defined == [] for defined in own.values()), own


def test_no_search_takes_a_bound():
    """Each bounded search reads its module constant; a test lowers one by monkeypatching it."""
    import importlib
    import inspect
    import pkgutil

    from subcat import rep

    def functions(mod):
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield obj
            elif inspect.isclass(obj):
                for attr in vars(obj).values():
                    attr = getattr(attr, "__func__", attr)
                    if inspect.isfunction(attr) and attr.__module__ == mod.__name__:
                        yield attr

    seen, bounded = set(), []
    for info in pkgutil.iter_modules(subcat.__path__):
        mod = importlib.import_module(f"subcat.{info.name}")
        for fn in functions(mod):
            seen.add(f"{info.name}.{fn.__qualname__}")
            bounded += [f"{info.name}.{fn.__qualname__}({name})"
                        for name in inspect.signature(fn).parameters
                        if name in ("cap", "max_candidates")]
    assert {"rep.all_submodules", "rep.is_isomorphic", "catalog._nonunits", "catalog.is_brick",
            "catalog.Catalog.identify", "closures._splits", "closures.filt_contains",
            "_kernel_search._kernel_violation"} <= seen
    assert bounded == []
    assert not hasattr(rep, "check_submodule_cap")


def test_bound_constants_are_the_readme_table():
    """Every module-level *_CAP or *_BUDGET of subcat is one row of README's bounds table."""
    import importlib

    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| (\d+)(?:\^(\d+))? \|",
                      (SRC.parents[1] / "README.md").read_text(encoding="utf-8"), re.M)
    documented = {(name, module, int(base) ** int(exp or 1)) for name, module, base, exp in rows}
    defined = {
        (name, path.stem, getattr(importlib.import_module(f"subcat.{path.stem}"), name))
        for path in sorted(SRC.glob("*.py"))
        for name in re.findall(r"^(\w+_(?:CAP|BUDGET)) = ", path.read_text(), re.M)
    }
    assert defined == documented
    assert ("COEFF_WALK_BUDGET", "linalg", 1 << 16) in documented


def test_only_linalg_walks_coefficient_vectors():
    """Hom, End and Ext walks go through linalg._coeff_walk, which checks the one budget."""
    hits = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(SRC.glob("*.py")) if path.name != "linalg.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"product\(range\(", line)
    ]
    assert hits == []
