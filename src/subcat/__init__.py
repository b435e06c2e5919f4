"""Exact subcategory lattices of finite-length module categories.

Modules over a presented algebra are modeled as quiver representations over
a small prime field; catalogs list the indecomposables; closure operators
and class checkers enumerate the lattices of Serre, torsion, torsion-free,
wide, ICE-, IKE-, and IE-closed subcategories.

Importing the package loads none of its modules: each public name below is
imported from its module on first access (PEP 562), so building a catalog
loads only the layers it runs.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "CapExceeded", "CatalogError", "Decomposable", "DuplicateIso", "EmptyCatalog",
        "NotTorsionFree", "ParseError", "ShapeError", "SubcatError", "UnknownModule",
    ),
    "linalg": ("Mat", "Subspace", "nullspace", "rref", "solve"),
    "rep": (
        "Algebra", "Morphism", "Rep", "SubRep", "all_submodules", "cokernel", "direct_sum",
        "generated_submodule", "hom_basis", "hom_dim", "image", "is_isomorphic", "kernel",
        "quotient", "sub_to_rep", "validate",
    ),
    "catalog": ("Catalog", "build_builtin"),
    "files": ("load_algebra", "load_catalog", "load_module"),
    "closures": (
        "ChainCertificate", "SubcatBits", "TorsionPair", "chain_certificate", "fac_contains",
        "filt_contains", "reject", "serre_closure", "sub_contains", "torf_closure",
        "tors_closure", "torsion_pair_complete", "trace",
    ),
    "lattices": (
        "KINDS", "CheckConfig", "Family", "HasseDiagram", "enumerate_family", "hasse",
        "hasse_to_dot", "is_closed", "relations_report",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """A public name, or a module of the package, imported on first access and kept."""
    module = _MODULE_OF.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")  # binds the submodule in this namespace
    value = globals()[module]
    if name in _MODULE_OF:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_MODULE_OF) | set(_EXPORTS))
