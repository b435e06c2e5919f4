"""Exact subcategory lattices of finite-length module categories.

Modules over a presented algebra are modeled as quiver representations over
a small prime field; catalogs list the indecomposables; closure operators
and class checkers enumerate the lattices of Serre, torsion, torsion-free,
wide, ICE-, IKE-, and IE-closed subcategories.
"""

from .catalog import (
    Catalog,
    build_builtin,
    load_algebra,
    load_catalog,
    load_module,
)
from .closures import (
    ChainCertificate,
    SubcatBits,
    TorsionPair,
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
from .errors import (
    CapExceeded,
    CatalogError,
    Decomposable,
    DuplicateIso,
    EmptyCatalog,
    NotTorsionFree,
    ParseError,
    ShapeError,
    SubcatError,
    UnknownModule,
)
from .lattices import (
    KINDS,
    CheckConfig,
    Family,
    HasseDiagram,
    enumerate_family,
    hasse,
    hasse_to_dot,
    is_closed,
    relations_report,
)
from .linalg import Mat, Subspace, nullspace, rref, solve
from .rep import (
    Algebra,
    Morphism,
    Rep,
    SubRep,
    all_submodules,
    cokernel,
    direct_sum,
    generated_submodule,
    hom_basis,
    hom_dim,
    image,
    is_isomorphic,
    kernel,
    quotient,
    sub_to_rep,
    validate,
)

__version__ = "0.1.0"
