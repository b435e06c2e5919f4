"""Closure operators on subcategories: trace, reject, torsion-theoretic hulls.

A subcategory is a bitset of catalog indices, read as the additive closure
of the selected indecomposables (so it always contains the zero module and
is closed under finite sums and summands).  The torsion closure of a set C
is computed by iterated trace quotients: the trace of C in X is a quotient
of a sum of C-objects, so a chain X, X/tr, (X/tr)/tr', ... that reaches 0
exhibits a filtration of X with layers that are quotients of C-objects;
conversely the class of such filtered modules is itself closed under
quotients and extensions and contains a nonzero first layer inside every
member's trace, which forces strict descent.  The literal filtration-search
oracle `filt_contains` stays available as an independent cross-check.

What depends only on the catalog is cached on it, on first use, keyed by
module value: each member's contribution to a trace or reject in a module,
a chain layer's successor class, and, for the filtration search, each
module's (dimension vector, Hom profile) key and its (layer, quotient)
splits in `all_submodules` order.  These are the same computations the
searches made per subset before, so the oracles keep their algorithms and
their order of search; they still read neither the Hom-orthogonality perps
nor the lattice tables of `lattices`, which is what keeps them independent
of the enumeration they check.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .catalog import Catalog, ModuleId, mid_counts
from .errors import NotTorsionFree, ShapeError
from .linalg import Subspace, _Frozen, _slot_setters
from .rep import (
    Rep,
    SubRep,
    all_submodules,
    check_submodule_cap,
    hom_basis,
    image,
    kernel,
    quotient,
    sub_to_rep,
    SUBMODULE_DIM_CAP,
)


class SubcatBits(_Frozen):
    """A subcategory of mod Lambda, encoded by its set of indecomposables."""

    __slots__ = ("catalog", "bits")

    def __init__(self, catalog: Catalog, bits: int):
        _bits_catalog(self, catalog)
        _bits_bits(self, bits)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.bits == other.bits and self.catalog == other.catalog

    def __hash__(self):
        return hash((self.catalog, self.bits))

    def __repr__(self):
        return f"{type(self).__qualname__}(catalog={self.catalog!r}, bits={self.bits!r})"

    @staticmethod
    def empty(catalog: Catalog) -> "SubcatBits":
        return SubcatBits(catalog, 0)

    @staticmethod
    def full(catalog: Catalog) -> "SubcatBits":
        return SubcatBits(catalog, (1 << catalog.n) - 1)

    @staticmethod
    def of(catalog: Catalog, indices: Iterable[int]) -> "SubcatBits":
        bits = 0
        for i in indices:
            if not 0 <= i < catalog.n:
                raise ShapeError(f"catalog index {i} out of range")
            bits |= 1 << i
        return SubcatBits(catalog, bits)

    @staticmethod
    def from_names(catalog: Catalog, names: Iterable[str]) -> "SubcatBits":
        return SubcatBits.of(catalog, (catalog.index_of(n) for n in names))

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.catalog.n) if (self.bits >> i) & 1)

    def names(self) -> tuple[str, ...]:
        return tuple(self.catalog.names[i] for i in self.indices())

    def has(self, idx: int) -> bool:
        return bool((self.bits >> idx) & 1)

    def contains_id(self, mid: ModuleId) -> bool:
        return all(self.has(i) for i in mid_counts(mid))

    @property
    def size(self) -> int:
        return bin(self.bits).count("1")

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    @property
    def is_full(self) -> bool:
        return self.bits == (1 << self.catalog.n) - 1

    def union(self, other: "SubcatBits") -> "SubcatBits":
        self._check(other)
        return SubcatBits(self.catalog, self.bits | other.bits)

    def intersect(self, other: "SubcatBits") -> "SubcatBits":
        self._check(other)
        return SubcatBits(self.catalog, self.bits & other.bits)

    def issubset(self, other: "SubcatBits") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def _check(self, other: "SubcatBits") -> None:
        if self.catalog is not other.catalog:
            raise ShapeError("subcategories over different catalogs")

    def label(self) -> str:
        return "{" + ", ".join(self.names()) + "}"


_bits_catalog, _bits_bits = _slot_setters(SubcatBits)


# -- trace and reject ------------------------------------------------------------


def _join(p: int, dims: Sequence[int], parts: Iterable[Sequence[Subspace]],
          kind: str) -> tuple[Subspace, ...]:
    """Vertexwise sum (kind tors) or intersection (kind torf) of subspace tuples."""
    if kind == "tors":
        spaces = [Subspace.zero(p, d) for d in dims]
        for part in parts:
            for v, sp in enumerate(part):
                if sp.dim:
                    spaces[v] = spaces[v].add(sp)
    else:
        spaces = [Subspace.full(p, d) for d in dims]
        for part in parts:
            for v, sp in enumerate(part):
                if sp.dim < dims[v]:
                    spaces[v] = spaces[v].intersect(sp)
    return tuple(spaces)


def _contribution(cat: Catalog, i: int, m: Rep, kind: str) -> tuple[Subspace, ...]:
    """What member i adds to the trace (kind tors) or reject (kind torf) in m.

    The images of all maps X_i -> m, or the common kernel of all maps
    m -> X_i.  It depends only on (member, module), so it is memoized per
    catalog on the module value and shared by every subcategory.
    """
    memo = cat._closure_memo.setdefault(("layer", kind), {})
    key = (i, m)
    if key not in memo:
        if kind == "tors":
            parts = (image(f).spaces for f in hom_basis(cat.indecs[i], m))
        else:
            parts = (kernel(f).spaces for f in hom_basis(m, cat.indecs[i]))
        memo[key] = _join(cat.algebra.p, m.dims, parts, kind)
    return memo[key]


def _layer(c: SubcatBits, m: Rep, kind: str) -> SubRep:
    """The trace (kind tors) or reject (kind torf) of C in m."""
    cat = c.catalog
    parts = (_contribution(cat, i, m, kind) for i in c.indices())
    return SubRep(m, _join(cat.algebra.p, m.dims, parts, kind))


def trace(c: SubcatBits, m: Rep) -> SubRep:
    """Largest submodule of m that is a quotient of a finite sum of C-objects.

    The image of the evaluation map: the vertexwise sum of the images of all
    basis morphisms from members of C into m.
    """
    return _layer(c, m, "tors")


def reject(c: SubcatBits, m: Rep) -> SubRep:
    """Smallest submodule of m whose quotient embeds into a product of C-objects.

    The intersection of the kernels of all basis morphisms from m into
    members of C.
    """
    return _layer(c, m, "torf")


def fac_contains(c: SubcatBits, x: Rep) -> bool:
    """Is x a quotient of a finite sum of C-objects (the evaluation onto)?"""
    return trace(c, x).is_full


def sub_contains(c: SubcatBits, x: Rep) -> bool:
    """Does x embed into a finite sum of C-objects (the coevaluation in)?"""
    return reject(c, x).is_zero


# -- torsion and torsion-free closures ----------------------------------------------


class ChainStep(NamedTuple):
    module: tuple[str, ...]
    layer_dims: tuple[int, ...]

    def to_json(self) -> dict:
        return {"module": list(self.module), "layer_dims": list(self.layer_dims)}


class ChainCertificate(NamedTuple):
    """Witness for one catalog member's closure test.

    Records the iterated chain down to zero (member) or to the first nonzero
    fixed point (non-member); total dimensions strictly decrease while the
    chain advances.
    """

    kind: str
    start: tuple[str, ...]
    member: bool
    steps: tuple[ChainStep, ...]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "start": list(self.start),
            "member": self.member,
            "steps": [s.to_json() for s in self.steps],
        }


def _chain_next(c: SubcatBits, mid: ModuleId, kind: str) -> tuple[tuple[int, ...], ModuleId]:
    """One chain step on an isomorphism class: (layer dims, next class)."""
    cat = c.catalog
    memo = cat._closure_memo.setdefault((kind, c.bits), {})
    if mid not in memo:
        layer = _layer(c, cat.rep_of(mid), kind)
        successors = cat._closure_memo.setdefault(("successor", kind), {})
        if layer not in successors:
            successors[layer] = (
                cat.identify(quotient(layer.ambient, layer)[0]) if kind == "tors"
                else cat.identify_sub(layer)
            )
        memo[mid] = (layer.dims, successors[layer])
    return memo[mid]


def _stalled(cat: Catalog, mid: ModuleId, layer_dims: tuple[int, ...], kind: str) -> bool:
    """The chain stops short of zero: an empty trace, or a reject that is everything."""
    return sum(layer_dims) == (0 if kind == "tors" else sum(cat.dims_of(mid)))


def _chain_member(c: SubcatBits, idx: int, kind: str) -> bool:
    mid: ModuleId = (idx,)
    while mid:
        layer_dims, nxt = _chain_next(c, mid, kind)
        if _stalled(c.catalog, mid, layer_dims, kind):
            return False
        mid = nxt
    return True


def chain_certificate(c: SubcatBits, idx: int, kind: str) -> ChainCertificate:
    """Explicit chain for one catalog member, for audit output."""
    cat = c.catalog
    names = lambda mid: tuple(sorted(cat.names[k] for k in mid))
    steps = []
    mid: ModuleId = (idx,)
    member = True
    while mid:
        layer_dims, nxt = _chain_next(c, mid, kind)
        steps.append(ChainStep(names(mid), layer_dims))
        if _stalled(cat, mid, layer_dims, kind):
            member = False
            break
        mid = nxt
    return ChainCertificate(kind, (cat.names[idx],), member, tuple(steps))


def _chain_closure(c: SubcatBits, kind: str) -> SubcatBits:
    """The members whose trace (or reject) chain reaches zero."""
    bits = 0
    for k in range(c.catalog.n):
        if _chain_member(c, k, kind):
            bits |= 1 << k
    return SubcatBits(c.catalog, bits)


def tors_closure(c: SubcatBits) -> SubcatBits:
    """Smallest torsion class containing C, by iterated trace quotients."""
    return _chain_closure(c, "tors")


def torf_closure(c: SubcatBits) -> SubcatBits:
    """Smallest torsion-free class containing C, by iterated rejects."""
    return _chain_closure(c, "torf")


# -- filtration oracle ------------------------------------------------------------------


def _module_key(cat: Catalog, m: Rep) -> tuple:
    """(dimension vector, Hom profile) of a module, memoized per catalog on its value."""
    memo = cat._closure_memo.setdefault("filt_keys", {})
    if m not in memo:
        memo[m] = (m.dims, cat.profile(m))
    return memo[m]


def _splits(cat: Catalog, m: Rep, cap: int) -> list[tuple[Rep, Rep]]:
    """(layer, quotient) per nonzero proper submodule, in all_submodules order.

    Memoized per catalog on the module value; the cap is checked on every
    call, so a cached list never bypasses a smaller cap.
    """
    check_submodule_cap(m, cap)
    memo = cat._closure_memo.setdefault("filt_splits", {})
    if m not in memo:
        memo[m] = [
            (sub_to_rep(s)[0], quotient(m, s)[0])
            for s in all_submodules(m, cap)
            if not (s.is_zero or s.is_full)
        ]
    return memo[m]


def filt_contains(cat: Catalog, pred: Callable[[Rep], bool], x: Rep,
                  cap: int = SUBMODULE_DIM_CAP, _memo: Optional[dict] = None) -> bool:
    """Does x have a finite filtration whose layers satisfy pred?

    Literal filtration search over all submodules: true when x is zero, when
    pred(x) holds, or when some nonzero proper submodule satisfies pred and
    the quotient recursively passes.  pred must be isomorphism-invariant;
    results are memoized per call on the (dimension vector, Hom profile)
    key.  The keys and the submodule splits are pred-independent and cached
    on the catalog.
    """
    if _memo is None:
        _memo = {}
    if x.total_dim == 0:
        return True
    key = _module_key(cat, x)
    if key in _memo:
        return _memo[key]
    _memo[key] = False  # cycle guard; dimensions strictly decrease anyway
    result = True if pred(x) else any(
        pred(layer) and filt_contains(cat, pred, rest, cap, _memo)
        for layer, rest in _splits(cat, x, cap)
    )
    _memo[key] = result
    return result


# -- Serre closure -----------------------------------------------------------------------


def serre_closure(c: SubcatBits) -> SubcatBits:
    """Least fixpoint adding subquotient classes and extension middle terms."""
    cat = c.catalog
    bits = c.bits
    while True:
        add = 0
        idxs = [i for i in range(cat.n) if (bits >> i) & 1]
        for i in idxs:
            for k in cat.subquotient_indices(i):
                add |= 1 << k
        for i in idxs:
            for j in idxs:
                for mid in cat.ext_table[(i, j)]:
                    for k in mid_counts(mid):
                        add |= 1 << k
        if add & ~bits == 0:
            return SubcatBits(cat, bits)
        bits |= add


# -- torsion pairs ------------------------------------------------------------------------


class TorsionPair(NamedTuple):
    tors: SubcatBits
    verified: bool
    witnesses: tuple[dict, ...]


def torsion_pair_complete(f: SubcatBits) -> TorsionPair:
    """Complete a torsion-free class F to the torsion pair (T, F).

    T consists of the catalog members with no morphisms into F.  The result
    is verified by checking Hom(T, F) = 0 on the catalog and, for every
    catalog member X, that the canonical sequence 0 -> t(X) -> X -> X/t(X) -> 0
    has its ends in T and F.
    """
    cat = f.catalog
    if torf_closure(f).bits != f.bits:
        raise NotTorsionFree(f"{f.label()} is not a torsion-free class")
    f_idx = f.indices()
    t_bits = 0
    for k in range(cat.n):
        if all(cat.hom_dims[k][j] == 0 for j in f_idx):
            t_bits |= 1 << k
    t = SubcatBits(cat, t_bits)
    verified = all(cat.hom_dims[i][j] == 0 for i in t.indices() for j in f_idx)
    witnesses = []
    for k in range(cat.n):
        x = cat.indecs[k]
        tr = trace(t, x)
        torsion_part = cat.identify_sub(tr)
        free_part = cat.identify(quotient(x, tr)[0])
        ok = t.contains_id(torsion_part) and f.contains_id(free_part)
        verified = verified and ok
        witnesses.append(
            {
                "module": cat.names[k],
                "torsion_part": sorted(cat.names[i] for i in torsion_part),
                "torsion_free_part": sorted(cat.names[i] for i in free_part),
                "ok": ok,
            }
        )
    return TorsionPair(t, verified, tuple(witnesses))
