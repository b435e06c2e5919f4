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

What depends on fewer members than the subset is cached on the catalog,
on first use.  Per module value: each member's span in a trace or reject
there, and the trace or reject itself, keyed on the members of the subset
whose span is nonzero.  Per member index and layer span rows: the class of
a layer and of the quotient by it.  And, for the filtration search, per
module value: its (layer, quotient) splits in `all_submodules` order, which
the Serre closure's subquotient masks read too.  The trace/reject key is
exact, because a zero span adds nothing to a join; a span is computed only
when a subset holding its member asks, so nothing is computed that a join
over every member would not compute.  Chains stay on catalog members:
trace and reject commute with finite direct sums, so a step on a sum is the
sum of its summands' steps.  The oracles keep their algorithms and their
order of search; they still read neither the Hom-orthogonality perps nor
the lattice tables of `lattices`, which is what keeps them independent of
the enumeration they check.

``_fill`` is the one bitset fixpoint of every closure under extensions: the
Serre closure here, and the lattice path's torsion tables and Filt.  It adds
per member a mask of its own (here its subquotient classes, built once per
catalog), and per member pair the summands of its extension middle terms
(``_ext_rows``, shared with the kernel oracle's extension check).
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .catalog import Catalog, ModuleId
from .errors import NotTorsionFree, ShapeError
from .linalg import Mat, Subspace, _Frozen, _join, _reduced_rows, _slot_setters
from .rep import (
    Rep,
    SubRep,
    all_submodules,
    hom_basis,
    quotient,
    sub_to_rep,
)


class SubcatBits(_Frozen):
    """A subcategory of mod Lambda, encoded by its set of indecomposables."""

    __slots__ = ("catalog", "bits")

    def __init__(self, catalog: Catalog, bits: int):
        _bits_catalog(self, catalog)
        _bits_bits(self, bits)

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
        out, rest = [], self.bits
        while rest:
            low = rest & -rest
            out.append(low.bit_length() - 1)
            rest ^= low
        return tuple(out)

    def names(self) -> tuple[str, ...]:
        return tuple(self.catalog.names[i] for i in self.indices())

    def has(self, idx: int) -> bool:
        return bool((self.bits >> idx) & 1)

    def contains_id(self, mid: ModuleId) -> bool:
        """Is every summand of the sum ``mid`` a member."""
        return all((self.bits >> i) & 1 for i in mid)

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    @property
    def is_full(self) -> bool:
        return self.bits == (1 << self.catalog.n) - 1

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


def _contribution(cat: Catalog, i: int, m: Rep, kind: str) -> tuple:
    """What member i adds to the trace (kind tors) or reject (kind torf) in m, as a span tuple.

    Per vertex, the reduced rows spanning the columns of every basis map
    X_i -> m, or the rows of every basis map m -> X_i.
    """
    if kind == "tors":
        maps = [[c.transpose() for c in f.comps] for f in hom_basis(cat.indecs[i], m)]
    else:
        maps = [f.comps for f in hom_basis(m, cat.indecs[i])]
    return tuple(_reduced_rows(cat.algebra.p, (row for f in maps for row in f[v].rows))
                 for v in range(len(m.dims)))


class _Joins:
    """The join memo of one (kind, module) pair on a catalog.

    ``asked`` holds the members whose contribution has been computed;
    ``live`` those among them whose span is nonzero, with the spans in
    ``parts``.  ``layers`` maps a mask of live members to their layer.
    """

    __slots__ = ("asked", "live", "parts", "layers")

    def __init__(self):
        self.asked = self.live = 0
        self.parts: dict[int, tuple] = {}
        self.layers: dict[int, SubRep] = {}


def _layer(c: SubcatBits, m: Rep, kind: str) -> SubRep:
    """The trace (kind tors) or reject (kind torf) of C in m.

    Both come from the join of the members' spans (``linalg._join``): a
    trace is that span, and a reject is its annihilator per vertex, since the
    common kernel of maps f_x is the annihilator of the rows of the f_x.
    Memoized per catalog on (kind, m), keyed on the members of C whose span
    is nonzero, which is exact since a zero span adds nothing to the join.
    A member's span is computed the first time a subcategory containing it
    asks, so none is computed that joining over every member of C would not
    compute.
    """
    cat = c.catalog
    memo = cat._closure_memo.setdefault(("layer", kind), {})
    joins = memo.get(m)
    if joins is None:
        joins = memo[m] = _Joins()
    new = c.bits & ~joins.asked
    joins.asked |= new
    while new:
        low = new & -new
        new ^= low
        i = low.bit_length() - 1
        span = _contribution(cat, i, m, kind)
        if any(span):
            joins.live |= low
            joins.parts[i] = span
    key = c.bits & joins.live
    if key not in joins.layers:
        p = cat.algebra.p
        span = tuple(() for _ in m.dims)
        for i, part in joins.parts.items():
            if key >> i & 1:
                span = _join(p, span, part)
        mats = (Mat(p, len(rows), d, rows) for d, rows in zip(m.dims, span))
        joins.layers[key] = SubRep(m, tuple(
            Subspace(a.ncols, a) if kind == "tors" else Subspace.kernel_of(a) for a in mats))
    return joins.layers[key]


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
    """One chain step on an isomorphism class: (layer dims, next class).

    Trace and reject commute with finite direct sums, so the step adds up
    the layer dims of each summand and joins the summands' next classes:
    no sum is assembled or identified.
    """
    cat = c.catalog
    dims, nxt = (0,) * cat.algebra.n_vertices, []
    for k in mid:
        layer = _layer(c, cat.indecs[k], kind)
        dims = tuple(map(sum, zip(dims, layer.dims)))
        nxt += _layer_class(cat, k, layer, "quotient" if kind == "tors" else "sub")
    return dims, tuple(sorted(nxt))


def _layer_class(cat: Catalog, k: int, layer: SubRep, part: str) -> ModuleId:
    """The class of ``layer``, a submodule of member k (part "sub"), or of k modulo it ("quotient").

    Memoized per catalog and part on (k, the layer's span rows).
    """
    memo = cat._closure_memo.setdefault(f"{part}_classes", {})
    key = (k, layer.key())
    if key not in memo:
        memo[key] = (cat.identify_sub(layer) if part == "sub"
                     else cat.identify(quotient(layer.ambient, layer)[0]))
    return memo[key]


def _chain(c: SubcatBits, idx: int,
           kind: str) -> tuple[bool, list[tuple[ModuleId, tuple[int, ...]]]]:
    """The trace (kind tors) or reject (kind torf) chain of one catalog member.

    Returns whether it reaches zero, and each step's (class, layer dims); it
    stops short of zero at an empty trace, or at a reject that is everything.
    """
    steps = []
    mid: ModuleId = (idx,)
    while mid:
        layer_dims, nxt = _chain_next(c, mid, kind)
        steps.append((mid, layer_dims))
        if sum(layer_dims) == (0 if kind == "tors" else sum(c.catalog.dims_of(mid))):
            return False, steps
        mid = nxt
    return True, steps


def chain_certificate(c: SubcatBits, idx: int, kind: str) -> ChainCertificate:
    """Explicit chain for one catalog member, for audit output."""
    cat = c.catalog
    member, steps = _chain(c, idx, kind)
    return ChainCertificate(kind, (cat.names[idx],), member, tuple(
        ChainStep(tuple(sorted(cat.names[k] for k in mid)), dims) for mid, dims in steps))


def _chain_closure(c: SubcatBits, kind: str) -> SubcatBits:
    """The members whose trace (or reject) chain reaches zero."""
    return SubcatBits(c.catalog, sum(_chain(c, k, kind)[0] << k for k in range(c.catalog.n)))


def tors_closure(c: SubcatBits) -> SubcatBits:
    """Smallest torsion class containing C, by iterated trace quotients."""
    return _chain_closure(c, "tors")


def torf_closure(c: SubcatBits) -> SubcatBits:
    """Smallest torsion-free class containing C, by iterated rejects."""
    return _chain_closure(c, "torf")


# -- filtration oracle ------------------------------------------------------------------


def _splits(cat: Catalog, m: Rep) -> list[tuple[Rep, Rep]]:
    """(layer, quotient) per nonzero proper submodule, in all_submodules order.

    Memoized per catalog on the module value; a module over the submodule
    budget of all_submodules raises there, before anything is cached.
    """
    memo = cat._closure_memo.setdefault("filt_splits", {})
    if m not in memo:
        memo[m] = [
            (sub_to_rep(s)[0], quotient(m, s)[0])
            for s in all_submodules(m)
            if not (s.is_zero or s.is_full)
        ]
    return memo[m]


def filt_contains(cat: Catalog, pred: Callable[[Rep], bool], x: Rep,
                  _memo: Optional[dict] = None) -> bool:
    """Does x have a finite filtration whose layers satisfy pred?

    Literal filtration search over all submodules: true when x is zero, when
    pred(x) holds, or when some nonzero proper submodule satisfies pred and
    the quotient recursively passes.  pred must be isomorphism-invariant.
    Results are memoized per call on the module value; the search only
    descends in dimension.  The submodule splits are pred-independent and
    cached on the catalog; splitting a module over the submodule budget
    raises.
    """
    if _memo is None:
        _memo = {}
    if x.total_dim == 0:
        return True
    if x not in _memo:
        _memo[x] = True if pred(x) else any(
            pred(layer) and filt_contains(cat, pred, rest, _memo)
            for layer, rest in _splits(cat, x)
        )
    return _memo[x]


# -- Serre closure -----------------------------------------------------------------------


def _subquotient_mask(cat: Catalog, i: int) -> int:
    """Bits of i and of every class in the oracle's splits of indec_i, memoized on the catalog."""
    memo = cat._closure_memo.setdefault("subquotients", {})
    if i not in memo:
        found = {i}
        for layer, rest in _splits(cat, cat.indecs[i]):
            found.update(cat.identify(layer) + cat.identify(rest))
        memo[i] = sum(1 << k for k in found)
    return memo[i]


def _ext_rows(cat: Catalog) -> tuple[tuple[int, ...], ...]:
    """Bits of every summand of a middle term of an extension between i and j, either way."""
    memo = cat._closure_memo
    if "ext_rows" not in memo:
        def row(i: int) -> tuple[int, ...]:
            out = []
            for j in range(cat.n):
                bits = 0
                for mid in cat.ext_table[(i, j)] | cat.ext_table[(j, i)]:
                    for k in mid:
                        bits |= 1 << k
                out.append(bits)
            return tuple(out)

        memo["ext_rows"] = tuple(row(i) for i in range(cat.n))
    return memo["ext_rows"]


def _fill(rows: Sequence[Sequence[int]], bits: int,
          single: Optional[Callable[[int], int]] = None) -> int:
    """Least superset of bits holding single(k) per member k and rows[k][j] per member pair.

    rows must be symmetric.  Members are visited in index order, the lowest
    not yet visited first, including those an earlier visit added; each visit
    reads single(k) once and pairs k with itself and every member visited
    before it.  Pair closure suffices for extension closure, since an
    extension by direct sums refines into iterated extensions by summands.
    """
    done, seen = 0, []  # done is always a subset of bits
    while bits != done:
        rest = bits & ~done
        low = rest & -rest
        done |= low
        k = low.bit_length() - 1
        if single is not None:
            bits |= single(k)
        seen.append(k)
        row = rows[k]
        for j in seen:
            bits |= row[j]
    return bits


def serre_closure(c: SubcatBits) -> SubcatBits:
    """Least fixpoint adding subquotient classes and extension middle terms."""
    cat = c.catalog
    return SubcatBits(cat, _fill(_ext_rows(cat), c.bits, lambda k: _subquotient_mask(cat, k)))


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
        torsion_part = _layer_class(cat, k, tr, "sub")
        free_part = _layer_class(cat, k, tr, "quotient")
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
