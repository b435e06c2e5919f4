"""Subcategory families of the seven kinds, and the bounded class checkers.

Enumeration (``enumerate_family``, strategy ``auto``) is exact and derives
every family from lattice identities over bitset tables, built lazily per
catalog and cached on it.

On a catalog marked complete (it lists every indecomposable, as the
builtins do), serre, tors and torf are read off ``hom_dims`` and the vertex
supports alone:

* tors: NextClosure (Ganter) over tors(X) = perp-(X^perp).  In a length
  category (perp-(C^perp), C^perp) is the torsion pair generated by C, so
  each closure is two AND passes over zero-Hom row and column masks.
* torf: {T^perp : T a torsion class}, a bijection onto the torsion-free
  classes.
* serre: one member per set V of vertices, the indecomposables supported
  in V, since a Serre subcategory is fixed by its simples.

Elsewhere, and on every catalog for the other kinds:

* ``Q[i]`` = tors({i}) and ``S[i]`` = torf({i}), one trace/reject chain
  closure per indecomposable, and the extension table read as bit rows.
  Extension closure of a set of indecomposables is a bitset fixpoint over
  member pairs; pair closure suffices, since an extension by direct sums
  refines into iterated extensions by summands.
* serre: NextClosure over ``serre_closure``.
* tors, torf: NextClosure over tors(X) = Filt(union of Q[x]), since the join
  of torsion classes is Filt of their union; torf dually with ``S``.
* wide: {Filt(B) : B a semibrick} (Ringel 1976).  A brick has a division
  ring as endomorphism ring; a semibrick is a set of pairwise Hom-orthogonal
  bricks.
* ie: {T meet F} over torsion classes T and torsion-free classes F, the
  source paper's characterization of IE-closed subcategories.
* ice: {T meet W} and ike: {F meet W} over wide subcategories W
  (Enomoto-Sakai; every catalog in scope is tau-tilting finite).

The identities hold in the whole module category.  A user catalog that is
not marked complete therefore builds both chain tables first, which
identifies every trace quotient and reject of its members and raises
UnknownModule when one is missing.  The chain closures also stay behind
``closure``, ``is_closed``, strategy ``nextclosure`` and the verify oracles,
which keeps those independent of the perps.

``is_closed`` is the independent, bounded oracle, and strategy
``bruteforce`` filters all 2^n subsets through it.  Its checks, per closure
condition:

* extensions: exact on indecomposable pairs via the extension table.
* images: exact with no caps.  The image of a map between sums of members
  is both a quotient of a sum (full trace) and a submodule of a sum (zero
  reject), and conversely any such module is an image, so closure under
  images reduces to a trace/reject test on each catalog indecomposable.
* kernels: a worklist search over isomorphism classes.  Kernels of maps
  into a sum are iterated kernels of maps into single members, and a map
  from many copies of one indecomposable column-reduces (over its local
  endomorphism ring) so that at most mu copies act nontrivially; the
  per-class multiplicities are therefore capped, with a sticky "many"
  value, without shrinking the set of reachable kernel classes.  Every
  reported violation is a genuine kernel of a morphism between member
  sums.  Sources are seeded within the configured caps; absence of
  violations beyond every finite search is not decidable here, which the
  cap-robustness checks document.
  A search state is an int with one fixed-width count field per
  indecomposable, so the core split and the sticky cap are field-wise
  minimums and adding the surplus back is one addition; a state becomes a
  tuple only to print a witness.  The frontier and each step's kernel
  classes are still visited in the order of their sorted index tuples.
  No kernel module is built on a complete catalog: Hom(X, -) is left
  exact, so dim Hom(X_k, ker v) = dim Hom(X_k, source) - rank(v o -), and
  the dimension vector is dim source_x - rank(v_x).  Both ranks come from a
  per-catalog table of compositions of the Hom bases (``_pair_images``),
  and (dimension vector, Hom profile) decodes to the class.  A catalog not
  marked complete builds each distinct kernel and identifies it with that
  profile, so a summand outside the catalog still raises UnknownModule.
* cokernels: the kernel search on the opposite catalog.

serre, tors, torf and ie are decided exactly through the chain closure
operators and need none of the above.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .catalog import Catalog, ModuleId, is_brick, mid_counts
from .closures import (
    SubcatBits,
    fac_contains,
    serre_closure,
    sub_contains,
    torf_closure,
    tors_closure,
)
from .errors import CapExceeded, ShapeError
from .linalg import _Frozen, _combine, _pivot_rows, _slot_setters, pack_row
from .rep import direct_sum, flat_entries, kernel, morphism_from_coeffs, sub_to_rep

KINDS = ("serre", "tors", "torf", "wide", "ice", "ike", "ie")

INCLUSION_ARROWS = (
    ("serre", "tors"),
    ("serre", "torf"),
    ("serre", "wide"),
    ("torf", "ike"),
    ("tors", "ice"),
    ("wide", "ike"),
    ("wide", "ice"),
    ("ice", "ie"),
    ("ike", "ie"),
)

KERNEL_ENUM_CAP = 1 << 16


class CheckConfig(_Frozen):
    """Caps for the bounded morphism searches in wide/ice/ike checking."""

    __slots__ = ("mult_cap", "dim_cap")

    def __init__(self, mult_cap: int = 2, dim_cap: int = 16):
        if mult_cap < 1 or dim_cap < 1:
            raise ShapeError("caps must be at least 1")
        _cfg_mult_cap(self, mult_cap)
        _cfg_dim_cap(self, dim_cap)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.mult_cap == other.mult_cap and self.dim_cap == other.dim_cap

    def __hash__(self):
        return hash((self.mult_cap, self.dim_cap))

    def __repr__(self):
        return f"{type(self).__qualname__}(mult_cap={self.mult_cap!r}, dim_cap={self.dim_cap!r})"


_cfg_mult_cap, _cfg_dim_cap = _slot_setters(CheckConfig)


def _mid_label(cat: Catalog, mid: ModuleId) -> str:
    if not mid:
        return "0"
    return " + ".join(cat.names[k] for k in mid)


# -- letter checks ------------------------------------------------------------------


def _ext_violation(s: SubcatBits) -> Optional[str]:
    cat = s.catalog
    idxs = s.indices()
    for i in idxs:
        for j in idxs:
            for mid in cat.ext_table[(i, j)]:
                if not s.contains_id(mid):
                    return (
                        f"an extension of {cat.names[j]} by {cat.names[i]} has middle "
                        f"term {_mid_label(cat, mid)}"
                    )
    return None


def _image_violation(s: SubcatBits) -> Optional[str]:
    cat = s.catalog
    for k in range(cat.n):
        if s.has(k):
            continue
        x = cat.indecs[k]
        if fac_contains(s, x) and sub_contains(s, x):
            return (
                f"{cat.names[k]} is a quotient of a member sum and embeds into a "
                f"member sum, so it is an image of a morphism between members"
            )
    return None


def _canonical_span(p: int, vectors: Iterable) -> tuple:
    """The reduced echelon basis of the span, so equal spans give equal tuples."""
    piv = _pivot_rows(p, vectors)
    for t in sorted(piv, reverse=p != 2):
        row = piv[t]
        for s in piv:
            if p == 2 and s < t and (row >> s) & 1:
                row ^= piv[s]
            elif p != 2 and s > t and row[s]:
                c = row[s]
                row = tuple((a - c * b) % p for a, b in zip(row, piv[s]))
        piv[t] = row
    return tuple(piv[t] for t in sorted(piv))


def _image(p: int, table: tuple, coeffs: Sequence[int]) -> tuple:
    """Per probe, the canonical span of the images of g∘- for g = sum c_t g_t.

    ``table`` is a pair's composition table (see _pair_images): per probe,
    one row per generator of Hom(probe, X_i), holding its images under the
    basis g_t of Hom(X_i, X_j).
    """
    if not any(coeffs):
        return tuple(() for _ in table)
    return tuple(_canonical_span(p, [_combine(p, coeffs, gen) for gen in probe])
                 for probe in table)


def _pair_images(cat: Catalog, i: int, j: int) -> tuple[tuple, tuple]:
    """The composition table of Hom(X_i, X_j) and its distinct images, built on first use.

    The probes are the vertices x, then the catalog members X_k.  At vertex
    x the generators are the basis vectors of (X_i)_x, mapped to the columns
    of g_t at x; at member k they are the basis f of Hom(X_k, X_i), mapped to
    the packed entries of g_t∘f in Hom(X_k, X_j).  The images come with the
    zero image first, one per distinct span tuple over all g in Hom(X_i, X_j).
    """
    memo = cat._closure_memo.setdefault("pair_images", {})
    if (i, j) not in memo:
        p = cat.algebra.p
        gs = cat.hom_pair_basis(i, j)
        columns = [[c.transpose().rows for c in g.comps] for g in gs]
        table = tuple(
            tuple(tuple(cols[x][e] for cols in columns) for e in range(d))
            for x, d in enumerate(cat.indecs[i].dims)
        ) + tuple(
            tuple(tuple(pack_row(p, flat_entries(g.compose(f))) for g in gs)
                  for f in cat.hom_pair_basis(k, i))
            for k in range(cat.n)
        )
        images = {_image(p, table, c): None for c in product(range(p), repeat=len(gs))}
        memo[(i, j)] = (table, tuple(images))
    return memo[(i, j)]


def _kernel_sizes(p: int, sizes: Sequence[int], images: Sequence[tuple]) -> tuple[int, ...]:
    """dim Hom(probe, ker v) per probe, by left exactness of Hom(probe, -).

    Hom(probe, core) has dimension ``sizes``; v∘- maps it onto the sum of
    the summands' images.  At vertex probes this is dims(ker v).
    """
    return tuple(size - len(_pivot_rows(p, [vec for img in images for vec in img[q]]))
                 for q, size in enumerate(sizes))


def _core_sizes(cat: Catalog, tables: Sequence[tuple]) -> list[int]:
    """dim Hom(probe, core) per probe: the generator counts of the summands' tables."""
    return [sum(len(t[q]) for t in tables) for q in range(cat.algebra.n_vertices + cat.n)]


def _kernel_classes(cat: Catalog, core: ModuleId, b: int) -> frozenset:
    """Kernel classes of all nonzero morphisms from the sum ``core`` into indec b.

    Hom(core, X_b) is the sum of Hom(X_i, X_b) over the summands, so
    v = (g_s) and the image of v∘- on Hom(probe, core) is the sum of the
    images of the g_s∘-.  Those ranks give each kernel's dimension vector and
    Hom profile, which fix its class on a complete catalog; only distinct
    image spans per summand need visiting, and equal summands in any order.
    """
    p = cat.algebra.p
    dim = sum(cat.hom_dims[i][b] for i in core)
    if p ** dim > KERNEL_ENUM_CAP:
        raise CapExceeded(
            f"Hom({_mid_label(cat, core)}, {cat.names[b]}) of dimension "
            f"{dim} exceeds the kernel search budget"
        )
    if not cat.complete:
        return _materialized_kernel_classes(cat, core, b)
    tables = [_pair_images(cat, i, b)[0] for i in core]
    sizes = _core_sizes(cat, tables)
    picks = product(*(
        combinations_with_replacement(_pair_images(cat, i, b)[1], m)
        for i, m in mid_counts(core).items()
    ))
    found = set()
    for pick in picks:
        images = [img for group in pick for img in group]
        if any(any(img) for img in images):
            found.add(_kernel_sizes(p, sizes, images))
    nv = cat.algebra.n_vertices
    classes = set()
    for found_sizes in found:
        key = (found_sizes[:nv], found_sizes[nv:])
        if key not in cat._id_cache:
            mid = cat._decode(*key)
            if mid is None:
                return _materialized_kernel_classes(cat, core, b)
            cat._id_cache[key] = mid
        classes.add(cat._id_cache[key])
    return frozenset(classes)


def _materialized_kernel_classes(cat: Catalog, core: ModuleId, b: int) -> frozenset:
    """Build each distinct kernel and identify it, given its rank-computed profile.

    For catalogs not marked complete, where the profile does not fix the
    class and a summand outside the catalog must raise UnknownModule.
    """
    p = cat.algebra.p
    parts = direct_sum(cat.algebra, [cat.indecs[i] for i in core])
    gs = [cat.hom_pair_basis(i, b) for i in core]
    basis = [g.compose(proj) for proj, slot in zip(parts.projections, gs) for g in slot]
    tables = [_pair_images(cat, i, b)[0] for i in core]
    sizes = _core_sizes(cat, tables)
    kernels: dict = {}
    for coeffs in product(range(p), repeat=len(basis)):
        if any(coeffs):
            ker = kernel(morphism_from_coeffs(basis, coeffs, parts.rep, cat.indecs[b]))
            kernels.setdefault(ker.key(), (ker, coeffs))
    nv = cat.algebra.n_vertices
    classes = set()
    for ker, coeffs in kernels.values():
        if ker.total_dim == 0:
            classes.add(())
            continue
        images, start = [], 0
        for table, slot in zip(tables, gs):
            images.append(_image(p, table, coeffs[start:start + len(slot)]))
            start += len(slot)
        prof = _kernel_sizes(p, sizes, images)[nv:]
        classes.add(cat._identify_uncached(sub_to_rep(ker)[0], prof))
    return frozenset(classes)


class _Packing(NamedTuple):
    """Multisets of catalog indices as ints, one fixed-width count field per index.

    Index k takes bits [k * width, (k + 1) * width).  The top bit of each
    field is a guard that stays zero, so a field-wise compare never borrows
    from the next field.
    """

    width: int
    unit: tuple[int, ...]  # per index, a count of 1 in its field
    guards: int  # the guard bit of every field
    mu: tuple[int, ...]  # per target b, mu(i, b) in field i
    sticky: int  # saturation + 1 in every field

    def pack(self, mid: ModuleId) -> int:
        return sum(self.unit[k] for k in mid)

    def unpack(self, state: int) -> ModuleId:
        mask = (1 << self.width - 1) - 1
        return tuple(k for k in range(len(self.unit))
                     for _ in range(state >> k * self.width & mask))


def _packing(cat: Catalog) -> _Packing:
    """The packing of the kernel search, built on first use.

    A count in a search state is a seed count or a sticky-capped one, at
    most saturation + 1, plus, in a kernel of a map from the core into b,
    at most the total dimension of that core; the field holds their sum.
    """
    memo = cat._closure_memo
    if "packing" not in memo:
        n, sat = cat.n, cat.saturation
        dims = [m.total_dim for m in cat.indecs]
        core_dim = max(sum(cat.mu_bound(i, b) * dims[i] for i in range(n)) for b in range(n))
        width = (max(sat) + 1 + core_dim).bit_length() + 1
        unit = tuple(1 << k * width for k in range(n))
        memo["packing"] = _Packing(
            width, unit, sum(u << width - 1 for u in unit),
            tuple(sum(cat.mu_bound(i, b) * unit[i] for i in range(n)) for b in range(n)),
            sum((sat[k] + 1) * unit[k] for k in range(n)),
        )
    return memo["packing"]


def _ordered_kernel_classes(cat: Catalog, pk: _Packing, core: int, b: int, top: int) -> tuple:
    """(packed class, support bits) per kernel class of the maps from core into b.

    Ordered as the sorted index tuples of the classes plus a surplus whose
    largest index is ``top`` (-1: no surplus), and that order depends on
    the surplus through ``top`` alone.  Two such tuples first differ at the
    first index i where the classes differ; the one with more copies of i
    is smaller unless nothing follows i in the other, that is, unless the
    other class and the surplus both stop at or before i.
    """
    mid = pk.unpack(core)
    classes = cat._closure_memo.setdefault("kerstep", {})
    if (mid, b) not in classes:
        classes[(mid, b)] = _kernel_classes(cat, mid, b)
    tail = (top,) if top >= 0 else ()
    return tuple(
        (pk.pack(kid), sum(1 << k for k in set(kid)))
        for kid in sorted(classes[(mid, b)], key=lambda kid: tuple(sorted(kid + tail)))
    )


def _generator_states(s: SubcatBits, cfg: CheckConfig) -> list[int]:
    """Dominance-maximal seed multisets on the members, packed.

    A seed takes at most min(mult_cap, saturation + 1) copies of each member
    (more are redundant for kernel classes) within the dimension cap.  A seed
    below another (entrywise) only produces kernel classes that ride along
    inside the larger seed's search with surplus summands attached, so only
    maximal seeds need exploring: every member is at its cap or no longer fits.
    """
    cat = s.catalog
    unit = _packing(cat).unit
    dims = [m.total_dim for m in cat.indecs]
    caps = [min(cfg.mult_cap, cat.saturation[i] + 1) for i in range(cat.n)]
    members = s.indices()
    rest = [sum(caps[i] * dims[i] for i in members[t:]) for t in range(len(members) + 1)]
    gens = []

    def rec(t: int, used: int, state: int, need: int) -> None:
        # need: the least dimension of a member left below its cap so far
        if used + rest[t] + need <= cfg.dim_cap:
            return  # that member would still fit in every completion
        if t == len(members):
            if used:
                gens.append(state)
            return
        i = members[t]
        for m in range(caps[i] + 1):
            total = used + m * dims[i]
            if total > cfg.dim_cap:
                break
            rec(t + 1, total, state + m * unit[i], need if m == caps[i] else min(need, dims[i]))

    rec(0, 0, 0, cfg.dim_cap + 1)
    return gens


def _kernel_violation(s: SubcatBits, cfg: CheckConfig, dual: bool = False) -> Optional[str]:
    """Search for a kernel of a member-sum morphism outside the subcategory.

    Worklist over sticky-capped isomorphism classes, packed as ints; iterating
    single-target kernel steps covers kernels of maps into arbitrary member
    sums, since those are iterated kernels of the restrictions.  From a
    state, the core keeps min(mult, mu) copies per indecomposable; the
    remaining copies land in every kernel untouched and are added back.
    The frontier and each step's kernel classes are visited in the order of
    their sorted index tuples, which fixes the first witness.
    """
    if s.is_empty:
        return None
    cat = s.catalog
    memo = cat._closure_memo.setdefault(("kviol", cfg.mult_cap, cfg.dim_cap), {})
    if s.bits in memo:
        hit = memo[s.bits]
    else:
        hit = None
        pk = _packing(cat)
        guards, sticky, shift, width = pk.guards, pk.sticky, pk.width - 1, pk.width
        outside = ~s.bits
        ordered = cat._closure_memo.setdefault("kerstep_packed", {})
        targets = [(b, pk.mu[b]) for b in s.indices()]
        frontier = sorted(_generator_states(s, cfg), key=pk.unpack)
        seen = set(frontier)
        while frontier and hit is None:
            state = frontier.pop()
            for b, mu in targets:
                # per field min(state, mu): take mu where the guard survives state - mu
                ge = ((state | guards) - mu) & guards
                take = ge - (ge >> shift)
                core = (mu & take) | (state & ~take)
                if not core:
                    continue  # Hom(state, X_b) = 0: no nonzero morphism
                surplus = state - core
                # the largest index in the surplus (-1 for none) fixes the class order
                key = (core, b, (surplus.bit_length() - 1) // width)
                classes = ordered.get(key)
                if classes is None:
                    classes = ordered[key] = _ordered_kernel_classes(cat, pk, *key)
                for kc, support in classes:
                    kid = kc + surplus
                    if support & outside:
                        hit = (pk.unpack(state), b, pk.unpack(kid))
                        break
                    # the sticky cap: per field min(kid, saturation + 1)
                    ge = ((kid | guards) - sticky) & guards
                    take = ge - (ge >> shift)
                    capped = (sticky & take) | (kid & ~take)
                    if capped and capped not in seen:
                        seen.add(capped)
                        frontier.append(capped)
                if hit is not None:
                    break
        memo[s.bits] = hit
    if hit is None:
        return None
    state, b, kid = hit
    if dual:
        return (
            f"a morphism {cat.names[b]} -> {_mid_label(cat, state)} between member sums "
            f"has cokernel {_mid_label(cat, kid)}, outside the subcategory"
        )
    return (
        f"a morphism {_mid_label(cat, state)} -> {cat.names[b]} between member sums "
        f"has kernel {_mid_label(cat, kid)}, outside the subcategory"
    )


def _cokernel_violation(s: SubcatBits, cfg: CheckConfig) -> Optional[str]:
    """Cokernels are kernels in the opposite catalog (same index order)."""
    op = s.catalog.opposite()
    return _kernel_violation(SubcatBits(op, s.bits), cfg, dual=True)


# -- is_closed ------------------------------------------------------------------------


_CLOSURES = {"serre": serre_closure, "tors": tors_closure, "torf": torf_closure}


def is_closed(kind: str, s: SubcatBits, cfg: Optional[CheckConfig] = None) -> tuple[bool, Optional[str]]:
    """Is the subcategory closed for the given kind; if not, why not.

    serre/tors/torf/ie are decided exactly through closure operators; the
    wide/ice/ike letter checks combine the exact extension and image tests
    with the bounded kernel/cokernel search.
    """
    cfg = cfg or CheckConfig()
    if kind not in KINDS:
        raise ShapeError(f"unknown subcategory kind {kind!r}")
    if kind in _CLOSURES:
        closed = _CLOSURES[kind](s)
        if closed.bits != s.bits:
            return False, f"closure adds {_added_names(s, closed)}"
        return True, None
    if kind == "ie":
        meet = tors_closure(s).intersect(torf_closure(s))
        if meet.bits != s.bits:
            return False, (
                f"the torsion and torsion-free closures meet in {meet.label()}, "
                f"not {s.label()}"
            )
        return True, None
    checks: list[Callable[[], Optional[str]]] = [lambda: _ext_violation(s)]
    if kind in ("ice", "ike"):
        checks.append(lambda: _image_violation(s))
    if kind in ("wide", "ike"):
        checks.append(lambda: _kernel_violation(s, cfg))
    if kind in ("wide", "ice"):
        checks.append(lambda: _cokernel_violation(s, cfg))
    for check in checks:
        witness = check()
        if witness is not None:
            return False, witness
    return True, None


def _added_names(s: SubcatBits, closed: SubcatBits) -> str:
    extra = [s.catalog.names[i] for i in closed.indices() if not s.has(i)]
    return "{" + ", ".join(extra) + "}"


# -- families -------------------------------------------------------------------------


class Family(_Frozen):
    """All subcategories of one kind over a catalog, sorted by (size, bitset)."""

    __slots__ = ("kind", "catalog", "members", "config", "_bitsets")

    def __init__(self, kind: str, catalog: Catalog, members: tuple[SubcatBits, ...],
                 config: Optional[CheckConfig] = None):
        _fam_kind(self, kind)
        _fam_catalog(self, catalog)
        _fam_members(self, members)
        _fam_config(self, CheckConfig() if config is None else config)
        _fam_bitsets(self, None)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind == other.kind and self.catalog == other.catalog
                and self.members == other.members and self.config == other.config)

    def __hash__(self):
        return hash((self.kind, self.catalog, self.members, self.config))

    def __repr__(self):
        return (f"{type(self).__qualname__}(kind={self.kind!r}, catalog={self.catalog!r}, "
                f"members={self.members!r}, config={self.config!r})")

    @property
    def count(self) -> int:
        return len(self.members)

    def bitsets(self) -> frozenset[int]:
        """The members' bitsets, built on the first call."""
        if self._bitsets is None:
            _fam_bitsets(self, frozenset(m.bits for m in self.members))
        return self._bitsets

    def member_names(self) -> list[tuple[str, ...]]:
        return [m.names() for m in self.members]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "count": self.count,
            "members": [list(m.names()) for m in self.members],
            "checker_config": {
                "mult_cap": self.config.mult_cap,
                "dim_cap": self.config.dim_cap,
            },
        }


_fam_kind, _fam_catalog, _fam_members, _fam_config, _fam_bitsets = _slot_setters(Family)


def _sorted_members(cat: Catalog, bitsets: Iterable[int]) -> tuple[SubcatBits, ...]:
    ordered = sorted(set(bitsets), key=lambda b: (bin(b).count("1"), b))
    return tuple(SubcatBits(cat, b) for b in ordered)


def _closure_operator(kind: str, cat: Catalog) -> Callable[[int], int]:
    op = _CLOSURES[kind]
    return lambda bits: op(SubcatBits(cat, bits)).bits


def _next_closure_enum(cl: Callable[[int], int], n: int) -> list[int]:
    """All closed bitsets in lectic order (Ganter's algorithm)."""
    out = []
    current = cl(0)
    out.append(current)
    while True:
        a = current
        nxt = None
        for i in reversed(range(n)):
            if (a >> i) & 1:
                a &= ~(1 << i)
            else:
                b = cl(a | (1 << i))
                if b & ((1 << i) - 1) & ~a == 0:
                    nxt = b
                    break
        if nxt is None:
            return out
        out.append(nxt)
        current = nxt


# -- exact lattice path ------------------------------------------------------------------


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


def _ext_closure(rows: tuple[tuple[int, ...], ...], bits: int) -> int:
    """Least superset closed under summands of middle terms between its members."""
    done = 0
    paired: list[int] = []
    while bits != done:
        k = (bits & ~done).bit_length() - 1
        done |= 1 << k
        paired.append(k)
        row = rows[k]
        for j in paired:
            bits |= row[j]
    return bits


def _singleton_closures(cat: Catalog, kind: str) -> tuple[int, ...]:
    """Q (kind tors) or S (kind torf): the chain closure of each indecomposable."""
    key = ("singletons", kind)
    if key not in cat._closure_memo:
        op = tors_closure if kind == "tors" else torf_closure
        cat._closure_memo[key] = tuple(op(SubcatBits(cat, 1 << i)).bits for i in range(cat.n))
    return cat._closure_memo[key]


def _table_closure(cat: Catalog, kind: str, bits: int) -> int:
    """tors or torf closure as Filt of the union of the singleton closures."""
    single = _singleton_closures(cat, kind)
    union = 0
    for i in SubcatBits(cat, bits).indices():
        union |= single[i]
    return _ext_closure(_ext_rows(cat), union)


def _perp_masks(cat: Catalog) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per indecomposable x: the y with Hom(x, y) = 0, and the y with Hom(y, x) = 0."""
    memo = cat._closure_memo
    if "perp_masks" not in memo:
        n, h = cat.n, cat.hom_dims
        memo["perp_masks"] = (
            tuple(sum(1 << y for y in range(n) if not h[x][y]) for x in range(n)),
            tuple(sum(1 << y for y in range(n) if not h[y][x]) for x in range(n)),
        )
    return memo["perp_masks"]


def _perp(masks: tuple[int, ...], bits: int) -> int:
    """AND of the masks of the set bits: X^perp with the row masks, perp-X with the columns."""
    out = (1 << len(masks)) - 1
    while bits:
        low = bits & -bits
        out &= masks[low.bit_length() - 1]
        bits ^= low
    return out


def _perp_operator(cat: Catalog, kind: str) -> Callable[[int], int]:
    """tors(X) = perp-(X^perp), or torf(X) = (perp-X)^perp, on a complete catalog."""
    rows, cols = _perp_masks(cat)
    first, second = (rows, cols) if kind == "tors" else (cols, rows)
    return lambda bits: _perp(second, _perp(first, bits))


def _semibricks(cat: Catalog) -> list[int]:
    """Every set of pairwise Hom-orthogonal bricks, as bitsets (the empty one too)."""
    bricks = [k for k in range(cat.n) if cat.hom_dims[k][k] == 1 or is_brick(cat.indecs[k])]
    orth = {
        i: sum(1 << j for j in bricks
               if j != i and cat.hom_dims[i][j] == 0 and cat.hom_dims[j][i] == 0)
        for i in bricks
    }
    out = []

    def grow(chosen: int, candidates: int) -> None:
        out.append(chosen)
        for k in SubcatBits(cat, candidates).indices():
            grow(chosen | (1 << k), candidates & orth[k] & ~((2 << k) - 1))

    grow(0, sum(1 << k for k in bricks))
    return out


_MEETS = {"ice": ("tors", "wide"), "ike": ("torf", "wide"), "ie": ("tors", "torf")}


def _lattice_bitsets(cat: Catalog, kind: str) -> frozenset[int]:
    """The family of one kind from the lattice identities, memoized on the catalog."""
    memo = cat._closure_memo.setdefault("families", {})
    if kind in memo:
        return memo[kind]
    if kind != "serre" and not cat.complete:
        # completeness probe: identifies every trace quotient and reject of members
        _singleton_closures(cat, "tors")
        _singleton_closures(cat, "torf")
    if cat.complete and kind == "serre":
        support = [sum(1 << v for v, d in enumerate(m.dims) if d) for m in cat.indecs]
        bitsets = {sum(1 << k for k, sup in enumerate(support) if not sup & ~vs)
                   for vs in range(1 << cat.algebra.n_vertices)}
    elif cat.complete and kind == "tors":
        bitsets = _next_closure_enum(_perp_operator(cat, "tors"), cat.n)
    elif cat.complete and kind == "torf":
        rows = _perp_masks(cat)[0]
        bitsets = [_perp(rows, t) for t in _lattice_bitsets(cat, "tors")]
    elif kind == "serre":
        bitsets = _next_closure_enum(_closure_operator("serre", cat), cat.n)
    elif kind in ("tors", "torf"):
        bitsets = _next_closure_enum(lambda bits: _table_closure(cat, kind, bits), cat.n)
    elif kind == "wide":
        rows = _ext_rows(cat)
        bitsets = [_ext_closure(rows, b) for b in _semibricks(cat)]
    else:
        left, right = _MEETS[kind]
        rights = _lattice_bitsets(cat, right)
        bitsets = {a & b for a in _lattice_bitsets(cat, left) for b in rights}
    memo[kind] = frozenset(bitsets)
    return memo[kind]


def enumerate_family(cat: Catalog, kind: str, strategy: str = "auto",
                     cfg: Optional[CheckConfig] = None) -> Family:
    """Enumerate all subcategories of one kind.

    ``auto`` derives the family exactly from the lattice tables (see the
    module docstring).  ``nextclosure`` walks the closed sets of the chain
    closure operators and is valid for serre/tors/torf only; ``bruteforce``
    filters all 2^n subsets through the bounded checker is_closed.  All
    strategies return identical families; the other two are its oracles.
    """
    cfg = cfg or CheckConfig()
    if kind not in KINDS:
        raise ShapeError(f"unknown subcategory kind {kind!r}")
    if strategy == "auto":
        bitsets = _lattice_bitsets(cat, kind)
    elif strategy == "nextclosure":
        if kind not in ("serre", "tors", "torf"):
            raise ShapeError(f"nextclosure needs an exact closure operator; {kind} has none")
        bitsets = _next_closure_enum(_closure_operator(kind, cat), cat.n)
    elif strategy == "bruteforce":
        bitsets = [b for b in range(1 << cat.n) if is_closed(kind, SubcatBits(cat, b), cfg)[0]]
    else:
        raise ShapeError(f"unknown strategy {strategy!r}")
    return Family(kind, cat, _sorted_members(cat, bitsets), cfg)


def enumerate_ie_by_intersection(cat: Catalog, cfg: Optional[CheckConfig] = None) -> Family:
    """All pairwise intersections of torsion classes with torsion-free classes."""
    return enumerate_family(cat, "ie", "auto", cfg)


# -- Hasse diagrams ---------------------------------------------------------------------


class HasseDiagram(NamedTuple):
    """Cover relation of a family under inclusion; edges are (lower, upper)."""

    family: Family
    nodes: tuple[SubcatBits, ...]
    edges: tuple[tuple[int, int], ...]


def hasse(family: Family) -> HasseDiagram:
    nodes = family.members
    bits = [m.bits for m in nodes]
    edges = []
    for i, low in enumerate(bits):
        for j, high in enumerate(bits):
            if low == high or (low & ~high):
                continue
            if any(k != i and k != j and (low & ~bits[k]) == 0 and (bits[k] & ~high) == 0
                   for k in range(len(bits))):
                continue
            edges.append((i, j))
    edges.sort(key=lambda e: (e[1], e[0]))
    return HasseDiagram(family, nodes, tuple(edges))


def hasse_to_dot(diagram: HasseDiagram) -> str:
    """DOT text, one node per member, edges drawn upper to lower."""
    lines = ["digraph hasse {"]
    lines.append('  rankdir=TB;')
    lines.append('  node [shape=none];')
    for i, node in enumerate(diagram.nodes):
        lines.append(f'  n{i} [label="{node.label()}"];')
    for low, high in diagram.edges:
        lines.append(f"  n{high} -> n{low};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- relations report ----------------------------------------------------------------------


class RelationsReport(NamedTuple):
    """Families of all seven kinds plus the inclusion and coincidence facts."""

    catalog_label: str
    families: dict[str, Family]
    inclusions: list[tuple[str, str, bool]]
    coincidence_groups: list[list[str]]
    all_pairwise_distinct: bool
    commutative: bool
    commutative_collapse: Optional[list[tuple[str, bool]]]

    def all_inclusions_hold(self) -> bool:
        return all(ok for _, _, ok in self.inclusions)

    def passed(self) -> bool:
        ok = self.all_inclusions_hold()
        if self.commutative_collapse is not None:
            ok = ok and all(flag for _, flag in self.commutative_collapse)
        return ok

    def table_text(self) -> str:
        rows = []
        for kind in KINDS:
            fam = self.families[kind]
            members = ", ".join(m.label() for m in fam.members)
            rows.append((kind, members, str(fam.count)))
        w0 = max(len(r[0]) for r in rows + [("Classes", "", "")])
        w1 = max(len(r[1]) for r in rows + [("", "Lists of subcategories", "")])
        lines = [f"{'Classes'.ljust(w0)} | {'Lists of subcategories'.ljust(w1)} | Numbers"]
        lines.append("-" * len(lines[0]))
        for kind, members, count in rows:
            lines.append(f"{kind.ljust(w0)} | {members.ljust(w1)} | {count}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "catalog": self.catalog_label,
            "families": {k: f.to_json() for k, f in self.families.items()},
            "inclusions": [
                {"from": a, "to": b, "holds": ok} for a, b, ok in self.inclusions
            ],
            "coincidence_groups": self.coincidence_groups,
            "all_pairwise_distinct": self.all_pairwise_distinct,
            "commutative": self.commutative,
            "commutative_collapse": (
                None
                if self.commutative_collapse is None
                else [{"check": name, "holds": ok} for name, ok in self.commutative_collapse]
            ),
        }


def algebra_is_obviously_commutative(cat: Catalog) -> bool:
    """Single vertex with at most one loop; the only commutative builtins."""
    alg = cat.algebra
    return alg.n_vertices == 1 and len(alg.arrows) <= 1


def relations_report(cat: Catalog, cfg: Optional[CheckConfig] = None,
                     label: str = "") -> RelationsReport:
    """Enumerate every family and verify the inclusion diagram on it."""
    cfg = cfg or CheckConfig()
    families = {kind: enumerate_family(cat, kind, "auto", cfg) for kind in KINDS}
    inclusions = []
    for a, b in INCLUSION_ARROWS:
        inclusions.append((a, b, families[a].bitsets() <= families[b].bitsets()))
    groups: list[list[str]] = []
    for kind in KINDS:
        for group in groups:
            if families[group[0]].bitsets() == families[kind].bitsets():
                group.append(kind)
                break
        else:
            groups.append([kind])
    distinct = len(groups) == len(KINDS)
    commutative = algebra_is_obviously_commutative(cat)
    collapse = None
    if commutative:
        collapse = [
            ("serre = tors = wide = ice", all(
                families[k].bitsets() == families["serre"].bitsets()
                for k in ("tors", "wide", "ice")
            )),
            ("torf = ike = ie", all(
                families[k].bitsets() == families["torf"].bitsets() for k in ("ike", "ie")
            )),
        ]
    return RelationsReport(
        catalog_label=label,
        families=families,
        inclusions=inclusions,
        coincidence_groups=groups,
        all_pairwise_distinct=distinct,
        commutative=commutative,
        commutative_collapse=collapse,
    )
