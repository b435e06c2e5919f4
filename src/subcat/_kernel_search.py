"""The letter checks behind ``is_closed`` for wide, ice, ike and ie: the bounded kernel oracle.

``lattices.is_closed`` imports this module on its first wide, ice, ike or
ie check, so a process that only builds catalogs or enumerates families
through the lattice identities never loads it.  ie is checked by its
definition, closure under images and extensions, so strategy
``bruteforce`` tests the source paper's theorem (IE-closed = T meet F)
against the lattice path instead of restating it.  The checks, per
closure condition:

* extensions: exact on indecomposable pairs via the extension table.
* images: exact with no caps.  The image of a map between sums of members
  is both a quotient of a sum (full trace) and a submodule of a sum (zero
  reject), and conversely any such module is an image, so closure under
  images reduces to a trace/reject test on each catalog indecomposable.
* kernels: decided by one step from the saturated seed; a walk names the
  witness.  Kernels of maps into a sum are iterated kernels of maps into
  single members, and a map from a member sum into X_b column-reduces
  (over the local endomorphism rings) to (v, 0) on C + R with C <= mu_b|s,
  at most mu(i, b) copies of each X_i.  Let C_b = sum over i in s of
  X_i^mu(i, b), the core of the saturated seed (saturation + 1 copies of
  each member) at b.  Then s is closed under kernels if and only if, for
  each b in s, every kernel of a nonzero map C_b -> X_b lies in add s: C is
  a summand of C_b, and ker(v, 0) on C_b is ker v + (C_b - C).  So every
  escape a walk finds, at any caps, shows up in the step, and every core
  a walk reaches lies below mu_b|s, so no walk meets a Hom budget the step
  passed.  When the step finds no escape, no walk runs.
  A step that escapes, or raises, runs the walk: a worklist over
  isomorphism classes from seeds within the configured caps, with each
  multiplicity capped at a sticky "many" value, which keeps every
  reachable kernel class.  A state is an int with one fixed-width count
  field per indecomposable, so the core split and the sticky cap are
  field-wise minimums and adding the surplus back is one addition; a state
  becomes a tuple only to print a witness.  The walk visits the frontier
  and each step's kernel classes in the order of their sorted index
  tuples; its first escape is the witness and its errors are the ones
  raised, so witnesses and exits do not depend on the step.  Every
  reported violation is a genuine kernel of a morphism between member
  sums.
  No kernel module is built on a complete catalog: Hom(X, -) is left
  exact, so dim Hom(X_k, ker v) = dim Hom(X_k, source) - rank(v o -), and
  the dimension vector is dim source_x - rank(v_x).  Both are ranks of
  joins of the summands' image spans, read off a per-catalog table of
  compositions of the Hom bases (``_pair_images``) and folded over the
  summands one at a time, and (dimension vector, Hom profile) decodes to
  the class through the catalog's ``_class_of``.  A catalog not marked
  complete builds each distinct kernel and identifies it through
  ``identify``, so a summand outside the catalog still raises UnknownModule.
* cokernels: the kernel search on the opposite catalog.

The mu bounds, which cap the copies of each indecomposable in the kernel
search, serve only this search: they are built on its first step and
memoized on the catalog, so enumeration never builds them.  Each bound
reads the End(X_i)-submodules of Hom(X_i, X_j), grown as joins of cyclic
submodules from 0 (``_join_closure``) rather than filtered out of every
subspace; End acts on coordinates read at the pivot columns of the reduced
row-echelon Hom basis, with no linear solve.
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .catalog import END_ENUM_CAP, Catalog, ModuleId, _nonunits
from .closures import SubcatBits, _ext_rows, fac_contains, sub_contains
from .errors import CapExceeded, SubcatError
from .linalg import Mat, Subspace, _combine, _join, _join_closure, _kron_rows, _reduced_rows
from .rep import _lines, direct_sum, flat_entries, kernel, morphism_from_coeffs

if TYPE_CHECKING:
    from .lattices import CheckConfig
    from .rep import Morphism, Rep

KERNEL_ENUM_CAP = 1 << 16


def letter_violation(kind: str, s: SubcatBits, cfg: CheckConfig) -> Optional[str]:
    """The first failing check of a wide, ice, ike or ie candidate, or None if all pass.

    Extensions first; then images for ice, ike and ie, kernels for wide and
    ike, and cokernels for wide and ice.
    """
    witness = _ext_violation(s)
    if witness is None and kind in ("ice", "ike", "ie"):
        witness = _image_violation(s)
    if witness is None and kind in ("wide", "ike"):
        witness = _kernel_violation(s, cfg)
    if witness is None and kind in ("wide", "ice"):
        witness = _cokernel_violation(s, cfg)
    return witness


def _mid_label(cat: Catalog, mid: ModuleId) -> str:
    if not mid:
        return "0"
    return " + ".join(cat.names[k] for k in mid)


# -- letter checks ------------------------------------------------------------------


def _ext_violation(s: SubcatBits) -> Optional[str]:
    """The first member pair, in index order, with an extension middle term outside s.

    One middle-term mask AND per member pair; only a pair whose mask leaves
    s scans its middle terms, to name the witness.
    """
    cat = s.catalog
    idxs = s.indices()
    rows, outside = _ext_rows(cat), ~s.bits
    for i in idxs:
        for j in idxs:
            if rows[i][j] & outside:
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


def _image(p: int, table: tuple, coeffs: Sequence[int]) -> tuple:
    """Per probe, the canonical span of the images of g∘- for g = sum c_t g_t.

    ``table`` is a pair's composition table (see _pair_images): per probe,
    one row per generator of Hom(probe, X_i), holding its images under the
    basis g_t of Hom(X_i, X_j).
    """
    if not any(coeffs):
        return tuple(() for _ in table)
    return tuple(_reduced_rows(p, [_combine(p, coeffs, gen) for gen in probe])
                 for probe in table)


def _pair_images(cat: Catalog, i: int, j: int) -> tuple[tuple, tuple]:
    """The composition table of Hom(X_i, X_j) and its distinct images, built on first use.

    The probes are the vertices x, then the catalog members X_k.  At vertex
    x the generators are the basis vectors of (X_i)_x, mapped to the columns
    of g_t at x; at member k they are the basis f of Hom(X_k, X_i), mapped to
    the packed entries of g_t∘f in Hom(X_k, X_j) (``_composites``).  The
    images come with the zero image first, one per distinct span tuple over
    all g in Hom(X_i, X_j).
    """
    memo = cat._closure_memo.setdefault("pair_images", {})
    if (i, j) not in memo:
        p = cat.algebra.p
        gs = cat.hom_pair_basis(i, j)
        columns = [[c.transpose().rows for c in g.comps] for g in gs]
        flats = [flat_entries(g) for g in gs]
        table = tuple(
            tuple(tuple(cols[x][e] for cols in columns) for e in range(d))
            for x, d in enumerate(cat.indecs[i].dims)
        ) + tuple(
            tuple(_composites(p, f, cat.indecs[j], flats) for f in cat.hom_pair_basis(k, i))
            for k in range(cat.n)
        )
        images = {_image(p, table, c): None for c in product(range(p), repeat=len(gs))}
        memo[(i, j)] = (table, tuple(images))
    return memo[(i, j)]


def _composites(p: int, f: Morphism, target: Rep, flats: Sequence[Sequence[int]]) -> tuple:
    """The packed entries of g∘f, for f: X -> Y and each g: Y -> target given by its entries.

    vec(g_x f_x) = (I kron f_x^T) vec g_x at each vertex x, so g∘f is one row
    combination of the rows of the block column I kron f_x.
    """
    offs, total = [], 0
    for d, e in zip(target.dims, f.source.dims):
        offs.append(total)
        total += d * e
    rows = _kron_rows(p, total, ([(1, d, c, off)] for d, c, off in zip(target.dims, f.comps, offs)
                                 if d and c.nrows))
    return tuple(_combine(p, g, rows) for g in flats)


def _kernel_classes(cat: Catalog, core: ModuleId, b: int) -> frozenset:
    """Kernel classes of all nonzero morphisms from the sum ``core`` into indec b.

    Hom(core, X_b) is the sum of Hom(X_i, X_b) over the summands, so
    v = (g_s) and the image of v∘- on Hom(probe, core) is the join of the
    images of the g_s∘-.  Those joins are folded one summand at a time over
    each summand's distinct image spans, and Hom(probe, -) is left exact, so
    dim Hom(probe, ker v) is dim Hom(probe, core) minus the join's rank; at
    vertex probes this is dims(ker v).  The dimension vector and Hom profile
    fix the class on a complete catalog.  v = 0 exactly when its join is
    zero, since a nonzero g has a nonzero column at some vertex probe.
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
    nv = cat.algebra.n_vertices
    sizes = [0] * (nv + cat.n)
    zero = tuple(() for _ in sizes)
    joins = {zero}
    for i in core:
        table, images = _pair_images(cat, i, b)
        sizes = [size + len(probe) for size, probe in zip(sizes, table)]
        joins = {_join(p, w, img) for w in joins for img in images}
    found = {tuple(size - len(rows) for size, rows in zip(sizes, w)) for w in joins if w != zero}
    classes = frozenset(cat._class_of(ks[:nv], ks[nv:]) for ks in found)
    if None in classes:
        return _materialized_kernel_classes(cat, core, b)
    return classes


def _materialized_kernel_classes(cat: Catalog, core: ModuleId, b: int) -> frozenset:
    """Build each distinct kernel and identify it.

    For catalogs not marked complete, where the profile does not fix the
    class and a summand outside the catalog must raise UnknownModule.
    """
    p = cat.algebra.p
    parts = direct_sum(cat.algebra, [cat.indecs[i] for i in core])
    basis = [g.compose(proj) for proj, i in zip(parts.projections, core)
             for g in cat.hom_pair_basis(i, b)]
    kernels: dict = {}
    for coeffs in product(range(p), repeat=len(basis)):
        if any(coeffs):
            ker = kernel(morphism_from_coeffs(basis, coeffs, parts.rep, cat.indecs[b]))
            kernels.setdefault(ker.key(), ker)
    return frozenset(cat.identify_sub(ker) for ker in kernels.values())


# -- mu bounds ----------------------------------------------------------------------


def _mu_tables(cat: Catalog) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The mu table and the saturation, built on the first kernel search of the catalog.

    The saturation of i is its largest mu bound into any catalog member, at
    least 1.
    """
    memo = cat._closure_memo
    if "mu" not in memo:
        n = cat.n
        mu = tuple(tuple(_mu_bound(cat, i, j) for j in range(n)) for i in range(n))
        memo["mu"] = (mu, tuple(max(1, max(row)) for row in mu))
    return memo["mu"]


def _mu_bound(cat: Catalog, i: int, j: int) -> int:
    """How many copies of indec_i a morphism into indec_j can need.

    Any map from indec_i^m into indec_j can be column-reduced by an
    automorphism of the source so that at most mu copies act nontrivially,
    where mu bounds the generator count of every End(indec_i)-submodule of
    Hom(indec_i, indec_j).  dim Hom is always a safe fallback.

    End acts on coordinate rows over the Hom basis (``_end_actions``).
    """
    homs = cat.hom_pair_basis(i, j)
    h = len(homs)
    if h <= 1:
        return h
    p = cat.algebra.p
    ebasis = cat.hom_pair_basis(i, i)
    de = len(ebasis)
    # de == 1: End is the field, so every subspace is a submodule and mu = h
    if de == 1 or de > 8 or h > 5 or p**de > 4096 or (p > 2 and h > 3):
        return h
    src = cat.indecs[i]
    nonunits = [coeffs for coeffs, _ in _nonunits(src, ebasis, END_ENUM_CAP, "radical")]
    rad = Subspace.span(p, de, nonunits)
    if p**rad.dim != len(nonunits) + 1:  # the non-units and 0 are not a subspace
        return h
    residue_dim = de - rad.dim
    rad_actions = _end_actions(p, homs, [
        morphism_from_coeffs(ebasis, rad.basis.row_entries(r), src, src) for r in range(rad.dim)])
    best = 1
    for w in _submodules(p, h, _end_actions(p, homs, ebasis)):
        if not w:
            continue
        wmat = Mat(p, len(w), h, w)
        over = len(w) - len(_reduced_rows(p, [v for act in rad_actions
                                               for v in wmat.mul(act).rows]))
        if over % residue_dim:
            return h
        best = max(best, over // residue_dim)
    return best


def _end_actions(p: int, homs: Sequence[Morphism], ends: Sequence[Morphism]) -> list[Mat]:
    """The right actions g -> g.e on the span of ``homs``, one matrix per e, in coordinates.

    Row t holds the coordinates of homs[t].e.  A Hom basis is in reduced
    row-echelon form over the flat entries of its maps, so those are the
    entries of homs[t].e at the basis's pivot columns, with no solve.
    """
    pivots = [next(k for k, x in enumerate(flat_entries(g)) if x) for g in homs]
    return [Mat.from_rows(p, [[row[k] for k in pivots]
                              for row in (flat_entries(g.compose(e)) for g in homs)],
                          ncols=len(homs))
            for e in ends]


def _submodules(p: int, h: int, actions: Sequence[Mat]) -> list[tuple]:
    """Every submodule of F_p^h under the algebra spanned by ``actions``, as RREF rows.

    The actions act on the right of row vectors, and their span contains the
    identity, so the cyclic submodule of v is the span of the v.a.  Each
    submodule is the join of the cyclic submodules of its vectors, and v and
    c*v generate the same one, so ``_join_closure`` grows the joins from 0 by
    the cyclic submodules of one vector per line.
    """
    cyclic = {}
    for v in _lines(p, h):
        row = Mat.from_rows(p, [v], h)
        cyclic[(_reduced_rows(p, [row.mul(act).rows[0] for act in actions]),)] = None
    return [w for (w,) in _join_closure(p, ((),), cyclic)]


# -- packed search states ---------------------------------------------------------------


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
        n, (mu, sat) = cat.n, _mu_tables(cat)
        dims = [m.total_dim for m in cat.indecs]
        core_dim = max(sum(mu[i][b] * dims[i] for i in range(n)) for b in range(n))
        width = (max(sat) + 1 + core_dim).bit_length() + 1
        unit = tuple(1 << k * width for k in range(n))
        memo["packing"] = _Packing(
            width, unit, sum(u << width - 1 for u in unit),
            tuple(sum(mu[i][b] * unit[i] for i in range(n)) for b in range(n)),
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
    (more are redundant for kernel classes) within the dimension cap: the
    seeds are the maximal nonzero multisets of this box, where every member
    is at its cap or no longer fits, and every nonzero multiset of the box
    lies below one of them.

    Only maximal seeds need exploring, because a state y below a state x
    (field-wise) finds no escape that x misses.  The core min(y, mu_b) lies
    below min(x, mu_b), so it is a summand of it, and a nonzero v from
    core(y) into X_b extends by zero to (v, 0) on core(x), with
    ker(v, 0) = ker v + (core(x) - core(y)).  Adding the surplus back gives
    the step from x the kernel class of the step from y plus x - y: its
    support contains the other's, so every escape from y is an escape from
    x, and after the sticky cap (a field-wise minimum) the state it reaches
    still lies above the one y reaches.  By induction on the steps to an
    escape, each escape reachable from y is reachable from x, and each state
    reachable from y lies below one reachable from x, whose Hom spaces into
    every target are at least as large, so y also meets no cap that x does
    not.  With x the saturated seed, this is why _top_step_escapes decides.
    """
    cat = s.catalog
    unit = _packing(cat).unit
    dims = [m.total_dim for m in cat.indecs]
    sat = _mu_tables(cat)[1]
    members = s.indices()
    caps = {i: min(cfg.mult_cap, sat[i] + 1) for i in members}
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


def _top_step_escapes(s: SubcatBits) -> bool:
    """Whether a kernel of a nonzero map from mu_b|s into some member X_b leaves s.

    mu_b|s, the packed mu_b masked to the fields of the members, is the core
    of the saturated seed at b; by the module docstring, this one step
    decides closure under kernels.
    """
    cat = s.catalog
    pk = _packing(cat)
    member_fields = sum(((1 << pk.width) - 1) << k * pk.width for k in s.indices())
    outside = ~s.bits
    return any(support & outside
               for b in s.indices() if pk.mu[b] & member_fields
               for _, support in _ordered_kernel_classes(cat, pk, pk.mu[b] & member_fields, b, -1))


def _escape(s: SubcatBits, cfg: CheckConfig) -> Optional[tuple]:
    """A kernel of a member-sum morphism outside s, as (state, b, kernel class), or None.

    Worklist over sticky-capped isomorphism classes, packed as ints; iterating
    single-target kernel steps covers kernels of maps into arbitrary member
    sums, since those are iterated kernels of the restrictions.  From a
    state, the core keeps min(mult, mu) copies per indecomposable; the
    remaining copies land in every kernel untouched and are added back.

    The walk visits the frontier and each step's kernel classes in the order
    of their sorted index tuples, which fixes the first witness.  It runs
    only where _top_step_escapes finds an escape or raises.
    """
    cat = s.catalog
    pk = _packing(cat)
    guards, sticky, shift, width = pk.guards, pk.sticky, pk.width - 1, pk.width
    outside = ~s.bits
    ordered = cat._closure_memo.setdefault("kerstep_packed", {})
    targets = [(b, pk.mu[b]) for b in s.indices()]
    frontier = sorted(_generator_states(s, cfg), key=pk.unpack)
    seen = set(frontier)
    while frontier:
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
                    return pk.unpack(state), b, pk.unpack(kid)
                # the sticky cap: per field min(kid, saturation + 1)
                ge = ((kid | guards) - sticky) & guards
                take = ge - (ge >> shift)
                capped = (sticky & take) | (kid & ~take)
                if capped and capped not in seen:
                    seen.add(capped)
                    frontier.append(capped)
    return None


def _kernel_violation(s: SubcatBits, cfg: CheckConfig, dual: bool = False) -> Optional[str]:
    """Search for a kernel of a member-sum morphism outside the subcategory.

    The step from the saturated seed settles the subsets with no escape; an
    escape, or any error on the way, runs the walk, whose first escape is
    the witness and whose errors are the ones raised.
    """
    if s.is_empty:
        return None
    cat = s.catalog
    memo = cat._closure_memo.setdefault(("kviol", cfg.mult_cap, cfg.dim_cap), {})
    if s.bits in memo:
        hit = memo[s.bits]
    else:
        try:
            refuted = _top_step_escapes(s)
        except SubcatError:
            refuted = True
        hit = _escape(s, cfg) if refuted else None
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
