"""The letter checks behind ``is_closed`` for wide, ice and ike: the bounded kernel oracle.

``lattices.is_closed`` imports this module on its first wide, ice or ike
check, so a process that only builds catalogs or enumerates families
through the lattice identities never loads it.  The checks, per closure
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
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .catalog import Catalog, ModuleId, mid_counts
from .closures import SubcatBits, fac_contains, sub_contains
from .errors import CapExceeded
from .linalg import _combine, _pivot_rows, _reduced_rows, pack_row
from .rep import direct_sum, flat_entries, kernel, morphism_from_coeffs, sub_to_rep

if TYPE_CHECKING:
    from .lattices import CheckConfig

KERNEL_ENUM_CAP = 1 << 16


def letter_violation(kind: str, s: SubcatBits, cfg: CheckConfig) -> Optional[str]:
    """The first failing check of a wide, ice or ike candidate, or None if all pass.

    Extensions first; then images for ice and ike, kernels for wide and
    ike, and cokernels for wide and ice.
    """
    witness = _ext_violation(s)
    if witness is None and kind in ("ice", "ike"):
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
