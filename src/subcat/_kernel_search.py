"""The letter checks behind ``is_closed`` for wide, ice, ike and ie: the kernel oracle.

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
* kernels: decided by one step, which also names the witness.  Kernels of
  maps into a sum are iterated kernels of maps into single members, and a
  map from a member sum into X_b column-reduces (over the local
  endomorphism rings) to (v, 0) on C + R with C <= mu_b|s, at most
  mu(i, b) copies of each X_i.  Let C_b = mu_b|s, the core at b: the sum
  over i in s of X_i^mu(i, b).  Then s is closed under kernels if and only
  if, for each b in s, every kernel of a nonzero map C_b -> X_b lies in
  add s: C is a summand of C_b, and ker(v, 0) on C_b is ker v + (C_b - C).
  So the step reads the kernel classes of the maps C_b -> X_b, member by
  member in index order, and its first class outside s is the witness, a
  genuine kernel of a morphism between member sums.  No configured cap
  enters: the only bound is the walk budget ``linalg.COEFF_WALK_BUDGET`` on
  the (p^dim - 1)/(p - 1) lines of Hom(C_b, X_b), and a step over it raises.
  No kernel module is built on a complete catalog: Hom(X, -) is left
  exact, so dim Hom(X_k, ker v) = dim Hom(X_k, source) - rank(v o -), and
  the dimension vector is dim source_x - rank(v_x).  Both are ranks of
  joins of the summands' image spans, read off a per-pair table of
  compositions of the Hom bases and the join closure of its images
  (``_pair_lattice``), folded once per distinct summand over the joins its
  copies reach, and (dimension vector, Hom profile) decodes to the class
  through the catalog's ``_class_of``; a kernel that does not decode there
  belies the catalog's completeness and raises UnknownModule.
  A catalog not marked complete builds each distinct kernel and identifies
  it through ``identify``, so a summand outside the catalog still raises
  UnknownModule.
* cokernels: the kernel step on the opposite catalog.

The mu bounds, which cap the copies of each indecomposable in the kernel
step, serve only this step: each is read when a step first takes its pair,
so enumeration never builds them.  mu(i, j) is the depth of the very join
closure the step folds: the joins of the pair's images are the
End(X_i)-submodules of Hom(X_i, X_j), and the depth of each from 0
(``_join_closure``) is its generator count, with no End-ring arithmetic and
no fallback.  Building a pair's lattice walks one map per line of its Hom,
since c*g has the image spans and the kernel of g, and counts those lines
against the same budget first.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .catalog import Catalog, ModuleId
from .closures import SubcatBits, _ext_rows, fac_contains, sub_contains
from .errors import UnknownModule
from .linalg import _coeff_walk, _combine, _join, _join_closure, _kron_rows, _reduced_rows
from .rep import direct_sum, flat_entries, kernel, morphism_from_coeffs

if TYPE_CHECKING:
    from .rep import Morphism, Rep


def letter_violation(kind: str, s: SubcatBits) -> Optional[str]:
    """The first failing check of a wide, ice, ike or ie candidate, or None if all pass.

    Extensions first; then images for ice, ike and ie, kernels for wide and
    ike, and cokernels for wide and ice.
    """
    witness = _ext_violation(s)
    if witness is None and kind in ("ice", "ike", "ie"):
        witness = _image_violation(s)
    if witness is None and kind in ("wide", "ike"):
        witness = _kernel_violation(s)
    if witness is None and kind in ("wide", "ice"):
        witness = _cokernel_violation(s)
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

    ``table`` is a pair's composition table (see _pair_lattice): per probe,
    one row per generator of Hom(probe, X_i), holding its images under the
    basis g_t of Hom(X_i, X_j).
    """
    return tuple(_reduced_rows(p, [_combine(p, coeffs, gen) for gen in probe])
                 for probe in table)


def _pair_lattice(cat: Catalog, i: int, j: int) -> tuple[tuple, dict[tuple, int]]:
    """The composition table of Hom(X_i, X_j) and the join closure of its images, on first use.

    The probes are the vertices x, then the catalog members X_k.  At vertex
    x the generators are the basis vectors of (X_i)_x, mapped to the columns
    of g_t at x; at member k they are the basis f of Hom(X_k, X_i), mapped to
    the packed entries of g_t∘f in Hom(X_k, X_j) (``_composites``).  The
    images are taken over one g per line of Hom(X_i, X_j), and each join of
    them maps to its depth, the fewest images that reach it, the zero image
    at depth 0.  Raises CapExceeded before the walk when those lines exceed
    the budget; a core holding X_i could not pass the step's own check then.
    """
    memo = cat._closure_memo.setdefault("pair_lattice", {})
    if (i, j) not in memo:
        p = cat.algebra.p
        gs = cat.hom_pair_basis(i, j)
        walk = _hom_walk(cat, (i,), j, len(gs))
        columns = [[c.transpose().rows for c in g.comps] for g in gs]
        flats = [flat_entries(g) for g in gs]
        table = tuple(
            tuple(tuple(cols[x][e] for cols in columns) for e in range(d))
            for x, d in enumerate(cat.indecs[i].dims)
        ) + tuple(
            tuple(_composites(p, f, cat.indecs[j], flats) for f in cat.hom_pair_basis(k, i))
            for k in range(cat.n)
        )
        images = dict.fromkeys(_image(p, table, c) for c in walk)
        memo[(i, j)] = (table, _join_closure(p, tuple(() for _ in table), images))
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
    images of the g_s∘-.  The m copies of a member i contribute exactly the
    joins of depth at most m in its pair lattice, so the joins are folded
    once per distinct member over those.  Hom(probe, -) is left exact, so
    dim Hom(probe, ker v) is dim Hom(probe, core) minus the join's rank; at
    vertex probes this is dims(ker v).  The dimension vector and Hom profile
    fix the class on a complete catalog.  v = 0 exactly when its join is
    zero, since a nonzero g has a nonzero column at some vertex probe.
    """
    p = cat.algebra.p
    _hom_walk(cat, core, b, sum(cat.hom_dims[i][b] for i in core))  # the step's one bound
    if not cat.complete:
        return _materialized_kernel_classes(cat, core, b)
    nv = cat.algebra.n_vertices
    sizes = [0] * (nv + cat.n)
    zero = tuple(() for _ in sizes)
    joins = {zero}
    for i in dict.fromkeys(core):
        copies = core.count(i)
        table, lattice = _pair_lattice(cat, i, b)
        sizes = [size + copies * len(probe) for size, probe in zip(sizes, table)]
        reached = [w for w, depth in lattice.items() if depth <= copies]
        joins = {_join(p, w, c) for w in joins for c in reached}
    found = {tuple(size - len(rows) for size, rows in zip(sizes, w)) for w in joins if w != zero}
    classes = frozenset(cat._class_of(ks[:nv], ks[nv:]) for ks in found)
    if None in classes:
        raise UnknownModule(
            f"a kernel of a morphism {_mid_label(cat, core)} -> {cat.names[b]} does not "
            f"decode to a sum of catalog members, though the catalog is marked complete"
        )
    return classes


def _materialized_kernel_classes(cat: Catalog, core: ModuleId, b: int) -> frozenset:
    """Build each distinct kernel and identify it.

    For catalogs not marked complete, where the profile does not fix the
    class and a summand outside the catalog must raise UnknownModule.
    """
    parts = direct_sum(cat.algebra, [cat.indecs[i] for i in core])
    basis = [g.compose(proj) for proj, i in zip(parts.projections, core)
             for g in cat.hom_pair_basis(i, b)]
    kernels: dict = {}
    for coeffs in _hom_walk(cat, core, b, len(basis)):
        ker = kernel(morphism_from_coeffs(basis, coeffs, parts.rep, cat.indecs[b]))
        kernels.setdefault(ker.key(), ker)
    return frozenset(cat.identify_sub(ker) for ker in kernels.values())


def _hom_walk(cat: Catalog, core: ModuleId, b: int, dim: int) -> Iterator[tuple[int, ...]]:
    """One map per line of Hom(core, X_b), of this dimension, under the walk budget."""
    return _coeff_walk(cat.algebra.p, dim, True, f"Hom({_mid_label(cat, core)}, {cat.names[b]})",
                       "kernel search")


# -- mu bounds ----------------------------------------------------------------------


def _mu_bound(cat: Catalog, i: int, j: int) -> int:
    """How many copies of indec_i a morphism into indec_j can need.

    A map from X_i^m into X_j column-reduces, by an automorphism of the
    source, so that at most mu copies act nontrivially, where mu is the
    largest generator count of an End(X_i)-submodule of Hom(X_i, X_j).  At
    the member probe X_i the image of g is g∘End(X_i), the cyclic submodule
    g generates, and every other probe's span is that submodule composed
    with Hom(probe, X_i); so a join of images is fixed by the sum of their
    cyclic submodules, and its depth in the pair lattice is the number of
    generators that submodule needs.  mu is the largest depth.  When dim
    Hom <= 1, or End = k and every subspace is a submodule, mu is dim Hom.
    """
    h = cat.hom_dims[i][j]
    if h <= 1 or cat.hom_dims[i][i] == 1:
        return h
    return max(_pair_lattice(cat, i, j)[1].values())


# -- the kernel step ----------------------------------------------------------------------


def _step_escape(s: SubcatBits) -> Optional[tuple]:
    """The first kernel class outside s of a step, as (core, b, class), or None if s is closed.

    The members b are taken in index order, each with its core mu_b|s,
    mu(i, b) copies of each member i; a member with an empty core has no
    nonzero morphism to step along.  The witness is the least escaping class
    of the first b that has one, in the order of sorted index tuples.
    """
    cat = s.catalog
    steps = cat._closure_memo.setdefault("kerstep", {})
    members = s.indices()
    for b in members:
        core = tuple(i for i in members for _ in range(_mu_bound(cat, i, b)))
        if not core:
            continue
        if (core, b) not in steps:
            steps[(core, b)] = _kernel_classes(cat, core, b)
        escapes = [kid for kid in steps[(core, b)] if not s.contains_id(kid)]
        if escapes:
            return core, b, min(escapes)
    return None


def _kernel_violation(s: SubcatBits, dual: bool = False) -> Optional[str]:
    """A kernel of a member-sum morphism outside the subcategory, or None.

    The step decides and names the witness (memo per step, not per subset); errors propagate.
    """
    if s.is_empty:
        return None
    cat = s.catalog
    hit = _step_escape(s)
    if hit is None:
        return None
    core, b, kid = hit
    if dual:
        return (
            f"a morphism {cat.names[b]} -> {_mid_label(cat, core)} between member sums "
            f"has cokernel {_mid_label(cat, kid)}, outside the subcategory"
        )
    return (
        f"a morphism {_mid_label(cat, core)} -> {cat.names[b]} between member sums "
        f"has kernel {_mid_label(cat, kid)}, outside the subcategory"
    )


def _cokernel_violation(s: SubcatBits) -> Optional[str]:
    """Cokernels are kernels in the opposite catalog (same index order)."""
    op = s.catalog.opposite()
    return _kernel_violation(SubcatBits(op, s.bits), dual=True)
