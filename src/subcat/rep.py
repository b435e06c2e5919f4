"""Quiver presentations and their finite-dimensional representations.

A representation assigns an F_p vector space to each vertex and a matrix to
each arrow, acting on column vectors; relations are F_p-linear combinations
of directed paths, composed left to right (the first listed arrow acts
first).  Submodules are stored as tuples of row-span subspaces, one per
vertex, that are stable under every arrow.  ``all_submodules`` grows a
module's submodule lattice from 0 by socle covers, and SUBMODULE_BUDGET
bounds the submodules it finds.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import CapExceeded, ShapeError
from .linalg import (
    Mat,
    Subspace,
    _block,
    _check_prime,
    _coeff_walk,
    _combine,
    _complement,
    _Frozen,
    _join,
    _kron_rows,
    _pivot_insert,
    _slot_setters,
    nullspace,
    pack_row,
    rref,
)

SUBMODULE_BUDGET = 1 << 15  # submodules one all_submodules call may find, read at each call


class Arrow(NamedTuple):
    name: str
    source: int
    target: int


class Relation(NamedTuple):
    label: str
    source: int
    target: int
    terms: tuple[tuple[int, tuple[int, ...]], ...]


class Algebra(NamedTuple):
    """A quiver with relations over F_p, presented by named vertices and arrows."""

    p: int
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    relations: tuple[Relation, ...]

    @staticmethod
    def build(
        p: int,
        vertices: Sequence[str],
        arrows: Sequence[tuple[str, str, str]],
        relations: Sequence[Sequence[tuple[int, Sequence[str]]]] = (),
    ) -> "Algebra":
        """Resolve names and validate a presentation over F_p (p must be prime).

        Arrows are (name, source vertex, target vertex) triples.  Each
        relation is a list of (coefficient, path) terms whose paths must be
        composable and share one source and one target.
        """
        _check_prime(p)
        vindex = {v: i for i, v in enumerate(vertices)}
        if len(vindex) != len(vertices):
            raise ShapeError("duplicate vertex names")
        arrs = []
        aindex = {}
        for name, src, tgt in arrows:
            if src not in vindex or tgt not in vindex:
                raise ShapeError(f"arrow {name} uses undeclared vertex")
            if name in aindex:
                raise ShapeError(f"duplicate arrow name {name}")
            aindex[name] = len(arrs)
            arrs.append(Arrow(name, vindex[src], vindex[tgt]))
        rels = []
        for rel in relations:
            if not rel:
                raise ShapeError("empty relation")
            terms = []
            endpoints = None
            for coeff, path in rel:
                if not path:
                    raise ShapeError("empty path in relation")
                undeclared = [a for a in path if a not in aindex]
                if undeclared:
                    raise ShapeError(f"relation uses undeclared arrow {undeclared[0]}")
                idxs = tuple(aindex[a] for a in path)
                for prev, nxt in zip(idxs, idxs[1:]):
                    if arrs[prev].target != arrs[nxt].source:
                        raise ShapeError(f"path {'*'.join(path)} is not composable")
                ends = (arrs[idxs[0]].source, arrs[idxs[-1]].target)
                if endpoints is None:
                    endpoints = ends
                elif endpoints != ends:
                    raise ShapeError("relation terms have mismatched endpoints")
                terms.append((coeff % p, idxs))
            label = " + ".join(
                ("" if c == 1 else f"{c}*") + "*".join(arrs[i].name for i in path)
                for c, path in terms
            )
            rels.append(Relation(label, endpoints[0], endpoints[1], tuple(terms)))
        return Algebra(p, tuple(vertices), tuple(arrs), tuple(rels))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def opposite(self) -> "Algebra":
        """Reverse every arrow and every relation path."""
        arrs = tuple(Arrow(a.name, a.target, a.source) for a in self.arrows)
        rels = tuple(
            Relation(r.label, r.target, r.source, tuple((c, path[::-1]) for c, path in r.terms))
            for r in self.relations
        )
        return Algebra(self.p, self.vertices, arrs, rels)


class Rep(_Frozen):
    """A representation: one dimension and one matrix per quiver item.

    Hashed by value, once: catalogs memoize per-module work on Rep keys.
    """

    __slots__ = ("algebra", "dims", "mats", "_hash", "_columns")

    def __init__(self, algebra: Algebra, dims: tuple[int, ...], mats: tuple[Mat, ...]):
        _rep_algebra(self, algebra)
        _rep_dims(self, dims)
        _rep_mats(self, mats)
        _rep_hash(self, None)
        _rep_columns(self, None)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self._values(self))
            _rep_hash(self, h)
        return h

    def transposed(self, idx: int) -> Mat:
        """Arrow idx's matrix transposed, built once for the Hom systems out of this module."""
        cols = self._columns
        if cols is None:
            cols = [None] * len(self.mats)
            _rep_columns(self, cols)
        if cols[idx] is None:
            cols[idx] = self.mats[idx].transpose()
        return cols[idx]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def is_zero(self) -> bool:
        return self.total_dim == 0

    @staticmethod
    def zero(algebra: Algebra) -> "Rep":
        dims = (0,) * algebra.n_vertices
        mats = tuple(Mat.zeros(algebra.p, 0, 0) for _ in algebra.arrows)
        return Rep(algebra, dims, mats)

    @staticmethod
    def make(algebra: Algebra, dims: Sequence[int], mats: Sequence[Sequence[Sequence[int]]]) -> "Rep":
        """Build from nested-list matrices keyed by arrow order."""
        dims = tuple(dims)
        packed = []
        for a, rows in zip(algebra.arrows, mats):
            packed.append(Mat.from_rows(algebra.p, rows, ncols=dims[a.source]))
        return Rep(algebra, dims, tuple(packed))


_rep_algebra, _rep_dims, _rep_mats, _rep_hash, _rep_columns = _slot_setters(Rep)


class Morphism(_Frozen):
    __slots__ = ("source", "target", "comps")

    def __init__(self, source: Rep, target: Rep, comps: tuple[Mat, ...]):
        _mor_source(self, source)
        _mor_target(self, target)
        _mor_comps(self, comps)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.comps)

    def compose(self, first: "Morphism") -> "Morphism":
        """self after first (self.source must be first.target)."""
        if first.target is not self.source and first.target != self.source:
            raise ShapeError("composition mismatch")
        comps = tuple(a.mul(b) for a, b in zip(self.comps, first.comps))
        return Morphism(first.source, self.target, comps)

    @staticmethod
    def identity(rep: Rep) -> "Morphism":
        return Morphism(rep, rep, tuple(Mat.identity(rep.algebra.p, d) for d in rep.dims))

    @staticmethod
    def zero_map(source: Rep, target: Rep) -> "Morphism":
        p = source.algebra.p
        comps = tuple(Mat.zeros(p, dt, ds) for ds, dt in zip(source.dims, target.dims))
        return Morphism(source, target, comps)


_mor_source, _mor_target, _mor_comps = _slot_setters(Morphism)


class SubRep(_Frozen):
    """An arrow-stable tuple of vertex subspaces of an ambient representation."""

    __slots__ = ("ambient", "spaces")

    def __init__(self, ambient: Rep, spaces: tuple[Subspace, ...]):
        _subrep_ambient(self, ambient)
        _subrep_spaces(self, spaces)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.spaces)

    @property
    def total_dim(self) -> int:
        return sum(s.dim for s in self.spaces)

    @property
    def is_zero(self) -> bool:
        return self.total_dim == 0

    @property
    def is_full(self) -> bool:
        return self.dims == self.ambient.dims

    def key(self):
        return tuple(s.basis.rows for s in self.spaces)

    @staticmethod
    def zero(ambient: Rep) -> "SubRep":
        p = ambient.algebra.p
        return SubRep(ambient, tuple(Subspace.zero(p, d) for d in ambient.dims))

    @staticmethod
    def full(ambient: Rep) -> "SubRep":
        p = ambient.algebra.p
        return SubRep(ambient, tuple(Subspace.full(p, d) for d in ambient.dims))


_subrep_ambient, _subrep_spaces = _slot_setters(SubRep)


# -- validation ---------------------------------------------------------------


def path_matrix(rep: Rep, path: Sequence[int]) -> Mat:
    """Matrix of a composable path, first listed arrow applied first."""
    m = rep.mats[path[0]]
    for a in path[1:]:
        m = rep.mats[a].mul(m)
    return m


def validate(rep: Rep) -> Optional[str]:
    """None when shapes match and all relations vanish, else a description."""
    alg = rep.algebra
    for a, m in zip(alg.arrows, rep.mats):
        want = (rep.dims[a.target], rep.dims[a.source])
        if (m.nrows, m.ncols) != want:
            return f"arrow {a.name}: matrix is {m.nrows}x{m.ncols}, expected {want[0]}x{want[1]}"
        if m.p != alg.p:
            return f"arrow {a.name}: modulus {m.p} differs from field {alg.p}"
    for rel in alg.relations:
        acc = Mat.zeros(alg.p, rep.dims[rel.target], rep.dims[rel.source])
        for coeff, path in rel.terms:
            acc = acc.add(path_matrix(rep, path).scale(coeff))
        if not acc.is_zero:
            return f"relation {rel.label} does not vanish"
    return None


def check_morphism(f: Morphism) -> bool:
    """All commuting squares hold."""
    for idx, a in enumerate(f.source.algebra.arrows):
        lhs = f.comps[a.target].mul(f.source.mats[idx])
        rhs = f.target.mats[idx].mul(f.comps[a.source])
        if lhs != rhs:
            return False
    return True


def subrep_is_stable(s: SubRep) -> bool:
    """Every arrow maps the source-vertex space into the target-vertex space."""
    rep = s.ambient
    for idx, a in enumerate(rep.algebra.arrows):
        src = s.spaces[a.source]
        if src.dim == 0:
            continue
        imgs = rep.mats[idx].mul(src.basis.transpose())
        if not s.spaces[a.target].contains(Subspace.image_of(imgs)):
            return False
    return True


# -- hom spaces ----------------------------------------------------------------


def _hom_system(m: Rep, n: Rep) -> tuple[Mat, tuple[int, ...]]:
    """Linear system whose nullspace is Hom(m, n), plus per-vertex offsets.

    The unknowns are the f_v, row-major at offs[v].  Row block a holds
    vec(f_t(a) m_a - n_a f_s(a)) = (I kron m_a^T) vec f_t - (n_a kron I) vec f_s,
    the map of Ringel's standard sequence, whose image is the coboundaries of
    Ext^1(m, n).  A pair with no common support vertex has no unknowns, so a
    catalog skips its system: Hom = 0, and no coboundary.
    """
    if m.algebra != n.algebra:
        raise ShapeError("representations over different algebras")
    alg = m.algebra
    offs = []
    total = 0
    for v in range(alg.n_vertices):
        offs.append(total)
        total += m.dims[v] * n.dims[v]
    rows = _kron_rows(alg.p, total, (
        ((1, n.dims[a.target], m.transposed(idx), offs[a.target]),
         (-1, n.mats[idx], m.dims[a.source], offs[a.source]))
        for idx, a in enumerate(alg.arrows) if n.dims[a.target] and m.dims[a.source]))
    return Mat(alg.p, len(rows), total, tuple(rows)), tuple(offs)


def hom_dim(m: Rep, n: Rep) -> int:
    """dim Hom(m, n), by rank only."""
    sys_mat, _ = _hom_system(m, n)
    return sys_mat.ncols - rref(sys_mat).rank


def hom_basis(m: Rep, n: Rep) -> list[Morphism]:
    """An F_p-basis of Hom(m, n) as explicit morphisms."""
    sys_mat, offs = _hom_system(m, n)
    return _hom_basis(m, n, nullspace(sys_mat).rows, offs)


def _hom_basis(m: Rep, n: Rep, rows: Sequence, offs: Sequence[int]) -> list[Morphism]:
    """The morphisms read off the packed nullspace rows of the Hom system of (m, n), blocks at offs."""
    p = m.algebra.p
    return [Morphism(m, n, tuple(_block(p, vec, off, dn, dm)
                                 for off, dn, dm in zip(offs, n.dims, m.dims)))
            for vec in rows]


def morphism_from_coeffs(basis: Sequence[Morphism], coeffs: Sequence[int],
                         source: Rep, target: Rep) -> Morphism:
    """F_p-linear combination of hom-basis elements."""
    p = source.algebra.p
    comps = [Mat.zeros(p, dt, ds) for ds, dt in zip(source.dims, target.dims)]
    for c, f in zip(coeffs, basis):
        if c % p:
            comps = [acc.add(fc.scale(c)) for acc, fc in zip(comps, f.comps)]
    return Morphism(source, target, tuple(comps))


def flat_entries(f: Morphism) -> list[int]:
    """The entries of a morphism, vertex by vertex, row by row."""
    out = []
    for c in f.comps:
        for r in range(c.nrows):
            out.extend(c.row_entries(r))
    return out


# -- kernels, images, quotients -------------------------------------------------


def kernel(f: Morphism) -> SubRep:
    """Vertexwise nullspaces; arrow-stable by the commuting squares."""
    return SubRep(f.source, tuple(Subspace.kernel_of(c) for c in f.comps))


def image(f: Morphism) -> SubRep:
    """Vertexwise column spans inside the target."""
    return SubRep(f.target, tuple(Subspace.image_of(c) for c in f.comps))


def sub_to_rep(s: SubRep) -> tuple[Rep, Morphism]:
    """The subrepresentation in its own basis, with the inclusion morphism."""
    if not subrep_is_stable(s):
        raise ShapeError("subspaces are not arrow-stable")
    rep = s.ambient
    alg = rep.algebra
    dims = s.dims
    mats = []
    for idx, a in enumerate(alg.arrows):
        src_sp, tgt_sp = s.spaces[a.source], s.spaces[a.target]
        # the columns: images of the source basis in target-basis coordinates
        imgs = rep.mats[idx].mul(src_sp.basis.transpose()).transpose()
        coords = [tgt_sp.coords(col) for col in imgs.rows]
        mats.append(Mat.from_rows(alg.p, coords, ncols=tgt_sp.dim).transpose())
    sub = Rep(alg, dims, tuple(mats))
    incl = Morphism(sub, rep, tuple(sp.basis.transpose() for sp in s.spaces))
    return sub, incl


def quotient(ambient: Rep, s: SubRep) -> tuple[Rep, Morphism]:
    """Quotient by a stable subrep, coordinates at the non-pivot positions."""
    if s.ambient != ambient:
        raise ShapeError("subrep does not belong to the ambient representation")
    if not subrep_is_stable(s):
        raise ShapeError("subspaces are not arrow-stable")
    alg = ambient.algebra
    p = alg.p
    projs = []
    for sp, d in zip(s.spaces, ambient.dims):
        # row j is e_j modulo the subspace; the projection reads its non-pivot entries
        reduced = Mat(p, d, d, tuple(sp.reduce(e) for e in Mat.identity(p, d).rows))
        projs.append(reduced.select_columns(sp.nonpivots()).transpose())
    dims = [proj.nrows for proj in projs]
    # the section of each projection: unit vectors at the non-pivot positions
    mats = [projs[a.target].mul(ambient.mats[idx]).select_columns(s.spaces[a.source].nonpivots())
            for idx, a in enumerate(alg.arrows)]
    quot = Rep(alg, tuple(dims), tuple(mats))
    proj_mor = Morphism(ambient, quot, tuple(projs))
    return quot, proj_mor


def cokernel(f: Morphism) -> tuple[Rep, Morphism]:
    """Quotient of the target by the image, with the projection."""
    return quotient(f.target, image(f))


class DirectSum(NamedTuple):
    rep: Rep
    injections: tuple[Morphism, ...]
    projections: tuple[Morphism, ...]


def direct_sum(algebra: Algebra, parts: Sequence[Rep]) -> DirectSum:
    """Block-diagonal sum, with the canonical injections and projections."""
    p = algebra.p
    for part in parts:
        if part.algebra != algebra:
            raise ShapeError("direct sum over mismatched algebras")
    dims = tuple(sum(part.dims[v] for part in parts) for v in range(algebra.n_vertices))
    offs = []
    running = [0] * algebra.n_vertices
    for part in parts:
        offs.append(tuple(running))
        for v in range(algebra.n_vertices):
            running[v] += part.dims[v]
    mats = tuple(Mat(p, dims[a.target], dims[a.source], tuple(_kron_rows(p, dims[a.source], (
        [(1, 1, part.mats[idx], off[a.source])] for part, off in zip(parts, offs)))))
        for idx, a in enumerate(algebra.arrows))
    total = Rep(algebra, dims, mats)
    projections = [Morphism(total, part, tuple(
        Mat(p, d, dims[v], tuple(_kron_rows(p, dims[v], [[(1, 1, d, off[v])]])))
        for v, d in enumerate(part.dims))) for part, off in zip(parts, offs)]
    injections = [Morphism(part, total, tuple(c.transpose() for c in proj.comps))
                  for part, proj in zip(parts, projections)]
    return DirectSum(total, tuple(injections), tuple(projections))


# -- submodule enumeration -------------------------------------------------------


def generated_submodule(m: Rep, generators: Iterable[tuple[int, Sequence[int]]]) -> SubRep:
    """Smallest arrow-stable subspace tuple containing the given vectors.

    Generators are (vertex index, vector entries) pairs; packed rows are
    accepted as well.  Each vector new to its vertex's span sends its images
    along the arrows out of that vertex.
    """
    alg, p = m.algebra, m.algebra.p
    echelons: list[dict] = [{} for _ in m.dims]
    todo = [(v, vec if isinstance(vec, int) else pack_row(p, vec)) for v, vec in generators]
    while todo:
        v, x = todo.pop()
        if _pivot_insert(p, echelons[v], x):
            todo += [(a.target, Mat(p, 1, m.dims[v], (x,)).mul(m.transposed(idx)).rows[0])
                     for idx, a in enumerate(alg.arrows) if a.source == v]
    return SubRep(m, tuple(Subspace.from_matrix_rows(Mat(p, len(rows), d, tuple(rows.values())))
                           for d, rows in zip(m.dims, echelons)))


def _steps(m: Rep, key: tuple, socle: bool) -> Iterator[tuple]:
    """Span tuples S of m such that N + S is a submodule, N the submodule at key: the
    lines of the socle of m/N, else the cyclic submodules of the lines of m/N.
    """
    alg, p = m.algebra, m.algebra.p
    empty = ((),) * alg.n_vertices
    for v, (name, d) in enumerate(zip(alg.vertices, m.dims)):
        if len(key[v]) == d:
            continue
        # x is in the socle of m/N when every arrow out of v maps it into N
        maps = [(m.transposed(idx).rows, m.dims[a.target], key[a.target])
                for idx, a in enumerate(alg.arrows) if a.source == v] if socle else []
        basis = _complement(p, d, key[v], maps)
        space = f"{'socle' if socle else 'quotient'} at vertex {name}"
        for coeffs in _coeff_walk(p, len(basis), True, space, "submodule search"):
            x = _combine(p, coeffs, basis)
            if socle:
                yield empty[:v] + ((x,),) + empty[v + 1:]
            else:
                yield generated_submodule(m, [(v, x)]).key()


def all_submodules(m: Rep) -> list[SubRep]:
    """Every arrow-stable subspace tuple, sorted by dimension vector, then by key.

    Grown breadth first from 0: each submodule above N contains N + S for a
    simple submodule S of m/N.  When the arrows act nilpotently on m, the S
    are the lines of the socle of m/N, the common kernel at each vertex of
    the arrows out of it, and this walk reaches m.  Otherwise it does not,
    and a second walk steps to N + C for every cyclic submodule C generated
    by a line of m/N, the simple ones among them.  Both walk their lines
    through ``_coeff_walk``.  Raises CapExceeded before it finds more than
    SUBMODULE_BUDGET submodules.
    """
    p = m.algebra.p
    zero, full = SubRep.zero(m).key(), SubRep.full(m).key()
    for socle in (True, False):
        found, queue = {zero}, [zero]
        for key in queue:  # the loop reaches the covers appended below
            for step in _steps(m, key, socle):
                cover = _join(p, key, step)
                if cover not in found:
                    if len(found) >= SUBMODULE_BUDGET:
                        raise CapExceeded(f"the submodules of a module of total dimension "
                                          f"{m.total_dim} exceed the submodule budget {SUBMODULE_BUDGET}")
                    found.add(cover)
                    queue.append(cover)
        if full in found:
            break
    return [SubRep(m, tuple(Subspace(d, Mat(p, len(rows), d, rows)) for d, rows in zip(m.dims, k)))
            for k in sorted(queue, key=lambda k: (tuple(map(len, k)), k))]


# -- isomorphism -----------------------------------------------------------------


def is_isomorphic(m: Rep, n: Rep) -> bool:
    """Search the Hom space for a vertexwise-invertible morphism.

    f is invertible exactly when c*f is, so one coefficient vector per line
    is tried; raises CapExceeded when those (p^h - 1)/(p - 1) candidates,
    h = dim Hom(m, n), exceed the walk budget ``linalg.COEFF_WALK_BUDGET``.
    """
    if m.algebra != n.algebra:
        raise ShapeError("representations over different algebras")
    if m.dims != n.dims:
        return False
    if m.total_dim == 0:
        return True
    basis = hom_basis(m, n)
    for coeffs in _coeff_walk(m.algebra.p, len(basis), True, "Hom space", "isomorphism search"):
        f = morphism_from_coeffs(basis, coeffs, m, n)
        if all(rref(c).rank == d for c, d in zip(f.comps, m.dims)):
            return True
    return False
