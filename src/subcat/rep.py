"""Quiver presentations and their finite-dimensional representations.

A representation assigns an F_p vector space to each vertex and a matrix to
each arrow, acting on column vectors; relations are F_p-linear combinations
of directed paths, composed left to right (the first listed arrow acts
first).  Submodules are stored as tuples of row-span subspaces, one per
vertex, that are stable under every arrow.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import CapExceeded, ShapeError
from .linalg import Mat, Subspace, _check_prime, _Frozen, _slot_setters, nullspace, pack_row, rref

SUBMODULE_DIM_CAP = 12
# Lines of F_p^d enumerated per vertex by all_submodules; 2^12 - 1 is a
# 12-dimensional vertex over F_2, the largest the dimension cap admits.
SUBMODULE_LINE_BUDGET = 1 << 12


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

    __slots__ = ("algebra", "dims", "mats", "_hash")

    def __init__(self, algebra: Algebra, dims: tuple[int, ...], mats: tuple[Mat, ...]):
        _rep_algebra(self, algebra)
        _rep_dims(self, dims)
        _rep_mats(self, mats)
        _rep_hash(self, None)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self is other or self.dims == other.dims and self.mats == other.mats
                and self.algebra == other.algebra)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.algebra, self.dims, self.mats))
            _rep_hash(self, h)
        return h

    def __repr__(self):
        return (f"{type(self).__qualname__}(algebra={self.algebra!r}, dims={self.dims!r}, "
                f"mats={self.mats!r})")

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


_rep_algebra, _rep_dims, _rep_mats, _rep_hash = _slot_setters(Rep)


class Morphism(_Frozen):
    __slots__ = ("source", "target", "comps")

    def __init__(self, source: Rep, target: Rep, comps: tuple[Mat, ...]):
        _mor_source(self, source)
        _mor_target(self, target)
        _mor_comps(self, comps)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.comps == other.comps and self.source == other.source
                and self.target == other.target)

    def __hash__(self):
        return hash((self.source, self.target, self.comps))

    def __repr__(self):
        return (f"{type(self).__qualname__}(source={self.source!r}, target={self.target!r}, "
                f"comps={self.comps!r})")

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

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.spaces == other.spaces and self.ambient == other.ambient

    def __hash__(self):
        return hash((self.ambient, self.spaces))

    def __repr__(self):
        return f"{type(self).__qualname__}(ambient={self.ambient!r}, spaces={self.spaces!r})"

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

    def add(self, other: "SubRep") -> "SubRep":
        if self.ambient != other.ambient:
            raise ShapeError("subreps of different ambients")
        return SubRep(self.ambient, tuple(a.add(b) for a, b in zip(self.spaces, other.spaces)))

    def intersect(self, other: "SubRep") -> "SubRep":
        if self.ambient != other.ambient:
            raise ShapeError("subreps of different ambients")
        return SubRep(self.ambient, tuple(a.intersect(b) for a, b in zip(self.spaces, other.spaces)))

    def contains(self, other: "SubRep") -> bool:
        return all(a.contains(b) for a, b in zip(self.spaces, other.spaces))


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
    """Linear system whose nullspace is Hom(m, n), plus per-vertex offsets."""
    if m.algebra != n.algebra:
        raise ShapeError("representations over different algebras")
    alg = m.algebra
    p = alg.p
    offs = []
    total = 0
    for v in range(alg.n_vertices):
        offs.append(total)
        total += m.dims[v] * n.dims[v]
    rows = []
    for idx, a in enumerate(alg.arrows):
        s, t = a.source, a.target
        ma, na = m.mats[idx], n.mats[idx]
        for r in range(n.dims[t]):
            for c in range(m.dims[s]):
                if p == 2:
                    row = 0
                    for k in range(m.dims[t]):
                        if ma.entry(k, c):
                            row ^= 1 << (offs[t] + r * m.dims[t] + k)
                    for k in range(n.dims[s]):
                        if na.entry(r, k):
                            row ^= 1 << (offs[s] + k * m.dims[s] + c)
                    rows.append(row)
                else:
                    row = [0] * total
                    for k in range(m.dims[t]):
                        row[offs[t] + r * m.dims[t] + k] = (
                            row[offs[t] + r * m.dims[t] + k] + ma.entry(k, c)
                        ) % p
                    for k in range(n.dims[s]):
                        row[offs[s] + k * m.dims[s] + c] = (
                            row[offs[s] + k * m.dims[s] + c] - na.entry(r, k)
                        ) % p
                    rows.append(tuple(row))
    if p == 2:
        sys_mat = Mat(2, len(rows), total, tuple(rows))
    else:
        sys_mat = Mat(p, len(rows), total, tuple(rows))
    return sys_mat, tuple(offs)


def hom_dim(m: Rep, n: Rep) -> int:
    """dim Hom(m, n), by rank only."""
    sys_mat, _ = _hom_system(m, n)
    return sys_mat.ncols - rref(sys_mat).rank


def hom_basis(m: Rep, n: Rep) -> list[Morphism]:
    """An F_p-basis of Hom(m, n) as explicit morphisms."""
    sys_mat, offs = _hom_system(m, n)
    basis = nullspace(sys_mat)
    alg = m.algebra
    out = []
    for i in range(basis.nrows):
        vec = basis.row_entries(i)
        comps = []
        for v in range(alg.n_vertices):
            rows = [
                [vec[offs[v] + r * m.dims[v] + c] for c in range(m.dims[v])]
                for r in range(n.dims[v])
            ]
            comps.append(Mat.from_rows(alg.p, rows, ncols=m.dims[v]))
        out.append(Morphism(m, n, tuple(comps)))
    return out


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


def morphism_coords(basis: Sequence[Morphism], f: Morphism) -> tuple[int, ...]:
    """Coefficients of f over an independent morphism basis."""
    from .linalg import solve

    p = f.source.algebra.p
    cols = [flat_entries(b) for b in basis]
    coeff_mat = Mat.from_rows(p, cols, ncols=len(cols[0]) if cols else 0).transpose()
    rhs = Mat.from_rows(p, [[x] for x in flat_entries(f)], ncols=1)
    sol = solve(coeff_mat, rhs)
    if sol is None:
        raise ShapeError("morphism is not in the span of the basis")
    return tuple(sol.particular.column(0))


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
        cols = []
        imgs = rep.mats[idx].mul(src_sp.basis.transpose())
        for j in range(src_sp.dim):
            col = pack_row(alg.p, imgs.column(j))
            cols.append(tgt_sp.coords(col))
        rows = [[cols[j][i] for j in range(src_sp.dim)] for i in range(tgt_sp.dim)]
        mats.append(Mat.from_rows(alg.p, rows, ncols=src_sp.dim))
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
    dims = []
    for v in range(alg.n_vertices):
        sp = s.spaces[v]
        nonpiv = sp.nonpivots()
        dims.append(len(nonpiv))
        rows = []
        for j in range(ambient.dims[v]):
            unit = pack_row(p, [1 if t == j else 0 for t in range(ambient.dims[v])])
            reduced = sp.reduce(unit)
            if p == 2:
                rows.append([(reduced >> c) & 1 for c in nonpiv])
            else:
                rows.append([reduced[c] for c in nonpiv])
        # rows[j] is the image of e_j; the projection matrix is its transpose
        proj = Mat.from_rows(p, [[rows[j][i] for j in range(ambient.dims[v])] for i in range(len(nonpiv))],
                             ncols=ambient.dims[v])
        projs.append(proj)
    mats = []
    for idx, a in enumerate(alg.arrows):
        nonpiv_s = s.spaces[a.source].nonpivots()
        section = Mat.from_rows(
            p,
            [[1 if nonpiv_s[j] == i else 0 for j in range(dims[a.source])] for i in range(ambient.dims[a.source])],
            ncols=dims[a.source],
        )
        mats.append(projs[a.target].mul(ambient.mats[idx]).mul(section))
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
    mats = []
    for idx, a in enumerate(algebra.arrows):
        grid = [[part.mats[idx] if i == j else None for j in range(len(parts))] for i, part in enumerate(parts)]
        row_dims = [part.dims[a.target] for part in parts]
        col_dims = [part.dims[a.source] for part in parts]
        mats.append(Mat.block(p, grid, row_dims, col_dims))
    total = Rep(algebra, dims, tuple(mats))
    injections = []
    projections = []
    for k, part in enumerate(parts):
        comps_in = []
        comps_out = []
        for v in range(algebra.n_vertices):
            rows = [[1 if r == offs[k][v] + c else 0 for c in range(part.dims[v])] for r in range(dims[v])]
            inj = Mat.from_rows(p, rows, ncols=part.dims[v])
            comps_in.append(inj)
            comps_out.append(inj.transpose())
        injections.append(Morphism(part, total, tuple(comps_in)))
        projections.append(Morphism(total, part, tuple(comps_out)))
    return DirectSum(total, tuple(injections), tuple(projections))


# -- submodule enumeration -------------------------------------------------------


def generated_submodule(m: Rep, generators: Iterable[tuple[int, Sequence[int]]]) -> SubRep:
    """Smallest arrow-stable subspace tuple containing the given vectors.

    Generators are (vertex index, vector entries) pairs; packed rows are
    accepted as well.
    """
    alg = m.algebra
    p = alg.p
    spaces = [Subspace.zero(p, d) for d in m.dims]
    for v, vec in generators:
        packed = vec if (p == 2 and isinstance(vec, int)) else pack_row(p, vec)
        line = Subspace.from_matrix_rows(Mat(p, 1, m.dims[v], (packed,)))
        spaces[v] = spaces[v].add(line)
    changed = True
    while changed:
        changed = False
        for idx, a in enumerate(alg.arrows):
            if spaces[a.source].dim == 0:
                continue
            img = Subspace.image_of(m.mats[idx].mul(spaces[a.source].basis.transpose()))
            grown = spaces[a.target].add(img)
            if grown.dim != spaces[a.target].dim:
                spaces[a.target] = grown
                changed = True
    return SubRep(m, tuple(spaces))


def check_submodule_cap(m: Rep, cap: int = SUBMODULE_DIM_CAP) -> None:
    """Raise CapExceeded when m is too large for submodule enumeration."""
    if m.total_dim > cap:
        raise CapExceeded(f"total dimension {m.total_dim} exceeds submodule cap {cap}")


def _lines(p: int, d: int) -> Iterator[tuple[int, ...]]:
    """One generator per line of F_p^d: the vectors whose first nonzero entry is 1."""
    return ((0,) * lead + (1,) + rest
            for lead in range(d) for rest in product(range(p), repeat=d - 1 - lead))


def all_submodules(m: Rep, cap: int = SUBMODULE_DIM_CAP) -> list[SubRep]:
    """Every arrow-stable subspace tuple, as the join closure of cyclic subs.

    Complete because each submodule is the join of the cyclic submodules of
    its vectors, and v and c*v generate the same one, so one vector per line
    suffices.  Raises CapExceeded above the configured total dimension, and
    when a vertex has more than SUBMODULE_LINE_BUDGET lines.
    """
    check_submodule_cap(m, cap)
    p = m.algebra.p
    for v, d in enumerate(m.dims):
        lines = (p ** d - 1) // (p - 1)
        if lines > SUBMODULE_LINE_BUDGET:
            raise CapExceeded(
                f"vertex {m.algebra.vertices[v]} of dimension {d} over F_{p} has {lines} "
                f"lines, over the submodule line budget {SUBMODULE_LINE_BUDGET}"
            )
    found: dict = {}
    zero = SubRep.zero(m)
    found[zero.key()] = zero
    cyclic = []
    for v, d in enumerate(m.dims):
        for vec in _lines(p, d):
            sub = generated_submodule(m, [(v, vec)])
            if sub.key() not in found:
                found[sub.key()] = sub
                cyclic.append(sub)
    frontier = list(found.values())
    while frontier:
        nxt = []
        for s in frontier:
            for c in cyclic:
                joined = s.add(c)
                k = joined.key()
                if k not in found:
                    found[k] = joined
                    nxt.append(joined)
        frontier = nxt
    subs = list(found.values())
    subs.sort(key=lambda s: (s.dims, s.key()))
    return subs


# -- isomorphism -----------------------------------------------------------------


def is_isomorphic(m: Rep, n: Rep, max_candidates: int = 1 << 16) -> bool:
    """Search the Hom space for a vertexwise-invertible morphism.

    f is invertible exactly when c*f is, so one coefficient vector per line
    is tried; raises CapExceeded when those (p^h - 1)/(p - 1) candidates,
    h = dim Hom(m, n), exceed max_candidates.
    """
    if m.algebra != n.algebra:
        raise ShapeError("representations over different algebras")
    if m.dims != n.dims:
        return False
    if m.total_dim == 0:
        return True
    basis = hom_basis(m, n)
    p = m.algebra.p
    if (p ** len(basis) - 1) // (p - 1) > max_candidates:
        raise CapExceeded(f"Hom space of dimension {len(basis)} exceeds isomorphism search cap")
    for coeffs in _lines(p, len(basis)):
        f = morphism_from_coeffs(basis, coeffs, m, n)
        if all(rref(c).rank == d for c, d in zip(f.comps, m.dims)):
            return True
    return False
