"""Catalogs of indecomposable modules and their derived tables.

A catalog lists the pairwise non-isomorphic indecomposables of a module
category of finite type, together with the Hom-dimension matrix, the table
of extension middle terms, and the simple members.  Arbitrary computed
modules are identified as multisets of catalog indices (Krull-Schmidt
labels); the Hom-dimension profile is the memoization key, which is checked
for injectivity on catalog members at build time.

Identification decodes a Hom profile into multiplicities with an integer
inverse of the Hom-dimension matrix, A = D * H^-1 for the least positive D,
computed once per catalog by fraction-free elimination: a profile decodes by
integer dot products and a divisibility test by D.  ``_class_of`` memoizes
the decodes of a complete catalog, and every reader of a class goes through it.

The Hom system of a pair, the relation rows of its cocycles and each pull-back
theta -> theta.f map vec X to vec(A X B) = (A kron B^T) vec X on row-major
blocks, and are built as packed Kronecker rows (``linalg._kron_rows``).  A
pair with no common support vertex has no unknowns: Hom = 0, with no solve.
The build keeps each other pair's nullspace rows, as many as dim Hom, and
reads a Hom basis off them on first use.

The extension table is built on first read (by the build of a catalog not
marked complete, whose completeness it checks), in two passes.  First, per
pair (i, j), Ext^1(X_j, X_i) = Z/B, where B is the image of the Hom system of
the pair (j, i), of dimension unknowns - dim Hom(X_j, X_i), and Z is all of
theta unless relations constrain it.  Where this rank count gives dim Z = dim B,
Ext^1 = 0 and nothing more is eliminated (if relations constrain Z, the
constraint must still vanish on B); elsewhere one elimination grows the
echelon rows of B by the cocycles, and those that grow them are a basis of
Z/B.  Every pair's lines of Z/B are counted against ``COEFF_WALK_BUDGET``
before any middle is identified.  Then the zero class is the split middle
X_i + X_j, and one theta per line (diag(c, 1) conjugates the middle of theta
to that of c*theta) has its Hom profile read off the long exact sequence:
dim Hom(X_k, E) = h(k, i) + h(k, j) - rank of f -> [theta.f] from
Hom(X_k, X_j) into Ext^1(X_k, X_i).  With the dimension vector, that profile
decodes the middle on a complete catalog, so no middle is assembled.  A user
catalog, or a failed decode, assembles the middle and identifies it through
``identify``, so a missing summand raises UnknownModule.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd
from operator import add, mul
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import (
    CapExceeded,
    CatalogError,
    Decomposable,
    DuplicateIso,
    EmptyCatalog,
    ParseError,
    ShapeError,
    UnknownModule,
)
from .linalg import (
    Mat,
    _block,
    _coeff_walk,
    _combine,
    _kron_rows,
    _pivot_insert,
    _pivot_rows,
    nullspace,
    rref,
    unpack_row,
)
from .rep import (
    Algebra,
    Morphism,
    Rep,
    SubRep,
    _hom_basis,
    _hom_system,
    direct_sum,
    hom_basis,
    hom_dim,
    image,
    is_isomorphic,
    kernel,
    morphism_from_coeffs,
    sub_to_rep,
    validate,
)

ModuleId = tuple  # sorted tuple of catalog indices, with multiplicity

# Most indecomposables a builtin may have: an:10 has 55, and an:11 (66) is refused.
BUILTIN_SIZE_CAP = 64


def mid_from_counts(counts: dict[int, int]) -> ModuleId:
    out = []
    for idx in sorted(counts):
        out.extend([idx] * counts[idx])
    return tuple(out)


def mid_add(a: ModuleId, b: ModuleId) -> ModuleId:
    return tuple(sorted(a + b))


class _ExtSpace(NamedTuple):
    """Ext^1 of one catalog pair: cocycles over coboundaries, in theta coordinates."""

    offs: tuple[int, ...]  # per arrow, the first theta coordinate of its block
    total: int  # number of theta coordinates
    coset: tuple  # packed cocycles whose classes are a basis of Z/B
    cobound: dict  # echelon rows of the coboundaries B, keyed by pivot column


class Catalog:
    """Indecomposables with derived tables; Hom bases and ``ext_table`` are built on first read.

    ``_systems`` keeps every common-support pair's Hom system for the catalog's life, on
    purpose: ``ext_table`` reads the matrices and ``hom_pair_basis`` the block offsets.
    """

    def __init__(self, algebra: Algebra, indecs: Sequence[Rep], names: Sequence[str],
                 complete: bool = False, trusted_indecomposable: bool = False):
        if not indecs:
            raise EmptyCatalog("a catalog needs at least one indecomposable")
        self.algebra = algebra
        self.indecs = tuple(indecs)
        self.names = tuple(names)
        self.complete = complete
        if len(self.names) != len(self.indecs):
            raise CatalogError("one name per indecomposable required")
        if len(set(self.names)) != len(self.names):
            raise CatalogError("duplicate module names")
        self._name_index = {n: i for i, n in enumerate(self.names)}
        for k, m in enumerate(self.indecs):
            if m.algebra != algebra:
                raise CatalogError(f"module {self.names[k]} is over a different algebra")
            msg = validate(m)
            if msg is not None:
                raise CatalogError(f"module {self.names[k]}: {msg}")
            if m.total_dim == 0:
                raise Decomposable(k, f"module {self.names[k]} is the zero module")
        self._rep_cache: dict[ModuleId, Rep] = {}
        self._id_cache: dict = {}
        n = len(self.indecs)
        support = [sum(1 << v for v, d in enumerate(m.dims) if d) for m in self.indecs]
        self._systems = {(i, j): _hom_system(self.indecs[i], self.indecs[j])
                         for i in range(n) for j in range(n) if support[i] & support[j]}
        self._hom_rows = {pair: nullspace(mat).rows for pair, (mat, _) in self._systems.items()}
        self._hom_bases: dict[tuple[int, int], list[Morphism]] = {}
        self.hom_dims = tuple(
            tuple(len(self._hom_rows.get((i, j), ())) for j in range(n)) for i in range(n)
        )
        self._check_entries(trusted_indecomposable)
        self._inverse = _invert_over_rationals(self.hom_dims)
        self.simples = tuple(k for k, m in enumerate(self.indecs) if m.total_dim == 1)
        self._vertex_simple = self._map_vertex_simples()
        self._closure_memo: dict = {}
        self._opposite: Optional["Catalog"] = None
        if not complete:  # a user catalog's table is its completeness check
            self.ext_table

    # -- basic queries ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.indecs)

    def index_of(self, name: str) -> int:
        if name not in self._name_index:
            raise ShapeError(f"unknown module name {name!r}")
        return self._name_index[name]

    def hom_pair_basis(self, i: int, j: int) -> list[Morphism]:
        """Hom(X_i, X_j) as morphisms, read off the pair's nullspace rows on first use."""
        if (i, j) not in self._hom_bases:
            rows = self._hom_rows.get((i, j), ())
            self._hom_bases[(i, j)] = _hom_basis(self.indecs[i], self.indecs[j], rows,
                                                 self._systems[(i, j)][1] if rows else ())
        return self._hom_bases[(i, j)]

    def rep_of(self, mid: ModuleId) -> Rep:
        """Assembled direct sum of the multiset, memoized."""
        mid = tuple(sorted(mid))
        if mid not in self._rep_cache:
            self._rep_cache[mid] = direct_sum(self.algebra, [self.indecs[k] for k in mid]).rep
        return self._rep_cache[mid]

    def dims_of(self, mid: ModuleId) -> tuple[int, ...]:
        dims = [0] * self.algebra.n_vertices
        for k in mid:
            for v, d in enumerate(self.indecs[k].dims):
                dims[v] += d
        return tuple(dims)

    # -- build-time verification ------------------------------------------------

    def _check_entries(self, trusted_indecomposable: bool) -> None:
        n = self.n
        profiles = [tuple(self.hom_dims[k][j] for k in range(n)) for j in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if profiles[i] == profiles[j]:  # isomorphic modules share their profile
                    if is_isomorphic(self.indecs[i], self.indecs[j]):
                        raise DuplicateIso(
                            f"modules {self.names[i]} and {self.names[j]} are isomorphic"
                        )
                    raise CatalogError(
                        f"modules {self.names[i]} and {self.names[j]} share a Hom profile"
                    )
        if trusted_indecomposable:
            return
        for k, m in enumerate(self.indecs):
            if _idempotent(m, self.hom_pair_basis(k, k)) is not None:
                raise Decomposable(k, f"module {self.names[k]} splits: End contains an idempotent")

    def _map_vertex_simples(self) -> tuple[Optional[int], ...]:
        out: list[Optional[int]] = [None] * self.algebra.n_vertices
        for k in self.simples:
            dims = self.indecs[k].dims
            v = dims.index(1)
            if out[v] is not None:
                raise CatalogError("two simples at one vertex; presentation is not admissible")
            out[v] = k
        return tuple(out)

    # -- extension middle terms --------------------------------------------------

    @cached_property
    def ext_table(self) -> dict[tuple[int, int], frozenset]:
        """Middle terms of every pair, built on first read: all Ext spaces, then all middles."""
        n = self.n
        spaces = {(i, j): self._ext_space(i, j, self._systems.get((j, i), (None,))[0])
                  for i in range(n) for j in range(n)}
        return {(i, j): frozenset(self._ext_middles(i, j, spaces))
                for i in range(n) for j in range(n)}

    def _cocycle_constraint(self, i: int, j: int) -> tuple[list[int], int, list]:
        """Theta offsets per arrow, their total, and the packed relation rows whose nullspace is Z.

        The middle acts on arrow a by [[L_a, theta_a], [0, N_a]], L = indec_i
        and N = indec_j.  A relation term c * q a r (paths q after a, r
        before) gives the rows c * (L(q) kron N(r)^T) on theta_a.
        """
        alg = self.algebra
        L, N = self.indecs[i], self.indecs[j]
        offs = []
        total = 0
        for a in alg.arrows:
            offs.append(total)
            total += L.dims[a.target] * N.dims[a.source]
        blocks = [[term for coeff, path in rel.terms if coeff
                   for term in _split_terms(coeff, path, L, N, offs)]
                  for rel in alg.relations]
        return offs, total, _kron_rows(alg.p, total, (b for b in blocks if b))

    def _ext_space(self, i: int, j: int, reverse: Optional[Mat]) -> _ExtSpace:
        """Ext^1(indec_j, indec_i) = Z/B in theta coordinates, eliminated only when nonzero.

        ``reverse`` is the Hom system of (j, i), None without unknowns; B is the
        row span of its transpose, in Z when the constraint vanishes on it.
        """
        p = self.algebra.p
        offs, total, rows = self._cocycle_constraint(i, j)
        constraint = Mat(p, len(rows), total, tuple(rows)) if rows else None
        zs = nullspace(constraint).rows if rows else None
        cobound_dim = 0 if reverse is None else reverse.ncols - self.hom_dims[j][i]
        if (total if zs is None else len(zs)) == cobound_dim:
            if cobound_dim and rows and not constraint.mul(reverse).is_zero:
                raise CatalogError("coboundaries escaped the cocycle space")
            return _ExtSpace(tuple(offs), total, (), {})
        cobound = _pivot_rows(p, reverse.transpose().rows) if reverse is not None else {}
        piv = dict(cobound)
        zs = Mat.identity(p, total).rows if zs is None else zs
        coset = tuple(z for z in zs if _pivot_insert(p, piv, z))
        if len(piv) != len(zs):
            raise CatalogError("coboundaries escaped the cocycle space")
        _coeff_walk(p, len(coset), True, "extension space", "middle-term search")
        return _ExtSpace(tuple(offs), total, coset, cobound)

    def _ext_middles(self, i: int, j: int, spaces: dict) -> set:
        """Middle terms of all extensions with submodule indec_i and quotient indec_j.

        theta differing by a coboundary give isomorphic middles, so theta runs
        over combinations of the coset basis of ``spaces[(i, j)]``, one per
        line; the zero combination is the split extension.  Every other middle is decoded
        from its dimension vector and Hom profile (_middle_profiles), or else
        assembled and identified.
        """
        middles = {tuple(sorted((i, j)))}
        L, N = self.indecs[i], self.indecs[j]
        dims = tuple(map(add, L.dims, N.dims))
        for theta, prof in self._middle_profiles(i, j, spaces):
            mid = self._class_of(dims, prof)
            if mid is None:
                mid = self.identify(self._assemble_extension(L, N, theta, spaces[(i, j)].offs))
            middles.add(mid)
        return middles

    def _middle_profiles(self, i: int, j: int, spaces: dict):
        """(packed theta, Hom profile of its middle E) for one non-split coset combination per line.

        Hom(X_k, -) on 0 -> X_i -> E -> X_j -> 0 gives dim Hom(X_k, E) =
        h(k, i) + h(k, j) - rank delta, where delta sends f in Hom(X_k, X_j) to
        the class of theta.f (theta_a f_s(a) on each arrow a) in Ext^1(X_k, X_i),
        the Z/B of the pair (i, k).  delta vanishes unless both spaces are
        nonzero.  theta.f is linear in theta, so each coset basis row is pulled
        back once per f.
        """
        p = self.algebra.p
        space = spaces[(i, j)]
        if not space.coset:
            return
        thetas = [unpack_row(p, z, space.total) for z in space.coset]
        h = self.hom_dims
        base = [h[k][i] + h[k][j] for k in range(self.n)]
        pulled = {
            k: [self._pull_back(thetas, i, k, f, spaces) for f in self.hom_pair_basis(k, j)]
            for k in range(self.n)
            if h[k][j] and spaces[(i, k)].coset
        }
        for coeffs in _coeff_walk(p, len(space.coset), True, "extension space", "middle-term search"):
            prof = list(base)
            for k, rows in pulled.items():
                piv = dict(spaces[(i, k)].cobound)
                prof[k] -= sum(_pivot_insert(p, piv, _combine(p, coeffs, row)) for row in rows)
            yield _combine(p, coeffs, space.coset), tuple(prof)

    def _pull_back(self, thetas: list, i: int, k: int, f: Morphism, spaces: dict) -> list:
        """theta.f, packed for the pair (i, k), for each theta of (i, j) given as entries.

        vec(theta_a f_s(a)) = (I kron f_s(a)^T) vec theta_a on each arrow a.
        """
        dst, lt, p = spaces[(i, k)], self.indecs[i].dims, self.algebra.p
        rows = _kron_rows(p, dst.total, (
            [(1, lt[a.target], f.comps[a.source], dst.offs[idx])]
            for idx, a in enumerate(self.algebra.arrows) if lt[a.target] and f.comps[a.source].nrows))
        return [_combine(p, theta, rows) for theta in thetas]

    def _assemble_extension(self, L: Rep, N: Rep, theta, offs: Sequence[int]) -> Rep:
        """The middle of a packed theta: arrow a acts by [[L_a, theta_a], [0, N_a]]."""
        p = self.algebra.p
        mats = []
        for idx, a in enumerate(self.algebra.arrows):
            ls, lt, ns = L.dims[a.source], L.dims[a.target], N.dims[a.source]
            rows = _kron_rows(p, ls + ns, ([(1, 1, L.mats[idx], 0),
                                            (1, 1, _block(p, theta, offs[idx], lt, ns), ls)],
                                           [(1, 1, N.mats[idx], ls)]))
            mats.append(Mat(p, len(rows), ls + ns, tuple(rows)))
        return Rep(self.algebra, tuple(map(add, L.dims, N.dims)), tuple(mats))

    def ext_middle_terms(self, i: int, j: int) -> frozenset:
        """All middle-term decompositions for extensions of indec_j by indec_i, from ``ext_table``."""
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ShapeError("catalog index out of range")
        return self.ext_table[(i, j)]

    # -- identification -----------------------------------------------------------

    def profile(self, m: Rep) -> tuple[int, ...]:
        """Hom dimensions from each catalog member into m."""
        return tuple(hom_dim(self.indecs[k], m) for k in range(self.n))

    def identify(self, m: Rep) -> ModuleId:
        """Multiset of catalog indices with m isomorphic to the matching sum.

        Off a complete catalog the decoded profile is only a candidate, kept
        when an isomorphism search confirms it, else m is split by idempotents.
        """
        if m.algebra != self.algebra:
            raise ShapeError("module is over a different algebra")
        if m.total_dim == 0:
            return ()
        prof = self.profile(m)
        mid = self._class_of(m.dims, prof)
        if mid is not None:
            return mid
        mid = self._decode(m.dims, prof)
        if mid is not None and is_isomorphic(m, self.rep_of(mid)):
            return mid
        return self._identify_by_splitting(m)

    def identify_sub(self, s: SubRep) -> ModuleId:
        if s.total_dim == 0:
            return ()
        return self.identify(sub_to_rep(s)[0])

    def _class_of(self, dims: tuple[int, ...], prof: tuple[int, ...]) -> Optional[ModuleId]:
        """On a complete catalog, the memoized class this profile decodes to; else None."""
        key = (dims, prof)
        if self.complete and key not in self._id_cache:
            self._id_cache[key] = self._decode(dims, prof)
        return self._id_cache.get(key)

    def _decode(self, dims: tuple[int, ...], prof: tuple[int, ...]) -> Optional[ModuleId]:
        """The multiset with this Hom profile and dimension vector, or None if none decodes.

        On a complete catalog the profile fixes the class; otherwise the
        answer is only a candidate for an isomorphism check.
        """
        if self._inverse is None:
            return None
        mults = _apply_inverse(*self._inverse, prof)
        if mults is None or any(x < 0 for x in mults):
            return None
        mid = mid_from_counts({k: x for k, x in enumerate(mults) if x})
        return mid if self.dims_of(mid) == dims else None

    def _identify_by_splitting(self, m: Rep) -> ModuleId:
        """Recursive idempotent splitting, then matching each indec summand."""
        e = find_nontrivial_idempotent(m)
        if e is not None:
            lhs, _ = sub_to_rep(image(e))
            rhs, _ = sub_to_rep(kernel(e))
            return mid_add(self._identify_by_splitting(lhs), self._identify_by_splitting(rhs))
        for k, cand in enumerate(self.indecs):
            if cand.dims == m.dims and is_isomorphic(m, cand):
                return (k,)
        raise UnknownModule(
            f"indecomposable of dimension vector {m.dims} is not in the catalog"
        )

    # -- composition factors ---------------------------------------------------------

    def composition_factors(self, m: Rep) -> ModuleId:
        """Multiset of simple indices; the dimension vector read against vertex simples."""
        out: dict[int, int] = {}
        for v, d in enumerate(m.dims):
            if d == 0:
                continue
            k = self._vertex_simple[v]
            if k is None:
                raise UnknownModule(f"no simple at vertex {self.algebra.vertices[v]} in the catalog")
            out[k] = out.get(k, 0) + d
        return mid_from_counts(out)

    # -- opposite catalog ------------------------------------------------------------

    def opposite(self) -> "Catalog":
        """Catalog over the opposite algebra: arrows reversed, matrices transposed."""
        if self._opposite is None:
            alg_op = self.algebra.opposite()
            reps = []
            for m in self.indecs:
                mats = tuple(mat.transpose() for mat in m.mats)
                reps.append(Rep(alg_op, m.dims, mats))
            self._opposite = Catalog(alg_op, reps, self.names, complete=self.complete,
                                     trusted_indecomposable=True)
        return self._opposite

    # -- serialization -----------------------------------------------------------------

    def to_json(self) -> dict:
        alg = self.algebra
        return {
            "algebra": algebra_to_json(alg),
            "indecomposables": [
                {
                    "name": self.names[k],
                    "dims": {alg.vertices[v]: m.dims[v] for v in range(alg.n_vertices)},
                    "matrices": {
                        a.name: m.mats[ai].to_lists() for ai, a in enumerate(alg.arrows)
                    },
                }
                for k, m in enumerate(self.indecs)
            ],
            "hom_dims": [list(row) for row in self.hom_dims],
            "simples": [self.names[k] for k in self.simples],
            "ext_table": [
                {
                    "sub": self.names[i],
                    "quot": self.names[j],
                    "middles": sorted(
                        sorted(self.names[k] for k in mid) for mid in self.ext_table[(i, j)]
                    ),
                }
                for i in range(self.n)
                for j in range(self.n)
            ],
        }


# -- helpers --------------------------------------------------------------------------


def _split_terms(coeff: int, path: Sequence[int], L: Rep, N: Rep, offs: Sequence[int]):
    """The terms (coeff, L(after a), N(before a)^T, offset of theta_a) of a path split at each arrow a.

    Path matrices grow one product at a time; a term with a zero factor is dropped.
    """
    arrows = L.algebra.arrows
    post = [L.dims[arrows[path[-1]].target]]
    for a in reversed(path[1:]):
        post.append(L.mats[a] if isinstance(post[-1], int) else post[-1].mul(L.mats[a]))
    pre = N.dims[arrows[path[0]].source]
    for a, after in zip(path, reversed(post)):
        if not any(isinstance(f, Mat) and f.is_zero for f in (pre, after)):
            yield coeff, after, pre, offs[a]
        pre = pre.mul(N.transposed(a)) if isinstance(pre, Mat) else N.transposed(a)


def _nonunits(m: Rep, basis: Sequence[Morphism],
              test: str) -> Iterator[tuple[tuple[int, ...], Morphism]]:
    """(coefficients, map) for each nonzero endomorphism of m that is not invertible.

    The one walk over End(m), in coefficient order over ``basis``: the
    idempotent search's, and the brick test's once every basis map is a unit.
    Nothing when dim End = 1, since End = k then (or m = 0).  c*e is
    idempotent only if c = 1, so ``linalg.COEFF_WALK_BUDGET`` counts p^dim End.
    """
    if len(basis) == 1:
        return
    for coeffs in _coeff_walk(m.algebra.p, len(basis), False, "End space", test):
        if any(coeffs):
            f = morphism_from_coeffs(basis, coeffs, m, m)
            if _is_nonunit(m, f):
                yield coeffs, f


def _is_nonunit(m: Rep, f: Morphism) -> bool:
    return any(rref(c).rank < d for c, d in zip(f.comps, m.dims))


def find_nontrivial_idempotent(m: Rep) -> Optional[Morphism]:
    """A non-zero, non-identity idempotent endomorphism, if one exists: a non-unit e = e.e."""
    return _idempotent(m, hom_basis(m, m))


def _idempotent(m: Rep, basis: Sequence[Morphism]) -> Optional[Morphism]:
    return next((e for _, e in _nonunits(m, basis, "idempotent search")
                 if e.compose(e) == e), None)


def is_brick(m: Rep) -> bool:
    """Is End(m) a division ring: is m nonzero with no nonzero non-unit endomorphism?

    End = k needs no linear algebra, and a non-unit basis map answers no, so
    the End walk runs only when every basis map is a unit.
    """
    return _is_brick(m, hom_basis(m, m))


def _is_brick(m: Rep, basis: Sequence[Morphism]) -> bool:
    if len(basis) <= 1:
        return bool(basis)
    return (not any(_is_nonunit(m, f) for f in basis)
            and next(_nonunits(m, basis, "brick test"), None) is None)


def _invert_over_rationals(rows: Sequence[Sequence[int]]) -> Optional[tuple[list[list[int]], int]]:
    """(A, D) with A = D * rows^-1 integral for the least positive D; None when singular.

    Fraction-free Gauss-Jordan (Bareiss) on [rows | I]: each step's division
    by the previous pivot is exact, and the end state is [d*I | d*rows^-1]
    with d = +-det.  Then D = |d| / gcd(d, entries of d*rows^-1).
    """
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    d = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        top = aug[col]
        pk = top[col]
        for i in range(n):
            c = aug[i][col]
            if i != col and (c or pk != d):  # else the update is the identity
                aug[i] = [(pk * x - c * y) // d for x, y in zip(aug[i], top)]
        d = pk
    g = gcd(d, *(x for row in aug for x in row[n:]))
    sign = 1 if d > 0 else -1
    return [[sign * x // g for x in row[n:]] for row in aug], abs(d) // g


def _apply_inverse(a: Sequence[Sequence[int]], d: int, vec: Sequence[int]) -> Optional[tuple[int, ...]]:
    """(a @ vec) / d when every entry is an integer, else None."""
    out = []
    for row in a:
        q, rem = divmod(sum(map(mul, row, vec)), d)
        if rem:
            return None
        out.append(q)
    return tuple(out)


# -- builtin catalogs --------------------------------------------------------------------


def _interval_rep(alg: Algebra, n: int, a: int, b: int) -> Rep:
    """Interval module on vertices a..b (1-based), identity arrows inside."""
    dims = tuple(1 if a <= v + 1 <= b else 0 for v in range(n))
    mats = []
    for arr in alg.arrows:
        lo, hi = min(arr.source, arr.target) + 1, max(arr.source, arr.target) + 1
        if a <= lo and hi <= b:
            mats.append(Mat.identity(alg.p, 1))
        else:
            mats.append(Mat.zeros(alg.p, dims[arr.target], dims[arr.source]))
    return Rep(alg, dims, tuple(mats))


def _build_an(n: int, word: str, p: int, letter_names: bool = False) -> Catalog:
    if n < 1:
        raise ParseError(f"a_n needs n >= 1, got {n}")
    if len(word) != max(n - 1, 0):
        raise ParseError(f"orientation word must have length {n - 1}, got {word!r}")
    vertices = [str(i + 1) for i in range(n)]
    arrows = []
    for k, ch in enumerate(word):
        if ch == ">":
            arrows.append((f"a{k + 1}", str(k + 1), str(k + 2)))
        elif ch == "<":
            arrows.append((f"a{k + 1}", str(k + 2), str(k + 1)))
        else:
            raise ParseError(f"orientation word may only contain '>' and '<', got {ch!r}")
    alg = Algebra.build(p, vertices, arrows)
    if letter_names:
        intervals = [(2, 2), (1, 2), (1, 1)]
        names = ["A", "B", "C"]
    else:
        intervals = [(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]
        names = [f"[{a}-{b}]" for a, b in intervals]
    reps = [_interval_rep(alg, n, a, b) for a, b in intervals]
    return Catalog(alg, reps, names, complete=True, trusted_indecomposable=True)


def _build_uniserial(n: int, p: int) -> Catalog:
    if n < 1:
        raise ParseError(f"uniserial needs n >= 1, got {n}")
    alg = Algebra.build(p, ["1"], [("x", "1", "1")], [[(1, ["x"] * n)]])
    reps = []
    for i in range(1, n + 1):
        rows = [[1 if c == r - 1 else 0 for c in range(i)] for r in range(i)]
        reps.append(Rep(alg, (i,), (Mat.from_rows(p, rows, ncols=i),)))
    names = [f"M{i}" for i in range(1, n + 1)]
    return Catalog(alg, reps, names, complete=True, trusted_indecomposable=True)


def build_builtin(descriptor: str, p: int = 2) -> Catalog:
    """Construct a builtin catalog from a descriptor string.

    Supported: ``a2``, ``a3``, ``an:<n>``, ``an:<n>:<word>`` with a word over
    ``>``/``<``, and ``uniserial:<n>``.  A catalog of more than
    BUILTIN_SIZE_CAP indecomposables (n(n+1)/2 for ``an``, n for
    ``uniserial``) raises CapExceeded before anything is built.
    """
    parts = descriptor.split(":")
    kind = parts[0].lower()
    if kind == "a2" and len(parts) == 1:
        return _build_an(2, ">", p, letter_names=True)
    if kind == "a3" and len(parts) == 1:
        return _build_an(3, ">>", p)
    if kind == "an":
        if len(parts) not in (2, 3):
            raise ParseError(f"bad builtin descriptor {descriptor!r}")
        n = _parse_int(parts[1], descriptor)
        _check_size(descriptor, max(n, 0) * (n + 1) // 2)
        return _build_an(n, parts[2] if len(parts) == 3 else ">" * (n - 1), p)
    if kind == "uniserial" and len(parts) == 2:
        n = _parse_int(parts[1], descriptor)
        _check_size(descriptor, n)
        return _build_uniserial(n, p)
    raise ParseError(f"unknown builtin descriptor {descriptor!r}")


def _check_size(descriptor: str, size: int) -> None:
    if size > BUILTIN_SIZE_CAP:
        raise CapExceeded(f"builtin {descriptor} has {size} indecomposables, "
                          f"over the cap of {BUILTIN_SIZE_CAP}")


def _parse_int(text: str, context: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected an integer in {context!r}") from None


# -- JSON formats ---------------------------------------------------------------------------


def algebra_to_json(alg: Algebra) -> dict:
    return {
        "field_char": alg.p,
        "vertices": list(alg.vertices),
        "arrows": [
            {"name": a.name, "from": alg.vertices[a.source], "to": alg.vertices[a.target]}
            for a in alg.arrows
        ],
        "relations": [
            [
                {"coeff": coeff, "path": [alg.arrows[t].name for t in path]}
                for coeff, path in rel.terms
            ]
            for rel in alg.relations
        ],
    }
