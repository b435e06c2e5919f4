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
integer dot products and a divisibility test by D.

The extension table is built in two passes.  First, per pair (i, j), one
elimination grows the echelon rows of the coboundaries B by the cocycles Z;
the cocycles that grow them are a basis of Ext^1(X_j, X_i) = Z/B.  Then the
zero class is the split middle X_i + X_j, by Krull-Schmidt, and each other
class theta has its Hom profile read off the long exact sequence:
dim Hom(X_k, E) = h(k, i) + h(k, j) - rank of f -> [theta.f] from
Hom(X_k, X_j) into Ext^1(X_k, X_i).  With the dimension vector, that profile
decodes the middle on a complete catalog, so no middle term is assembled or
solved for Hom.  A user catalog, or a failed decode, assembles the middle and
identifies it with that profile, so a missing summand raises UnknownModule.

The mu bounds (how many copies of an indecomposable a morphism into another
can need) serve only the bounded kernel search, so they are built on its
first use, not at catalog build.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from math import gcd
from operator import add, mul
from typing import NamedTuple, Optional, Sequence

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
    Subspace,
    _combine,
    _pivot_insert,
    _pivot_rows,
    nullspace,
    pack_row,
    rref,
    unpack_row,
)
from .rep import (
    Algebra,
    Morphism,
    Rep,
    SubRep,
    all_submodules,
    direct_sum,
    hom_basis,
    hom_dim,
    image,
    is_isomorphic,
    kernel,
    morphism_from_coeffs,
    quotient,
    sub_to_rep,
    validate,
)

ModuleId = tuple  # sorted tuple of catalog indices, with multiplicity

EXT_COSET_CAP = 16
ISO_SEARCH_CAP = 1 << 16
END_ENUM_CAP = 1 << 16


def mid_from_counts(counts: dict[int, int]) -> ModuleId:
    out = []
    for idx in sorted(counts):
        out.extend([idx] * counts[idx])
    return tuple(out)


def mid_counts(mid: ModuleId) -> dict[int, int]:
    counts: dict[int, int] = {}
    for idx in mid:
        counts[idx] = counts.get(idx, 0) + 1
    return counts


def mid_add(a: ModuleId, b: ModuleId) -> ModuleId:
    return tuple(sorted(a + b))


class _ExtSpace(NamedTuple):
    """Ext^1 of one catalog pair: cocycles over coboundaries, in theta coordinates."""

    offs: tuple[int, ...]  # per arrow, the first theta coordinate of its block
    total: int  # number of theta coordinates
    coset: tuple  # packed cocycles whose classes are a basis of Z/B
    cobound: dict  # echelon rows of the coboundaries B, keyed by pivot column


class Catalog:
    """Immutable-after-build list of indecomposables with derived tables."""

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
        self._hom_bases: dict[tuple[int, int], list[Morphism]] = {}
        n = len(self.indecs)
        for i in range(n):
            for j in range(n):
                self._hom_bases[(i, j)] = hom_basis(self.indecs[i], self.indecs[j])
        self.hom_dims = tuple(
            tuple(len(self._hom_bases[(i, j)]) for j in range(n)) for i in range(n)
        )
        self._check_entries(trusted_indecomposable)
        self._inverse = _invert_over_rationals(self.hom_dims)
        self.simples = tuple(k for k, m in enumerate(self.indecs) if m.total_dim == 1)
        self._vertex_simple = self._map_vertex_simples()
        spaces = {(i, j): self._ext_space(i, j) for i in range(n) for j in range(n)}
        self.ext_table: dict[tuple[int, int], frozenset] = {
            (i, j): frozenset(self._ext_middles(i, j, spaces)) for i in range(n) for j in range(n)
        }
        self._mu_tables: Optional[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]] = None
        self._subq_cache: dict[int, frozenset[int]] = {}
        self._closure_memo: dict = {}
        self._opposite: Optional["Catalog"] = None

    # -- basic queries ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.indecs)

    def index_of(self, name: str) -> int:
        if name not in self._name_index:
            raise ShapeError(f"unknown module name {name!r}")
        return self._name_index[name]

    def hom_pair_basis(self, i: int, j: int) -> list[Morphism]:
        return self._hom_bases[(i, j)]

    def mu_bound(self, i: int, j: int) -> int:
        return self._mu_and_saturation()[0][i][j]

    @property
    def saturation(self) -> tuple[int, ...]:
        """Per indecomposable, the largest mu bound into any catalog member (at least 1)."""
        return self._mu_and_saturation()[1]

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
                if is_isomorphic(self.indecs[i], self.indecs[j], ISO_SEARCH_CAP):
                    raise DuplicateIso(
                        f"modules {self.names[i]} and {self.names[j]} are isomorphic"
                    )
                if profiles[i] == profiles[j]:
                    raise CatalogError(
                        f"modules {self.names[i]} and {self.names[j]} share a Hom profile"
                    )
        if trusted_indecomposable:
            return
        for k, m in enumerate(self.indecs):
            e = find_nontrivial_idempotent(m, END_ENUM_CAP)
            if e is not None:
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

    def _cocycles(self, i: int, j: int) -> tuple[list[int], Mat]:
        """Theta offsets per arrow, and the cocycles Z of the pair as an RREF basis.

        The middle is parameterized on blocks [[L_a, theta_a], [0, N_a]] with
        L = indec_i and N = indec_j; the relation constraints make the
        admissible theta a linear space.
        """
        alg = self.algebra
        p = alg.p
        L, N = self.indecs[i], self.indecs[j]
        offs = []
        total = 0
        for a in alg.arrows:
            offs.append(total)
            total += L.dims[a.target] * N.dims[a.source]

        def theta_index(arrow_idx: int, r: int, c: int) -> int:
            a = alg.arrows[arrow_idx]
            return offs[arrow_idx] + r * N.dims[a.source] + c

        rows = []
        for rel in alg.relations:
            block_rows = L.dims[rel.target]
            block_cols = N.dims[rel.source]
            coeff_rows = [[0] * total for _ in range(block_rows * block_cols)]
            for coeff, path in rel.terms:
                if coeff == 0:
                    continue
                for t in range(len(path)):
                    pre = path[:t]
                    post = path[t + 1 :]
                    npre = _path_matrix_or_identity(N, pre, alg.arrows[path[t]].source)
                    lpost = _path_matrix_or_identity(L, post, alg.arrows[path[t]].target)
                    a_t = path[t]
                    tg = alg.arrows[a_t].target
                    sr = alg.arrows[a_t].source
                    for r in range(block_rows):
                        for c in range(block_cols):
                            out_row = coeff_rows[r * block_cols + c]
                            for alpha in range(L.dims[tg]):
                                la = lpost.entry(r, alpha)
                                if la == 0:
                                    continue
                                for beta in range(N.dims[sr]):
                                    nb = npre.entry(beta, c)
                                    if nb == 0:
                                        continue
                                    idx = theta_index(a_t, alpha, beta)
                                    out_row[idx] = (out_row[idx] + coeff * la * nb) % p
            rows.extend(tuple(r) for r in coeff_rows)
        if rows:
            constraint = Mat.from_rows(p, [list(r) for r in rows], ncols=total)
            return offs, nullspace(constraint)
        return offs, Mat.identity(p, total)

    def _ext_space(self, i: int, j: int) -> _ExtSpace:
        """Ext^1(indec_j, indec_i) = Z/B in theta coordinates, in one elimination.

        The coboundaries B are the theta = L*s - s*N for s running over unit
        matrices at each vertex.  Their echelon rows are grown by the cocycle
        basis; the cocycles that grow them are a basis of Z/B, and B lies in Z
        exactly when the final rank is dim Z.
        """
        alg = self.algebra
        p = alg.p
        L, N = self.indecs[i], self.indecs[j]
        offs, cocycles = self._cocycles(i, j)
        cobound_rows = []
        for v in range(alg.n_vertices):
            for r in range(L.dims[v]):
                for c in range(N.dims[v]):
                    vec = [0] * cocycles.ncols
                    for a_idx, a in enumerate(alg.arrows):
                        if a.source == v:
                            for alpha in range(L.dims[a.target]):
                                la = L.mats[a_idx].entry(alpha, r)
                                if la:
                                    idx = offs[a_idx] + alpha * N.dims[a.source] + c
                                    vec[idx] = (vec[idx] + la) % p
                        if a.target == v:
                            for beta in range(N.dims[a.source]):
                                nb = N.mats[a_idx].entry(c, beta)
                                if nb:
                                    idx = offs[a_idx] + r * N.dims[a.source] + beta
                                    vec[idx] = (vec[idx] - nb) % p
                    cobound_rows.append(pack_row(p, vec))
        cobound = _pivot_rows(p, cobound_rows)
        piv = dict(cobound)
        coset = tuple(z for z in cocycles.rows if _pivot_insert(p, piv, z))
        if len(piv) != cocycles.nrows:
            raise CatalogError("coboundaries escaped the cocycle space")
        if len(coset) > EXT_COSET_CAP:
            raise CapExceeded(
                f"extension space of dimension {len(coset)} exceeds cap {EXT_COSET_CAP}"
            )
        return _ExtSpace(tuple(offs), cocycles.ncols, coset, cobound)

    def _ext_middles(self, i: int, j: int, spaces: dict) -> set:
        """Middle terms of all extensions with submodule indec_i and quotient indec_j.

        theta differing by a coboundary give isomorphic middles, so theta runs
        over combinations of the coset basis of ``spaces[(i, j)]``.  The zero
        combination is the split extension, indec_i + indec_j.  Every other
        middle is decoded from its dimension vector and its Hom profile, read
        off the long exact sequence (_middle_profiles).  Only a catalog not
        marked complete, or a failed decode, assembles the middle and
        identifies it with that profile.
        """
        middles = {tuple(sorted((i, j)))}
        p = self.algebra.p
        space = spaces[(i, j)]
        L, N = self.indecs[i], self.indecs[j]
        dims = tuple(map(add, L.dims, N.dims))
        for theta, prof in self._middle_profiles(i, j, spaces):
            key = (dims, prof)
            mid = self._id_cache.get(key)
            if mid is None and self.complete:
                mid = self._decode(dims, prof)
            if mid is None:
                m = self._assemble_extension(L, N, unpack_row(p, theta, space.total), space.offs)
                mid = self._identify_uncached(m, prof)
            if self.complete:
                self._id_cache[key] = mid
            middles.add(mid)
        return middles

    def _middle_profiles(self, i: int, j: int, spaces: dict):
        """(packed theta, Hom profile of its middle E) for each non-split coset combination.

        Hom(X_k, -) on 0 -> X_i -> E -> X_j -> 0 gives dim Hom(X_k, E) =
        h(k, i) + h(k, j) - rank delta, where delta sends f in Hom(X_k, X_j) to
        the class of theta.f (theta_a f_s(a) on each arrow a) in Ext^1(X_k, X_i),
        the Z/B of the pair (i, k).  delta vanishes unless both spaces are
        nonzero.  theta.f is linear in theta, so it is pulled back once per
        coset basis row.
        """
        p = self.algebra.p
        coset = spaces[(i, j)].coset
        if not coset:
            return
        h = self.hom_dims
        base = [h[k][i] + h[k][j] for k in range(self.n)]
        pulled = {
            k: [[self._pull_back(z, i, j, k, f, spaces) for z in coset]
                for f in self.hom_pair_basis(k, j)]
            for k in range(self.n)
            if h[k][j] and spaces[(i, k)].coset
        }
        for coeffs in product(range(p), repeat=len(coset)):
            if not any(coeffs):
                continue
            prof = list(base)
            for k, rows in pulled.items():
                piv = dict(spaces[(i, k)].cobound)
                prof[k] -= sum(_pivot_insert(p, piv, _combine(p, coeffs, row)) for row in rows)
            yield _combine(p, coeffs, coset), tuple(prof)

    def _pull_back(self, theta, i: int, j: int, k: int, f: Morphism, spaces: dict):
        """theta.f for f: X_k -> X_j, packed in the theta coordinates of the pair (i, k)."""
        alg = self.algebra
        p = alg.p
        src, dst = spaces[(i, j)], spaces[(i, k)]
        lt_dims, ns_dims, ks_dims = self.indecs[i].dims, self.indecs[j].dims, self.indecs[k].dims
        entries = unpack_row(p, theta, src.total)
        out = [0] * dst.total
        for a_idx, a in enumerate(alg.arrows):
            ns, ks = ns_dims[a.source], ks_dims[a.source]
            fs = f.comps[a.source].to_lists()
            for r in range(lt_dims[a.target]):
                row = entries[src.offs[a_idx] + r * ns : src.offs[a_idx] + (r + 1) * ns]
                for c in range(ks):
                    out[dst.offs[a_idx] + r * ks + c] = sum(
                        x * fs[e][c] for e, x in enumerate(row)
                    ) % p
        return pack_row(p, out)

    def _assemble_extension(self, L: Rep, N: Rep, theta_entries: Sequence[int],
                            offs: Sequence[int]) -> Rep:
        alg = self.algebra
        p = alg.p
        dims = tuple(L.dims[v] + N.dims[v] for v in range(alg.n_vertices))
        mats = []
        for a_idx, a in enumerate(alg.arrows):
            lt, ns = L.dims[a.target], N.dims[a.source]
            theta_rows = [
                [theta_entries[offs[a_idx] + r * ns + c] for c in range(ns)] for r in range(lt)
            ]
            theta = Mat.from_rows(p, theta_rows, ncols=ns)
            block = Mat.block(
                p,
                [[L.mats[a_idx], theta], [None, N.mats[a_idx]]],
                [L.dims[a.target], N.dims[a.target]],
                [L.dims[a.source], N.dims[a.source]],
            )
            mats.append(block)
        return Rep(alg, dims, tuple(mats))

    def ext_middle_terms(self, i: int, j: int) -> frozenset:
        """All middle-term decompositions for extensions of indec_j by indec_i."""
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ShapeError("catalog index out of range")
        return self.ext_table[(i, j)]

    # -- identification -----------------------------------------------------------

    def profile(self, m: Rep) -> tuple[int, ...]:
        """Hom dimensions from each catalog member into m."""
        return tuple(hom_dim(self.indecs[k], m) for k in range(self.n))

    def identify(self, m: Rep) -> ModuleId:
        """Multiset of catalog indices with m isomorphic to the matching sum."""
        if m.algebra != self.algebra:
            raise ShapeError("module is over a different algebra")
        if m.total_dim == 0:
            return ()
        prof = self.profile(m)
        key = (m.dims, prof)
        if self.complete and key in self._id_cache:
            return self._id_cache[key]
        mid = self._identify_uncached(m, prof)
        if self.complete:
            self._id_cache[key] = mid
        return mid

    def identify_sub(self, s: SubRep) -> ModuleId:
        if s.total_dim == 0:
            return ()
        return self.identify(sub_to_rep(s)[0])

    def _identify_uncached(self, m: Rep, prof: tuple[int, ...]) -> ModuleId:
        mid = self._decode(m.dims, prof)
        if mid is not None and (
            self.complete or is_isomorphic(m, self.rep_of(mid), ISO_SEARCH_CAP)
        ):
            return mid
        return self._identify_by_splitting(m)

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
        e = find_nontrivial_idempotent(m, END_ENUM_CAP)
        if e is not None:
            lhs, _ = sub_to_rep(image(e))
            rhs, _ = sub_to_rep(kernel(e))
            return mid_add(self._identify_by_splitting(lhs), self._identify_by_splitting(rhs))
        for k, cand in enumerate(self.indecs):
            if cand.dims == m.dims and is_isomorphic(m, cand, ISO_SEARCH_CAP):
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

    # -- submodule and quotient classes ------------------------------------------------

    def subquotient_indices(self, i: int) -> frozenset[int]:
        """Catalog indices appearing in submodules or quotients of indec_i."""
        if i not in self._subq_cache:
            found: set[int] = set()
            m = self.indecs[i]
            for s in all_submodules(m):
                found.update(self.identify_sub(s))
                q, _ = quotient(m, s)
                found.update(self.identify(q))
            self._subq_cache[i] = frozenset(found)
        return self._subq_cache[i]

    # -- source multiplicity reduction bounds -------------------------------------------

    def _mu_and_saturation(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """The mu table and the saturation, built on first use by the kernel search.

        Concurrent first callers may each build them; both are pure functions
        of the catalog, and one assignment publishes the pair.
        """
        if self._mu_tables is None:
            n = self.n
            mu = tuple(tuple(self._mu_bound(i, j) for j in range(n)) for i in range(n))
            saturation = tuple(max(1, max(row)) for row in mu)
            self._mu_tables = (mu, saturation)
        return self._mu_tables

    def _mu_bound(self, i: int, j: int) -> int:
        """How many copies of indec_i a morphism into indec_j can need.

        Any map from indec_i^m into indec_j can be column-reduced by an
        automorphism of the source so that at most mu copies act nontrivially,
        where mu bounds the generator count of every End(indec_i)-submodule of
        Hom(indec_i, indec_j).  dim Hom is always a safe fallback.
        """
        h = len(self._hom_bases[(i, j)])
        if h <= 1:
            return h
        p = self.algebra.p
        ebasis = self._hom_bases[(i, i)]
        de = len(ebasis)
        if de > 8 or h > 5 or p**de > 4096 or (p > 2 and h > 3):
            return h
        homs = self._hom_bases[(i, j)]
        src = self.indecs[i]
        from .rep import morphism_coords

        actions = []
        for e in ebasis:
            rows = [morphism_coords(homs, homs[k].compose(e)) for k in range(h)]
            actions.append(Mat.from_rows(p, [list(r) for r in rows], ncols=h))
        nonunits = []
        for coeffs in product(range(p), repeat=de):
            f = morphism_from_coeffs(ebasis, coeffs, src, src)
            if not all(rref(c).rank == d for c, d in zip(f.comps, src.dims)):
                nonunits.append(list(coeffs))
        rad = Subspace.span(p, de, nonunits)
        if p**rad.dim != len(nonunits):
            return h
        residue_dim = de - rad.dim
        rad_actions = []
        for r in range(rad.dim):
            coeffs = rad.basis.row_entries(r)
            acc = Mat.zeros(p, h, h)
            for c, act in zip(coeffs, actions):
                if c:
                    acc = acc.add(act.scale(c))
            rad_actions.append(acc)
        best = 1
        for w in _enumerate_subspaces(p, h):
            if w.dim == 0:
                continue
            if not all(
                w.contains(Subspace.from_matrix_rows(w.basis.mul(act))) for act in actions
            ):
                continue
            wrad = Subspace.zero(p, h)
            for act in rad_actions:
                wrad = wrad.add(Subspace.from_matrix_rows(w.basis.mul(act)))
            over = w.dim - wrad.dim
            if over % residue_dim:
                return h
            best = max(best, over // residue_dim)
        return best

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


def _path_matrix_or_identity(rep: Rep, path: Sequence[int], endpoint: int) -> Mat:
    """Path matrix on rep, or the identity on the given vertex for empty paths."""
    if not path:
        return Mat.identity(rep.algebra.p, rep.dims[endpoint])
    from .rep import path_matrix

    return path_matrix(rep, path)


def find_nontrivial_idempotent(m: Rep, cap: int = END_ENUM_CAP) -> Optional[Morphism]:
    """A non-zero, non-identity idempotent endomorphism, if one exists.

    None at once when dim End = 1, since the only idempotents of k are 0
    and 1.  Otherwise enumerates the endomorphism space; raises CapExceeded
    when p^dim End exceeds the cap.
    """
    if m.total_dim == 0:
        return None
    basis = hom_basis(m, m)
    if len(basis) == 1:
        return None
    p = m.algebra.p
    if p ** len(basis) > cap:
        raise CapExceeded(f"End space of dimension {len(basis)} exceeds idempotent search cap")
    ident = Morphism.identity(m).comps
    for coeffs in product(range(p), repeat=len(basis)):
        if not any(coeffs):
            continue
        e = morphism_from_coeffs(basis, coeffs, m, m)
        if e.comps == ident:
            continue
        sq = tuple(c.mul(c2) for c, c2 in zip(e.comps, e.comps))
        if sq == e.comps:
            return e
    return None


def is_brick(m: Rep, cap: int = END_ENUM_CAP) -> bool:
    """Is End(m) a division ring: is every nonzero endomorphism invertible?

    dim End = 1 suffices but is not necessary, since End can be a field
    F_{p^k}.  Otherwise enumerates the endomorphism space; raises
    CapExceeded when p^dim End exceeds the cap.
    """
    if m.total_dim == 0:
        return False
    basis = hom_basis(m, m)
    if len(basis) == 1:
        return True
    p = m.algebra.p
    if p ** len(basis) > cap:
        raise CapExceeded(f"End space of dimension {len(basis)} exceeds brick test cap")
    for coeffs in product(range(p), repeat=len(basis)):
        if not any(coeffs):
            continue
        f = morphism_from_coeffs(basis, coeffs, m, m)
        if any(rref(c).rank < d for c, d in zip(f.comps, m.dims)):
            return False
    return True


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
            if i != col:
                c = aug[i][col]
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


# -- subspace enumeration (for the mu bounds) -------------------------------------------


@cache
def _enumerate_subspaces(p: int, dim: int) -> tuple[Subspace, ...]:
    """All subspaces of F_p^dim by breadth-first span growth (small dim only).

    Memoized per (p, dim): `_mu_bound` asks for it once per Hom pair, and its
    guard keeps dim at most 5, so there are few keys; the values are immutable.
    """
    zero = Subspace.zero(p, dim)
    vectors = [pack_row(p, v) for v in product(range(p), repeat=dim) if any(v)]
    seen = {zero.basis.rows: zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for sp in frontier:
            for vec in vectors:
                if sp.has_vector(vec):
                    continue
                grown = sp.add(Subspace.from_matrix_rows(Mat(p, 1, dim, (vec,))))
                if grown.basis.rows not in seen:
                    seen[grown.basis.rows] = grown
                    nxt.append(grown)
        frontier = nxt
    return tuple(seen.values())


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
    ``>``/``<``, and ``uniserial:<n>``.
    """
    parts = descriptor.split(":")
    kind = parts[0].lower()
    if kind == "a2" and len(parts) == 1:
        return _build_an(2, ">", p, letter_names=True)
    if kind == "a3" and len(parts) == 1:
        return _build_an(3, ">>", p)
    if kind == "an":
        if len(parts) == 2:
            n = _parse_int(parts[1], descriptor)
            return _build_an(n, ">" * (n - 1), p)
        if len(parts) == 3:
            n = _parse_int(parts[1], descriptor)
            return _build_an(n, parts[2], p)
        raise ParseError(f"bad builtin descriptor {descriptor!r}")
    if kind == "uniserial" and len(parts) == 2:
        return _build_uniserial(_parse_int(parts[1], descriptor), p)
    raise ParseError(f"unknown builtin descriptor {descriptor!r}")


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
