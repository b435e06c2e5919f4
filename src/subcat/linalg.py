"""Exact linear algebra over prime fields F_p.

Matrices over F_2 keep each row as an int bitmask (bit j = column j), so the
hot elimination loops are bitwise xor on machine words.  Other primes store
rows as tuples of residues.  Everything is an immutable value; row-reduced
echelon form is the canonical shape used for all subspace comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import ShapeError


def _check_prime(p: int) -> None:
    if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        raise ShapeError(f"modulus {p} is not prime")


def pack_row(p: int, entries: Sequence[int]):
    """Encode a vector as the internal row representation for modulus p."""
    if p == 2:
        mask = 0
        for j, e in enumerate(entries):
            if e % 2:
                mask |= 1 << j
        return mask
    return tuple(e % p for e in entries)


def unpack_row(p: int, row, ncols: int) -> tuple[int, ...]:
    """Decode an internal row back to a tuple of residues."""
    if p == 2:
        return tuple((row >> j) & 1 for j in range(ncols))
    return tuple(row)


def _pivot_insert(p: int, piv: dict, v) -> bool:
    """Reduce a packed vector against echelon rows keyed by pivot column and add it.

    Over F_2 a vector is an int bitmask and its pivot is the top bit (an xor
    basis); otherwise a tuple of residues, pivot its first nonzero entry,
    scaled to 1.  False when the vector lies in the span already.
    """
    if p == 2:
        while v:
            t = v.bit_length() - 1
            if t not in piv:
                piv[t] = v
                return True
            v ^= piv[t]
        return False
    while True:
        t = next((j for j, e in enumerate(v) if e), None)
        if t is None:
            return False
        if t not in piv:
            inv = pow(v[t], p - 2, p)
            piv[t] = tuple(e * inv % p for e in v)
            return True
        c = v[t]
        v = tuple((a - c * b) % p for a, b in zip(v, piv[t]))


def _pivot_rows(p: int, vectors: Iterable) -> dict:
    """Echelon rows of the span of packed vectors, keyed by pivot column."""
    piv: dict = {}
    for v in vectors:
        _pivot_insert(p, piv, v)
    return piv


def _combine(p: int, coeffs: Sequence[int], vectors: Sequence):
    """The linear combination of packed vectors with these coefficients."""
    if p == 2:
        acc = 0
        for c, v in zip(coeffs, vectors):
            if c:
                acc ^= v
        return acc
    return tuple(sum(c * v[e] for c, v in zip(coeffs, vectors)) % p
                 for e in range(len(vectors[0])))


@dataclass(frozen=True)
class Mat:
    """Dense matrix over F_p with immutable, hashable storage."""

    p: int
    nrows: int
    ncols: int
    rows: tuple

    def __post_init__(self):
        if len(self.rows) != self.nrows:
            raise ShapeError(f"expected {self.nrows} rows, got {len(self.rows)}")
        if self.p == 2:
            for r in self.rows:
                if r >> self.ncols:
                    raise ShapeError("bitmask row has bits beyond ncols")
        else:
            for r in self.rows:
                if len(r) != self.ncols:
                    raise ShapeError("row length does not match ncols")
                if any(not (0 <= e < self.p) for e in r):
                    raise ShapeError("entry out of range for modulus")

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_rows(p: int, entries: Sequence[Sequence[int]], ncols: Optional[int] = None) -> "Mat":
        _check_prime(p)
        nrows = len(entries)
        if ncols is None:
            ncols = len(entries[0]) if nrows else 0
        for row in entries:
            if len(row) != ncols:
                raise ShapeError("ragged rows")
        return Mat(p, nrows, ncols, tuple(pack_row(p, row) for row in entries))

    @staticmethod
    def zeros(p: int, nrows: int, ncols: int) -> "Mat":
        _check_prime(p)
        zero = 0 if p == 2 else (0,) * ncols
        return Mat(p, nrows, ncols, (zero,) * nrows)

    @staticmethod
    def identity(p: int, n: int) -> "Mat":
        _check_prime(p)
        if p == 2:
            return Mat(p, n, n, tuple(1 << i for i in range(n)))
        return Mat(p, n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    # -- access ------------------------------------------------------------

    def entry(self, i: int, j: int) -> int:
        if self.p == 2:
            return (self.rows[i] >> j) & 1
        return self.rows[i][j]

    def row_entries(self, i: int) -> tuple[int, ...]:
        return unpack_row(self.p, self.rows[i], self.ncols)

    def to_lists(self) -> list[list[int]]:
        return [list(self.row_entries(i)) for i in range(self.nrows)]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entry(i, j) for i in range(self.nrows))

    @property
    def is_zero(self) -> bool:
        if self.p == 2:
            return all(r == 0 for r in self.rows)
        return all(all(e == 0 for e in r) for r in self.rows)

    # -- arithmetic ---------------------------------------------------------

    def _same_field(self, other: "Mat") -> None:
        if self.p != other.p:
            raise ShapeError(f"modulus mismatch: {self.p} vs {other.p}")

    def add(self, other: "Mat") -> "Mat":
        self._same_field(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeError("shape mismatch in add")
        if self.p == 2:
            rows = tuple(a ^ b for a, b in zip(self.rows, other.rows))
        else:
            rows = tuple(
                tuple((a + b) % self.p for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        return Mat(self.p, self.nrows, self.ncols, rows)

    def neg(self) -> "Mat":
        if self.p == 2:
            return self
        rows = tuple(tuple((-e) % self.p for e in r) for r in self.rows)
        return Mat(self.p, self.nrows, self.ncols, rows)

    def sub(self, other: "Mat") -> "Mat":
        return self.add(other.neg())

    def scale(self, c: int) -> "Mat":
        c %= self.p
        if self.p == 2:
            return self if c else Mat.zeros(2, self.nrows, self.ncols)
        rows = tuple(tuple((c * e) % self.p for e in r) for r in self.rows)
        return Mat(self.p, self.nrows, self.ncols, rows)

    def mul(self, other: "Mat") -> "Mat":
        self._same_field(other)
        if self.ncols != other.nrows:
            raise ShapeError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        if self.p == 2:
            out = []
            for r in self.rows:
                acc = 0
                rem = r
                while rem:
                    k = (rem & -rem).bit_length() - 1
                    acc ^= other.rows[k]
                    rem &= rem - 1
                out.append(acc)
            return Mat(2, self.nrows, other.ncols, tuple(out))
        out_rows = []
        for r in self.rows:
            row = [0] * other.ncols
            for k, a in enumerate(r):
                if a:
                    brow = other.rows[k]
                    for j in range(other.ncols):
                        row[j] = (row[j] + a * brow[j]) % self.p
            out_rows.append(tuple(row))
        return Mat(self.p, self.nrows, other.ncols, tuple(out_rows))

    __matmul__ = mul

    def transpose(self) -> "Mat":
        if self.p == 2:
            rows = tuple(
                sum(((self.rows[i] >> j) & 1) << i for i in range(self.nrows))
                for j in range(self.ncols)
            )
            return Mat(2, self.ncols, self.nrows, rows)
        rows = tuple(tuple(self.rows[i][j] for i in range(self.nrows)) for j in range(self.ncols))
        return Mat(self.p, self.ncols, self.nrows, rows)

    # -- block assembly ------------------------------------------------------

    def hstack(self, other: "Mat") -> "Mat":
        self._same_field(other)
        if self.nrows != other.nrows:
            raise ShapeError("hstack needs equal row counts")
        if self.p == 2:
            rows = tuple(a | (b << self.ncols) for a, b in zip(self.rows, other.rows))
        else:
            rows = tuple(ra + rb for ra, rb in zip(self.rows, other.rows))
        return Mat(self.p, self.nrows, self.ncols + other.ncols, rows)

    def vstack(self, other: "Mat") -> "Mat":
        self._same_field(other)
        if self.ncols != other.ncols:
            raise ShapeError("vstack needs equal column counts")
        return Mat(self.p, self.nrows + other.nrows, self.ncols, self.rows + other.rows)

    @staticmethod
    def block(p: int, grid: Sequence[Sequence[Optional["Mat"]]],
              row_dims: Sequence[int], col_dims: Sequence[int]) -> "Mat":
        """Assemble a block matrix; None entries mean zero blocks."""
        brows = []
        for bi, blocks in enumerate(grid):
            strip = None
            for bj, blk in enumerate(blocks):
                piece = blk if blk is not None else Mat.zeros(p, row_dims[bi], col_dims[bj])
                if (piece.nrows, piece.ncols) != (row_dims[bi], col_dims[bj]):
                    raise ShapeError("block shape mismatch")
                strip = piece if strip is None else strip.hstack(piece)
            if strip is None:
                strip = Mat.zeros(p, row_dims[bi], 0)
            brows.append(strip)
        out = brows[0] if brows else Mat.zeros(p, 0, sum(col_dims))
        for strip in brows[1:]:
            out = out.vstack(strip)
        return out

    def select_columns(self, cols: Sequence[int]) -> "Mat":
        if self.p == 2:
            rows = tuple(
                sum(((r >> c) & 1) << k for k, c in enumerate(cols)) for r in self.rows
            )
        else:
            rows = tuple(tuple(r[c] for c in cols) for r in self.rows)
        return Mat(self.p, self.nrows, len(cols), rows)


class Echelon(NamedTuple):
    matrix: Mat
    rank: int
    pivots: tuple[int, ...]


def rref(m: Mat) -> Echelon:
    """Unique reduced row-echelon form of m, with rank and pivot columns."""
    p, n = m.p, m.ncols
    if p == 2:
        work = list(m.rows)
        pivots = []
        r = 0
        for col in range(n):
            pivot = next((i for i in range(r, len(work)) if (work[i] >> col) & 1), None)
            if pivot is None:
                continue
            work[r], work[pivot] = work[pivot], work[r]
            for i in range(len(work)):
                if i != r and (work[i] >> col) & 1:
                    work[i] ^= work[r]
            pivots.append(col)
            r += 1
            if r == len(work):
                break
        ordered = work[:r] + [0] * (m.nrows - r)
        return Echelon(Mat(2, m.nrows, n, tuple(ordered)), r, tuple(pivots))
    work = [list(r) for r in m.rows]
    pivots = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = pow(work[r][col], p - 2, p)
        work[r] = [(e * inv) % p for e in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                c = work[i][col]
                work[i] = [(a - c * b) % p for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    zero = [0] * n
    ordered = work[:r] + [zero] * (m.nrows - r)
    return Echelon(Mat(p, m.nrows, n, tuple(tuple(row) for row in ordered)), r, tuple(pivots))


def rank(m: Mat) -> int:
    return rref(m).rank


def nullspace(m: Mat) -> Mat:
    """Canonical basis (as rows) of the right nullspace {x : m @ x = 0}."""
    ech = rref(m)
    piv = set(ech.pivots)
    free = [j for j in range(m.ncols) if j not in piv]
    vecs = []
    for j in free:
        v = [0] * m.ncols
        v[j] = 1
        for r, pc in enumerate(ech.pivots):
            coeff = ech.matrix.entry(r, j)
            if coeff:
                v[pc] = (-coeff) % m.p
        vecs.append(v)
    basis = Mat.from_rows(m.p, vecs, m.ncols)
    canon = rref(basis)
    return Mat(m.p, canon.rank, m.ncols, canon.matrix.rows[: canon.rank])


def nullity(m: Mat) -> int:
    return m.ncols - rref(m).rank


class Solution(NamedTuple):
    """Affine solution set of A @ X = B: particular + per-column nullspace."""

    particular: Mat
    nullspace: Mat


def solve(a: Mat, b: Mat) -> Optional[Solution]:
    """All X with a @ X = b, or None when rank([a|b]) > rank(a)."""
    a._same_field(b)
    if a.nrows != b.nrows:
        raise ShapeError("solve needs matching row counts")
    aug = rref(a.hstack(b))
    for r in range(aug.rank):
        if aug.pivots[r] >= a.ncols:
            return None
    part = [[0] * b.ncols for _ in range(a.ncols)]
    for r in range(aug.rank):
        pc = aug.pivots[r]
        for j in range(b.ncols):
            part[pc][j] = aug.matrix.entry(r, a.ncols + j)
    return Solution(Mat.from_rows(a.p, part, b.ncols), nullspace(a))


@dataclass(frozen=True)
class Subspace:
    """Row-span subspace of F_p^ambient_dim with an RREF basis (no zero rows)."""

    ambient_dim: int
    basis: Mat

    def __post_init__(self):
        if self.basis.ncols != self.ambient_dim:
            raise ShapeError("basis columns must equal ambient dimension")

    @property
    def p(self) -> int:
        return self.basis.p

    @property
    def dim(self) -> int:
        return self.basis.nrows

    @staticmethod
    def zero(p: int, n: int) -> "Subspace":
        return Subspace(n, Mat.zeros(p, 0, n))

    @staticmethod
    def full(p: int, n: int) -> "Subspace":
        return Subspace(n, Mat.identity(p, n))

    @staticmethod
    def span(p: int, n: int, vectors: Iterable[Sequence[int]]) -> "Subspace":
        m = Mat.from_rows(p, list(vectors), n)
        return Subspace.from_matrix_rows(m)

    @staticmethod
    def from_matrix_rows(m: Mat) -> "Subspace":
        ech = rref(m)
        return Subspace(m.ncols, Mat(m.p, ech.rank, m.ncols, ech.matrix.rows[: ech.rank]))

    @staticmethod
    def image_of(m: Mat) -> "Subspace":
        """Column span of m, as a subspace of F_p^nrows."""
        return Subspace.from_matrix_rows(m.transpose())

    @staticmethod
    def kernel_of(m: Mat) -> "Subspace":
        """Right nullspace of m, as a subspace of F_p^ncols."""
        return Subspace(m.ncols, nullspace(m))

    def _check_compatible(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim or self.p != other.p:
            raise ShapeError("subspaces live in different ambient spaces")

    def add(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace.from_matrix_rows(self.basis.vstack(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        # x = a @ U = b @ V; solve the combined coefficient system.
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.p, self.ambient_dim)
        stacked = self.basis.vstack(other.basis.neg()).transpose()
        coeffs = nullspace(stacked)
        vecs = coeffs.select_columns(range(self.dim)).mul(self.basis)
        return Subspace.from_matrix_rows(vecs)

    def contains(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return self.add(other).dim == self.dim

    def has_vector(self, packed_row) -> bool:
        return self.reduce(packed_row) == (0 if self.p == 2 else (0,) * self.ambient_dim)

    def reduce(self, packed_row):
        """Canonical representative of a vector modulo this subspace."""
        if self.p == 2:
            v = packed_row
            for r, pc in zip(self.basis.rows, self.pivots):
                if (v >> pc) & 1:
                    v ^= r
            return v
        v = list(packed_row)
        for r, pc in zip(self.basis.rows, self.pivots):
            c = v[pc]
            if c:
                v = [(a - c * b) % self.p for a, b in zip(v, r)]
        return tuple(v)

    def coords(self, packed_row) -> tuple[int, ...]:
        """Coefficients of a member vector over the RREF basis."""
        if not self.has_vector(packed_row):
            raise ShapeError("vector is not in the subspace")
        if self.p == 2:
            return tuple((packed_row >> pc) & 1 for pc in self.pivots)
        return tuple(packed_row[pc] for pc in self.pivots)

    @property
    def pivots(self) -> tuple[int, ...]:
        if self.p == 2:
            return tuple((r & -r).bit_length() - 1 for r in self.basis.rows)
        return tuple(next(j for j, e in enumerate(r) if e) for r in self.basis.rows)

    def nonpivots(self) -> tuple[int, ...]:
        piv = set(self.pivots)
        return tuple(j for j in range(self.ambient_dim) if j not in piv)

    def vectors(self):
        """Iterate all packed vectors of the subspace (p^dim of them)."""
        from itertools import product

        for coeffs in product(range(self.p), repeat=self.dim):
            if self.p == 2:
                v = 0
                for c, r in zip(coeffs, self.basis.rows):
                    if c:
                        v ^= r
            else:
                v = (0,) * self.ambient_dim
                for c, r in zip(coeffs, self.basis.rows):
                    if c:
                        v = tuple((a + c * b) % self.p for a, b in zip(v, r))
            yield v
