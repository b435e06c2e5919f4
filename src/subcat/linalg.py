"""Exact linear algebra over prime fields F_p.

Matrices over F_2 keep each row as an int bitmask (bit j = column j), so the
hot elimination loops are bitwise xor on machine words.  Other primes store
rows as tuples of residues.  Only this module reads or writes that format:
other modules build rows with ``pack_row`` and read them with ``unpack_row``.

Every elimination uses one pivot rule: the pivot of a row is its first
nonzero column (over F_2, the lowest set bit), and a pivot row is scaled so
that entry is 1.  ``_pivot_insert`` grows echelon rows keyed by that column;
``_reduced_rows`` back-substitutes them into the unique reduced row-echelon
basis of the span, which ``rref``, ``Subspace`` and the kernel oracle's image
spans share.  ``_join`` joins tuples of such bases partwise: the kernel
oracle's image spans and the traces and rejects of ``closures`` are built
this way.  ``_join_closure`` grows every join of some generators from zero,
breadth first, with the depth at which it first reaches each: the joins of
the kernel oracle's pair images, whose depth is a mu bound, a generator
count.  ``_complement`` finds in one echelon pass the vectors that some maps
send into given spans, modulo a span: ``rep.all_submodules`` reads the
socle of each quotient from it.  ``_coeff_walk`` is every walk over the
coefficient vectors of a Hom, End or Ext space or of a socle, under one
budget.
Everything is an immutable value.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from math import isqrt
from operator import attrgetter
from typing import Collection, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import CapExceeded, ShapeError

COEFF_WALK_BUDGET = 1 << 16  # vectors (or lines) one walk may visit, read at each call


@cache
def _check_prime(p: int) -> None:
    """Raise ShapeError unless p is a prime below 2^31; a passing p is memoized."""
    if p >= 1 << 31:
        raise ShapeError("modulus is too large: the largest supported prime is 2^31 - 1")
    if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
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


def _lead(p: int, row) -> int:
    """The pivot column of a packed row: its first nonzero entry, or -1 for zero."""
    if p == 2:
        return (row & -row).bit_length() - 1
    return next((j for j, e in enumerate(row) if e), -1)


def _clear(p: int, row, pivot_row, col: int):
    """row minus the multiple of pivot_row (entry 1 at col) that zeroes row's entry at col."""
    if p == 2:
        return row ^ pivot_row if (row >> col) & 1 else row
    c = row[col]
    return tuple((a - c * b) % p for a, b in zip(row, pivot_row)) if c else row


def _pivot_insert(p: int, piv: dict, v) -> bool:
    """Reduce a packed vector against echelon rows keyed by pivot column and add it.

    False when the vector lies in the span already.
    """
    t = _lead(p, v)
    while t in piv:
        v = _clear(p, v, piv[t], t)
        t = _lead(p, v)
    if t < 0:
        return False
    if p != 2:
        inv = pow(v[t], p - 2, p)
        v = tuple(e * inv % p for e in v)
    piv[t] = v
    return True


def _pivot_rows(p: int, vectors: Iterable) -> dict:
    """Echelon rows of the span of packed vectors, keyed by pivot column."""
    piv: dict = {}
    for v in vectors:
        _pivot_insert(p, piv, v)
    return piv


def _reduced_rows(p: int, vectors: Iterable) -> tuple:
    """The reduced row-echelon basis of the span of packed vectors, in pivot order.

    Each echelon row is cleared at every later pivot column, in column order;
    earlier pivot columns are zero already.  Equal spans give equal tuples.
    """
    piv = _pivot_rows(p, vectors)
    cols = sorted(piv)
    out = []
    for k, t in enumerate(cols):
        row = piv[t]
        for s in cols[k + 1:]:
            row = _clear(p, row, piv[s], s)
        out.append(row)
    return tuple(out)


def _join(p: int, a: tuple, c: tuple) -> tuple:
    """The partwise join of two span tuples, each one reduced-row basis per part."""
    return tuple(_reduced_rows(p, x + y) if y else x for x, y in zip(a, c))


def _join_closure(p: int, zero: tuple, gens: Collection[tuple]) -> dict[tuple, int]:
    """Every join of some of the span tuples ``gens``, grown breadth first from ``zero``.

    Maps each join to its depth, the fewest generators that reach it:
    ``zero`` first at depth 0, then each join in the order the search finds it.
    """
    found = {zero: 0}
    frontier = [zero]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for w in frontier:
            for c in gens:
                joined = _join(p, w, c)
                if joined not in found:
                    found[joined] = depth
                    nxt.append(joined)
        frontier = nxt
    return found


def _complement(p: int, d: int, base: tuple, maps: Sequence[tuple[tuple, int, tuple]]) -> tuple:
    """Rows spanning a complement of span(base) in the x of F_p^d with x A in span(S) for
    every (A, w, S) in maps, where A has d rows of width w and S rows of width w.

    One echelon pass, with the images' columns before x's: base's rows (0 | b) first,
    then each S's rows (s | 0) at its A's columns, then (e_j A | e_j) per unit vector.
    The rows with a zero image part span those x; the ones off base's pivots are kept.
    """
    offs, width = [], 0
    for _, w, _ in maps:
        offs.append(width)
        width += w
    if p == 2:
        rows = [b << width for b in base]
        rows += [s << off for (_, _, sub), off in zip(maps, offs) for s in sub]
        rows += [sum(a[j] << off for (a, _, _), off in zip(maps, offs)) | 1 << width + j
                 for j in range(d)]
    else:
        def placed(row, off):
            return (0,) * off + row + (0,) * (width + d - off - len(row))
        rows = [placed(b, width) for b in base]
        rows += [placed(s, off) for (_, _, sub), off in zip(maps, offs) for s in sub]
        rows += [tuple(e for a, _, _ in maps for e in a[j]) + unit
                 for j, unit in enumerate(_identity_rows(p, d))]
    piv = _pivot_rows(p, rows)
    skip = {width + _lead(p, b) for b in base}
    return tuple(piv[t] >> width if p == 2 else piv[t][width:]
                 for t in sorted(piv) if t >= width and t not in skip)


def _combine(p: int, coeffs: Sequence[int], vectors: Sequence):
    """The linear combination of packed vectors with these coefficients."""
    acc = 0 if p == 2 else [0] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        if c:
            acc = acc ^ v if p == 2 else [a + c * b for a, b in zip(acc, v)]
    return acc if p == 2 else tuple(a % p for a in acc)


def _lines(p: int, d: int) -> Iterator[tuple[int, ...]]:
    """One vector per line of F_p^d: the vectors whose first nonzero entry is 1."""
    return ((0,) * lead + (1,) + rest
            for lead in range(d) for rest in product(range(p), repeat=d - 1 - lead))


def _coeff_walk(p: int, dim: int, lines: bool, space: str, search: str) -> Iterator[tuple[int, ...]]:
    """The vectors of F_p^dim a search visits: one per line if its answer at g is that at c*g,
    else all p^dim, zero first.  Raises CapExceeded first if their count exceeds the budget.
    """
    count = (p ** dim - 1) // (p - 1) if lines else p ** dim
    if count > COEFF_WALK_BUDGET:
        raise CapExceeded(f"{space} of dimension {dim} exceeds the {search} budget")
    return _lines(p, dim) if lines else product(range(p), repeat=dim)


def _kron_rows(p: int, ncols: int, blocks: Iterable[Sequence[tuple]]) -> list:
    """Packed rows of ncols columns, block after block: the sum of c * (A kron B), placed at
    column off, over a block's terms (c, A, B, off); an int factor d is the identity I_d.

    Row r * B.nrows + s of A kron B holds A[r, k] B[s, l] at column k * B.ncols
    + l, so vec(A X B) = (A kron B^T) vec X, row-major.  Over F_2 it is A's row
    with its bits spread B.ncols apart, times B's row: no carries.
    """
    out: list = []
    for block in blocks:
        start, acc = len(out), None
        for c, a, b, off in block:
            w = b if b.__class__ is int else b.ncols
            if p == 2:
                at = start
                for x in range(a) if a.__class__ is int else a.rows:
                    s = (1 << x * w + off if a.__class__ is int else _spread(x, w, off)) if c & 1 else 0
                    for y in range(b) if b.__class__ is int else b.rows:
                        v = s << y if b.__class__ is int else s * y
                        if at < len(out):
                            out[at] ^= v
                        else:
                            out.append(v)
                        at += 1
                continue
            a_rows = _identity_rows(p, a) if a.__class__ is int else a.rows
            b_rows = _identity_rows(p, b) if b.__class__ is int else b.rows
            acc = acc or [[0] * ncols for _ in range(len(a_rows) * len(b_rows))]
            for row, (ar, br) in zip(acc, product(a_rows, b_rows)):
                for k, e in enumerate(ar):
                    if e:
                        at = off + k * w
                        row[at:at + w] = [u + c * e * v for u, v in zip(row[at:at + w], br)]
        if acc:
            out += (tuple(v % p for v in row) for row in acc)
    return out


def _block(p: int, row, start: int, nrows: int, ncols: int) -> "Mat":
    """The nrows x ncols matrix read row-major from column start of a packed row."""
    if p == 2:
        mask = (1 << ncols) - 1
        return Mat(p, nrows, ncols, tuple(row >> start + r * ncols & mask for r in range(nrows)))
    return Mat(p, nrows, ncols, tuple(row[start + r * ncols:start + (r + 1) * ncols]
                                      for r in range(nrows)))


def _spread(row: int, w: int, off: int) -> int:
    """An F_2 row with bit k moved to bit k * w + off."""
    out = 0
    while row:
        low = row & -row
        out |= 1 << (low.bit_length() - 1) * w + off
        row ^= low
    return out


@cache
def _identity_rows(p: int, n: int) -> tuple:
    """The packed rows of the n x n identity."""
    if p == 2:
        return tuple(1 << i for i in range(n))
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


class _Frozen:
    """Base of the immutable value types: no instance ``__dict__``, no assignment.

    A value is its public slots.  Each subclass lists its fields in
    ``__slots__`` (a leading underscore marks a cache outside the value) and
    writes them once, in its own ``__init__``, through the slot descriptors
    (``_slot_setters``).  ``_fields`` records the public slots, as on the
    NamedTuple records; equality, hashing, repr, copy and pickle read them.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(f for f in cls.__slots__ if f[0] != "_")
        cls._values = attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__
        return type(self), self._values(self)


def _slot_setters(cls: type) -> tuple:
    """The ``__set__`` of each slot of cls, in ``__slots__`` order."""
    return tuple(cls.__dict__[f].__set__ for f in cls.__slots__)


class Mat(_Frozen):
    """Dense matrix over F_p with immutable, hashable storage."""

    __slots__ = ("p", "nrows", "ncols", "rows")

    def __init__(self, p: int, nrows: int, ncols: int, rows: tuple):
        _mat_p(self, p)
        _mat_nrows(self, nrows)
        _mat_ncols(self, ncols)
        _mat_rows(self, rows)
        self.__post_init__()

    def __post_init__(self):
        """Validate the fields; every construction calls it exactly once."""
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
        return Mat(p, n, n, _identity_rows(p, n))

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
        zero = (0,) * other.ncols
        rows = tuple(_combine(self.p, r, other.rows) if other.rows else zero for r in self.rows)
        return Mat(self.p, self.nrows, other.ncols, rows)

    __matmul__ = mul

    def transpose(self) -> "Mat":
        if self.p == 2:
            cols = [0] * self.ncols
            for i, row in enumerate(self.rows):
                while row:
                    low = row & -row
                    cols[low.bit_length() - 1] |= 1 << i
                    row ^= low
            return Mat(2, self.ncols, self.nrows, tuple(cols))
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

    def select_columns(self, cols: Sequence[int]) -> "Mat":
        if self.p == 2:
            rows = tuple(
                sum(((r >> c) & 1) << k for k, c in enumerate(cols)) for r in self.rows
            )
        else:
            rows = tuple(tuple(r[c] for c in cols) for r in self.rows)
        return Mat(self.p, self.nrows, len(cols), rows)


_mat_p, _mat_nrows, _mat_ncols, _mat_rows = _slot_setters(Mat)


class Echelon(NamedTuple):
    matrix: Mat
    rank: int
    pivots: tuple[int, ...]


def rref(m: Mat) -> Echelon:
    """Unique reduced row-echelon form of m, with rank and pivot columns."""
    p = m.p
    rows = _reduced_rows(p, m.rows)
    zero = pack_row(p, (0,) * m.ncols)
    matrix = Mat(p, m.nrows, m.ncols, rows + (zero,) * (m.nrows - len(rows)))
    return Echelon(matrix, len(rows), tuple(_lead(p, row) for row in rows))


def nullspace(m: Mat) -> Mat:
    """Canonical basis (as rows) of the right nullspace {x : m @ x = 0}.

    Column j off the pivots of the reduced rows gives e_j minus column j at the pivots.
    """
    p = m.p
    rows = _reduced_rows(p, m.rows)
    pivots = [_lead(p, r) for r in rows]
    vecs = []
    for j in sorted(set(range(m.ncols)).difference(pivots)):
        if p == 2:
            vecs.append(1 << j | sum(1 << pc for r, pc in zip(rows, pivots) if r >> j & 1))
            continue
        v = [0] * m.ncols
        v[j] = 1
        for r, pc in zip(rows, pivots):
            v[pc] = -r[j] % p
        vecs.append(tuple(v))
    rows = _reduced_rows(p, vecs)
    return Mat(p, len(rows), m.ncols, rows)


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


class Subspace(_Frozen):
    """Row-span subspace of F_p^ambient_dim with an RREF basis (no zero rows)."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: Mat):
        if basis.ncols != ambient_dim:
            raise ShapeError("basis columns must equal ambient dimension")
        _sub_ambient_dim(self, ambient_dim)
        _sub_basis(self, basis)

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
        return _span(m.p, m.ncols, m.rows)

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
        return _span(self.p, self.ambient_dim, self.basis.rows + other.basis.rows)

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
        return _lead(self.p, self.reduce(packed_row)) < 0

    def reduce(self, packed_row):
        """Canonical representative of a vector modulo this subspace."""
        v = packed_row
        for r, pc in zip(self.basis.rows, self.pivots):
            v = _clear(self.p, v, r, pc)
        return v

    def coords(self, packed_row) -> tuple[int, ...]:
        """Coefficients of a member vector over the RREF basis."""
        if not self.has_vector(packed_row):
            raise ShapeError("vector is not in the subspace")
        entries = unpack_row(self.p, packed_row, self.ambient_dim)
        return tuple(entries[pc] for pc in self.pivots)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(_lead(self.p, r) for r in self.basis.rows)

    def nonpivots(self) -> tuple[int, ...]:
        piv = set(self.pivots)
        return tuple(j for j in range(self.ambient_dim) if j not in piv)

    def vectors(self):
        """Iterate all packed vectors of the subspace (p^dim of them)."""
        zero = pack_row(self.p, (0,) * self.ambient_dim)
        for coeffs in product(range(self.p), repeat=self.dim):
            yield _combine(self.p, coeffs, self.basis.rows) if coeffs else zero


_sub_ambient_dim, _sub_basis = _slot_setters(Subspace)


def _span(p: int, n: int, vectors: Iterable) -> Subspace:
    """The subspace of F_p^n spanned by packed vectors."""
    rows = _reduced_rows(p, vectors)
    return Subspace(n, Mat(p, len(rows), n, rows))
