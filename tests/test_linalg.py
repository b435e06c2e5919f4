"""Unit tests for exact F_p linear algebra, with brute-force oracles."""

import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subcat.errors import ShapeError
from subcat.linalg import (
    Mat,
    Subspace,
    _check_prime,
    _join_closure,
    _pivot_insert,
    _reduced_rows,
    nullspace,
    pack_row,
    rref,
    solve,
)


def span_set(m: Mat) -> set:
    """Every vector in the row span, by exhaustive combination."""
    vecs = set()
    for coeffs in product(range(m.p), repeat=m.nrows):
        v = (0,) * m.ncols
        for c, i in zip(coeffs, range(m.nrows)):
            row = m.row_entries(i)
            v = tuple((a + c * b) % m.p for a, b in zip(v, row))
        vecs.add(v)
    return vecs


def random_mat(rng, p, nrows, ncols):
    return Mat.from_rows(p, [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)])


# -- rref ------------------------------------------------------------------


def test_rref_identity():
    m = Mat.identity(2, 3)
    ech = rref(m)
    assert ech.matrix == m
    assert ech.rank == 3


def test_rref_zero():
    m = Mat.zeros(2, 2, 4)
    ech = rref(m)
    assert ech.matrix == m
    assert ech.rank == 0


def test_rref_repeated_row():
    m = Mat.from_rows(2, [[1, 1], [1, 1]])
    ech = rref(m)
    assert ech.matrix.to_lists() == [[1, 1], [0, 0]]
    assert ech.rank == 1
    # same row span as the input, checked exhaustively
    assert span_set(ech.matrix) == span_set(m)


def test_rref_idempotent():
    rng = random.Random(7)
    for _ in range(50):
        p = rng.choice([2, 3])
        m = random_mat(rng, p, rng.randrange(1, 5), rng.randrange(1, 5))
        ech = rref(m)
        again = rref(ech.matrix)
        assert again.matrix == ech.matrix
        assert again.rank == ech.rank


def test_rref_modulus_mismatch():
    a = Mat.identity(2, 2)
    b = Mat.identity(3, 2)
    with pytest.raises(ShapeError):
        a.add(b)


# -- mul / transpose -------------------------------------------------------


def test_mul_matches_naive():
    rng = random.Random(11)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        n, k, m = rng.randrange(1, 4), rng.randrange(1, 4), rng.randrange(1, 4)
        a = random_mat(rng, p, n, k)
        b = random_mat(rng, p, k, m)
        c = a.mul(b)
        for i in range(n):
            for j in range(m):
                want = sum(a.entry(i, t) * b.entry(t, j) for t in range(k)) % p
                assert c.entry(i, j) == want


def test_transpose_involution():
    rng = random.Random(13)
    for _ in range(20):
        p = rng.choice([2, 3])
        m = random_mat(rng, p, rng.randrange(0, 4), rng.randrange(0, 4))
        assert m.transpose().transpose() == m


# -- solve -------------------------------------------------------------------


def test_solve_identity():
    a = Mat.identity(2, 3)
    b = Mat.from_rows(2, [[1], [0], [1]])
    sol = solve(a, b)
    assert sol is not None
    assert sol.particular == b
    assert sol.nullspace.nrows == 0


def test_solve_zero_system():
    a = Mat.zeros(2, 2, 2)
    b = Mat.zeros(2, 2, 1)
    sol = solve(a, b)
    assert sol.particular.is_zero
    assert sol.nullspace.nrows == 2


def test_solve_one_equation():
    a = Mat.from_rows(2, [[1, 1]])
    b = Mat.from_rows(2, [[1]])
    sol = solve(a, b)
    got = set()
    for t in range(2):
        x = sol.particular.add(sol.nullspace.transpose().scale(t))
        got.add(tuple(x.column(0)))
    assert got == {(1, 0), (0, 1)}


def test_solve_matches_enumeration():
    rng = random.Random(17)
    for _ in range(80):
        p = 2
        n, k = rng.randrange(1, 4), rng.randrange(1, 4)
        a = random_mat(rng, p, n, k)
        b = random_mat(rng, p, n, 1)
        truth = set()
        for cand in product(range(p), repeat=k):
            x = Mat.from_rows(p, [[c] for c in cand], 1)
            if a.mul(x) == b:
                truth.add(cand)
        sol = solve(a, b)
        if sol is None:
            assert truth == set()
            continue
        found = set()
        for coeffs in product(range(p), repeat=sol.nullspace.nrows):
            x = list(sol.particular.column(0))
            for c, i in zip(coeffs, range(sol.nullspace.nrows)):
                row = sol.nullspace.row_entries(i)
                x = [(u + c * v) % p for u, v in zip(x, row)]
            found.add(tuple(x))
        assert found == truth


# -- subspaces ----------------------------------------------------------------


def test_subspace_sum_intersection_trivial():
    u = Subspace.full(2, 3)
    v = Subspace.span(2, 3, [[1, 1, 0]])
    assert u.add(v) == u
    assert u.intersect(v) == v
    assert u.contains(v)
    assert not v.contains(u)


def test_subspace_complementary_lines():
    u = Subspace.span(2, 2, [[1, 0]])
    v = Subspace.span(2, 2, [[0, 1]])
    assert u.add(v) == Subspace.full(2, 2)
    assert u.intersect(v).dim == 0
    # exhaustive check over all four vectors of F_2^2
    members_u = set(u.vectors())
    members_v = set(v.vectors())
    assert members_u & members_v == {0}
    assert {a ^ b for a in members_u for b in members_v} == set(Subspace.full(2, 2).vectors())


def test_subspace_equality_idempotence():
    u = Subspace.span(2, 3, [[1, 0, 1], [0, 1, 1]])
    v = Subspace.span(2, 3, [[1, 1, 0], [0, 1, 1]])
    assert u == v
    assert u.contains(v) and v.contains(u)


def test_modular_dimension_law():
    rng = random.Random(23)
    for _ in range(100):
        p = rng.choice([2, 3])
        n = rng.randrange(1, 5)
        u = Subspace.span(p, n, [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randrange(0, 3))])
        v = Subspace.span(p, n, [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randrange(0, 3))])
        assert u.dim + v.dim == u.add(v).dim + u.intersect(v).dim


def test_join_closure_is_every_join_of_a_subset():
    """Against the spans of every subset of the generators, by exhaustive combination.

    Each join's depth is the size of the smallest subset that spans it.
    """
    rng = random.Random(31)
    dims = (2, 3)
    zero = ((),) * len(dims)
    for p in (2, 3):
        for _ in range(6):
            # four generators, each with up to two random rows per part
            gens = [[[[rng.randrange(p) for _ in range(d)] for _ in range(rng.randrange(3))]
                     for d in dims] for _ in range(4)]
            want: dict = {}
            for size in range(len(gens) + 1):
                for sub in combinations(gens, size):
                    span = tuple(frozenset(span_set(Mat.from_rows(
                        p, [row for g in sub for row in g[k]], d))) for k, d in enumerate(dims))
                    want.setdefault(span, size)
            packed = [tuple(_reduced_rows(p, [pack_row(p, row) for row in part]) for part in g)
                      for g in gens]
            got = _join_closure(p, zero, packed)
            assert next(iter(got)) == zero
            assert len(got) == len(want)
            assert {tuple(frozenset(span_set(Mat(p, len(rows), d, rows)))
                          for rows, d in zip(w, dims)): depth for w, depth in got.items()} == want


def test_subspace_ambient_mismatch():
    u = Subspace.full(2, 2)
    v = Subspace.full(2, 3)
    with pytest.raises(ShapeError):
        u.add(v)


def test_nullspace_is_kernel():
    rng = random.Random(29)
    for _ in range(60):
        p = rng.choice([2, 3])
        m = random_mat(rng, p, rng.randrange(1, 4), rng.randrange(1, 5))
        ns = nullspace(m)
        assert ns.nrows == m.ncols - rref(m).rank
        prod_mat = m.mul(ns.transpose())
        assert prod_mat.is_zero


def test_reduce_and_coords():
    u = Subspace.span(2, 3, [[1, 0, 1], [0, 1, 1]])
    vec = u.basis.rows[0] ^ u.basis.rows[1]
    assert u.has_vector(vec)
    assert u.coords(vec) == (1, 1)
    assert u.reduce(vec) == 0


# -- one elimination, against the column sweep ------------------------------


def column_sweep_rref(p, entries, ncols):
    """Reference RREF on residue lists: pivot on each column in turn, clear it everywhere else.

    Returns the reduced rows (zero rows last), the rank and the pivot columns.
    """
    work = [list(row) for row in entries]
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = pow(work[r][col], p - 2, p)
        work[r] = [e * inv % p for e in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                c = work[i][col]
                work[i] = [(a - c * b) % p for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
    return work[:r] + [[0] * ncols] * (len(work) - r), r, tuple(pivots)


@st.composite
def sparse_matrices(draw):
    """(p, ncols, entries) up to 8x8 over F_2, F_3, F_5, about half the entries zero."""
    p = draw(st.sampled_from([2, 3, 5]))
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    entry = st.one_of(st.just(0), st.integers(1, p - 1))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    return p, ncols, draw(st.lists(row, min_size=nrows, max_size=nrows))


@settings(max_examples=300, deadline=None)
@given(sparse_matrices(), st.data())
def test_elimination_matches_column_sweep(case, data):
    p, ncols, entries = case
    m = Mat.from_rows(p, entries, ncols)
    reduced, rank, pivots = column_sweep_rref(p, entries, ncols)
    ech = rref(m)
    assert (ech.matrix.to_lists(), ech.rank, ech.pivots) == (reduced, rank, pivots)

    basis = Mat.from_rows(p, reduced[:rank], ncols)
    assert _reduced_rows(p, m.rows) == basis.rows
    span = Subspace.from_matrix_rows(m)
    assert span.basis == basis and span.pivots == pivots
    k = data.draw(st.integers(0, len(entries)))
    top = Subspace.from_matrix_rows(Mat.from_rows(p, entries[:k], ncols))
    bottom = Subspace.from_matrix_rows(Mat.from_rows(p, entries[k:], ncols))
    assert top.add(bottom) == span

    piv: dict = {}
    ranks = [column_sweep_rref(p, entries[:i], ncols)[1] for i in range(len(entries) + 1)]
    for i, row in enumerate(m.rows):
        assert _pivot_insert(p, piv, row) == (ranks[i + 1] > ranks[i])
    assert len(piv) == rank


# -- the modulus check --------------------------------------------------------


def test_modulus_must_be_prime():
    with pytest.raises(ShapeError, match="modulus 4 is not prime"):
        Mat.zeros(4, 1, 1)


def test_modulus_must_be_below_2_to_the_31():
    assert Mat.zeros(2**31 - 1, 1, 1).rows == ((0,),)
    for p in (2**31 + 11, 2**61 - 1, 10**400):
        with pytest.raises(ShapeError, match="too large"):
            Mat.zeros(p, 1, 1)


def test_prime_check_runs_once_per_modulus():
    _check_prime.cache_clear()
    for _ in range(3):
        Mat.zeros(1000003, 1, 1)
        Mat.identity(1000003, 2)
    assert _check_prime.cache_info().misses == 1
