"""Tests for quiver representations: hom spaces, subobject calculus, oracles."""

from itertools import product

import pytest

from subcat.errors import CapExceeded, ShapeError
from subcat.linalg import Mat, Subspace, rref
from subcat.rep import (
    Algebra,
    Morphism,
    Rep,
    SubRep,
    all_submodules,
    check_morphism,
    cokernel,
    direct_sum,
    generated_submodule,
    hom_basis,
    hom_dim,
    image,
    is_isomorphic,
    kernel,
    quotient,
    sub_to_rep,
    subrep_is_stable,
    validate,
)

A2 = Algebra.build(2, ["1", "2"], [("a", "1", "2")])
LOOP2 = Algebra.build(2, ["1"], [("x", "1", "1")], [[(1, ["x", "x"])]])
LOOP3 = Algebra.build(2, ["1"], [("x", "1", "1")], [[(1, ["x", "x", "x"])]])


def mod_a2(d1, d2, entries):
    mat = Mat.from_rows(2, entries, ncols=d1)
    return Rep(A2, (d1, d2), (mat,))


# the three indecomposables, named as in the standard source-to-sink order
A = mod_a2(0, 1, [[]])
B = mod_a2(1, 1, [[1]])
C = mod_a2(1, 0, [])


def jordan(algebra, n):
    rows = [[1 if c == r - 1 else 0 for c in range(n)] for r in range(n)]
    return Rep(algebra, (n,), (Mat.from_rows(2, rows, ncols=n),))


# -- validate -----------------------------------------------------------------


def test_validate_a2_no_relations():
    assert validate(B) is None


def test_validate_uniserial_violation():
    bad = Rep(LOOP2, (1,), (Mat.from_rows(2, [[1]]),))
    msg = validate(bad)
    assert msg is not None and "x*x" in msg


def test_validate_zero_rep():
    assert validate(Rep.zero(A2)) is None
    assert validate(Rep.zero(LOOP3)) is None


def test_validate_shape_mismatch():
    bad = Rep(A2, (1, 1), (Mat.from_rows(2, [[1, 0]]),))
    assert "matrix is" in validate(bad)


# -- hom spaces vs brute force ---------------------------------------------------


def brute_hom_count(m, n):
    """Count all commuting matrix tuples by exhaustive enumeration."""
    alg = m.algebra
    p = alg.p
    shapes = [(n.dims[v], m.dims[v]) for v in range(alg.n_vertices)]
    sizes = [r * c for r, c in shapes]
    count = 0
    for flat in product(range(p), repeat=sum(sizes)):
        comps = []
        pos = 0
        for (r, c) in shapes:
            rows = [list(flat[pos + i * c : pos + (i + 1) * c]) for i in range(r)]
            pos += r * c
            comps.append(Mat.from_rows(p, rows, ncols=c))
        f = Morphism(m, n, tuple(comps))
        if check_morphism(f):
            count += 1
    return count


@pytest.mark.parametrize(
    "src,dst,dim",
    [(C, B, 0), (A, B, 1), (A, A, 1), (B, B, 1), (C, C, 1), (B, C, 1), (B, A, 0), (C, A, 0)],
)
def test_hom_dims_a2(src, dst, dim):
    basis = hom_basis(src, dst)
    assert len(basis) == dim
    assert hom_dim(src, dst) == dim
    assert brute_hom_count(src, dst) == 2 ** dim
    for f in basis:
        assert check_morphism(f)


def test_hom_dim_uniserial():
    m2, m3 = jordan(LOOP3, 2), jordan(LOOP3, 3)
    assert hom_dim(m2, m3) == 2
    assert hom_dim(m3, m2) == 2
    assert hom_dim(m3, m3) == 3
    assert brute_hom_count(m2, m2) == 2 ** hom_dim(m2, m2)


# -- kernel / image / cokernel -----------------------------------------------------


def the_surjection_b_to_c():
    f = hom_basis(B, C)[0]
    assert rref(f.comps[0]).rank == 1
    return f


def test_zero_map_kernel_image():
    f = Morphism.zero_map(B, C)
    assert kernel(f).is_full
    assert image(f).is_zero
    cok, _ = cokernel(f)
    assert is_isomorphic(cok, C)


def test_identity_kernel_image():
    f = Morphism.identity(B)
    assert kernel(f).is_zero
    assert image(f).is_full
    cok, _ = cokernel(f)
    assert cok.is_zero


def test_b_onto_c_kernel_is_a():
    f = the_surjection_b_to_c()
    ker = kernel(f)
    sub, incl = sub_to_rep(ker)
    assert is_isomorphic(sub, A)
    assert check_morphism(incl)
    assert image(f).is_full
    cok, _ = cokernel(f)
    assert cok.is_zero


def test_rank_nullity_per_vertex():
    for src, dst in [(A, B), (B, C), (B, B)]:
        for f in hom_basis(src, dst):
            ker, im = kernel(f), image(f)
            for v in range(2):
                assert ker.spaces[v].dim + im.spaces[v].dim == src.dims[v]


def test_image_stable_and_matches_cokernel():
    f = the_surjection_b_to_c()
    im = image(f)
    assert subrep_is_stable(im)
    q, _ = quotient(f.target, im)
    cok, _ = cokernel(f)
    assert is_isomorphic(q, cok)


def test_exactness_of_kernel():
    f = the_surjection_b_to_c()
    ker = kernel(f)
    sub, incl = sub_to_rep(ker)
    assert f.compose(incl).is_zero
    q, proj = quotient(B, ker)
    assert kernel(proj).key() == ker.key()
    im_rep, _ = sub_to_rep(image(f))
    assert is_isomorphic(q, im_rep)


# -- sub / quotient ----------------------------------------------------------------


def test_sub_zero_and_full():
    z = SubRep.zero(B)
    sub, _ = sub_to_rep(z)
    assert sub.is_zero
    q, _ = quotient(B, z)
    assert is_isomorphic(q, B)

    full = SubRep.full(B)
    sub2, _ = sub_to_rep(full)
    assert is_isomorphic(sub2, B)
    q2, _ = quotient(B, full)
    assert q2.is_zero


def test_vertex2_line_of_b():
    s = SubRep(B, (Subspace.zero(2, 1), Subspace.full(2, 1)))
    assert subrep_is_stable(s)
    sub, _ = sub_to_rep(s)
    assert is_isomorphic(sub, A)
    q, _ = quotient(B, s)
    assert is_isomorphic(q, C)


def test_unstable_subrep_rejected():
    s = SubRep(B, (Subspace.full(2, 1), Subspace.zero(2, 1)))
    assert not subrep_is_stable(s)
    with pytest.raises(ShapeError):
        sub_to_rep(s)
    with pytest.raises(ShapeError):
        quotient(B, s)


# -- direct sums --------------------------------------------------------------------


def test_direct_sum_empty():
    total = direct_sum(A2, []).rep
    assert total.is_zero


def test_direct_sum_a_c():
    ds = direct_sum(A2, [A, C])
    assert ds.rep.dims == (1, 1)
    assert ds.rep.mats[0].is_zero
    # distinguished from B by hom profile
    assert hom_dim(C, ds.rep) == 1
    assert hom_dim(C, B) == 0
    for inj, proj in zip(ds.injections, ds.projections):
        assert check_morphism(inj) and check_morphism(proj)


def test_direct_sum_single():
    assert is_isomorphic(direct_sum(A2, [B]).rep, B)


# -- submodule enumeration -------------------------------------------------------------


def all_subspaces(p, n):
    """Every subspace of F_p^n, as spans of all subsets of nonzero vectors."""
    from itertools import combinations

    seen = {}
    if p == 2:
        vectors = list(range(1, 1 << n))
    else:
        vectors = [v for v in product(range(p), repeat=n) if any(v)]
    for r in range(n + 1):
        for combo in combinations(vectors, r):
            if p == 2:
                sp = Subspace.from_matrix_rows(Mat(2, len(combo), n, tuple(combo)))
            else:
                sp = Subspace.span(p, n, list(combo))
            seen[sp.basis.rows] = sp
    return list(seen.values())


def brute_stable_tuples(m):
    spaces_per_vertex = [all_subspaces(m.algebra.p, d) for d in m.dims]
    found = []
    for combo in product(*spaces_per_vertex):
        s = SubRep(m, tuple(combo))
        if subrep_is_stable(s):
            found.append(s.key())
    return set(found)


def test_all_submodules_simple():
    subs = all_submodules(A)
    assert len(subs) == 2


def test_all_submodules_b():
    subs = all_submodules(B)
    assert len(subs) == 3
    assert {s.dims for s in subs} == {(0, 0), (0, 1), (1, 1)}


def test_all_submodules_uniserial_chain():
    m3 = jordan(LOOP3, 3)
    subs = all_submodules(m3)
    assert len(subs) == 4
    assert sorted(s.total_dim for s in subs) == [0, 1, 2, 3]


@pytest.mark.parametrize("m", [A, B, C, direct_sum(A2, [A, C]).rep, jordan(LOOP3, 3)])
def test_all_submodules_vs_bruteforce(m):
    got = {s.key() for s in all_submodules(m)}
    assert got == brute_stable_tuples(m)


def test_all_submodules_cap():
    big = Rep(A2, (7, 6), (Mat.zeros(2, 6, 7),))
    with pytest.raises(CapExceeded):
        all_submodules(big)


A2_F3 = Algebra.build(3, ["1", "2"], [("a", "1", "2")])
LOOP2_F3 = Algebra.build(3, ["1"], [("x", "1", "1")], [[(1, ["x", "x"])]])


@pytest.mark.parametrize("m", [
    Rep(A2_F3, (2, 1), (Mat.from_rows(3, [[1, 2]]),)),
    Rep(A2_F3, (1, 2), (Mat.from_rows(3, [[0], [0]], ncols=1),)),
    Rep(LOOP2_F3, (3,), (Mat.from_rows(3, [[0, 0, 0], [1, 0, 0], [0, 0, 0]]),)),
])
def test_all_submodules_one_vector_per_line_vs_bruteforce(m):
    got = {s.key() for s in all_submodules(m)}
    assert got == brute_stable_tuples(m)


def test_all_submodules_line_budget_over_a_large_field():
    """A 2-dimensional vertex over F_1000003 has 1000004 lines; the budget stops it at once."""
    big_field = Algebra.build(1000003, ["1"], [])
    plane = Rep(big_field, (2,), ())
    with pytest.raises(CapExceeded, match="vertex 1 of dimension 2 over F_1000003 has 1000004 lines"):
        all_submodules(plane)
    line = Rep(big_field, (1,), ())
    assert len(all_submodules(line)) == 2


def test_generated_submodule():
    empty = generated_submodule(B, [])
    assert empty.is_zero
    whole = generated_submodule(B, [(0, [1])])
    assert whole.is_full
    line = generated_submodule(B, [(1, [1])])
    assert line.dims == (0, 1)


# -- isomorphism ------------------------------------------------------------------------


def test_is_isomorphic_reflexive():
    for m in [A, B, C, jordan(LOOP3, 2)]:
        assert is_isomorphic(m, m)


def test_b_not_iso_to_a_plus_c():
    assert not is_isomorphic(B, direct_sum(A2, [A, C]).rep)


def test_different_dims_not_iso():
    m2, m3 = jordan(LOOP3, 2), jordan(LOOP3, 3)
    assert not is_isomorphic(m2, m3)


def test_iso_detects_base_change():
    twisted = Rep(LOOP3, (2,), (Mat.from_rows(2, [[1, 1], [1, 1]]),))
    # x^2 = 0 holds since the matrix squares to zero over F_2
    assert validate(twisted) is None
    assert is_isomorphic(twisted, jordan(LOOP3, 2))


def test_iso_search_tries_one_scalar_class():
    """Over F_1000003, a one-dimensional Hom space is one candidate, not 10^6."""
    big_field = Algebra.build(1000003, ["1"], [])
    simple = Rep(big_field, (1,), ())
    assert is_isomorphic(simple, simple, max_candidates=1)
    twisted = Rep(LOOP2_F3, (2,), (Mat.from_rows(3, [[0, 0], [2, 0]]),))
    plain = Rep(LOOP2_F3, (2,), (Mat.from_rows(3, [[0, 0], [1, 0]]),))
    assert is_isomorphic(twisted, plain)
    with pytest.raises(CapExceeded):
        is_isomorphic(twisted, plain, max_candidates=3)
