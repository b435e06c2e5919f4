"""Value semantics of the value and record types.

The slots types (Mat, Subspace, Rep, Morphism, SubRep, SubcatBits, Family)
compare and hash by value, refuse assignment, have no instance ``__dict__``
and are never equal to a plain tuple of their fields.  Their fields are
their public slots, recorded as ``_fields``.  The record types are
NamedTuples.  Every repr is pinned to the text the earlier dataclass versions
printed.
"""

import copy
import pickle
from itertools import product

import pytest

from subcat import _kernel_search as kernel_search
from subcat.catalog import Catalog, _is_brick, build_builtin
from subcat.cli import RunConfig
from subcat.closures import ChainCertificate, ChainStep, SubcatBits, TorsionPair
from subcat.errors import ShapeError
from subcat.lattices import Family, HasseDiagram, RelationsReport
from subcat.linalg import Mat, Subspace, pack_row, rref, solve
from subcat.rep import (Algebra, Arrow, Morphism, Relation, Rep, SubRep, flat_entries,
                        morphism_from_coeffs)


class Cat:
    """A stand-in catalog with a fixed repr (a real one prints its address)."""

    n = 3

    def __repr__(self):
        return "CAT"


CAT = Cat()
A2 = Algebra.build(2, ["1", "2"], [("a", "1", "2")])


def rep_b():
    return Rep.make(A2, (1, 1), [[[1]]])


def family():
    return Family("tors", CAT, (SubcatBits(CAT, 0),))


# name -> (factory of a fresh instance, the repr the dataclass version printed);
# {r} stands for repr(rep_b()) and {f} for repr(family()).
FACTORIES = {
    "Mat2": (lambda: Mat.from_rows(2, [[1, 0], [1, 1]]),
             "Mat(p=2, nrows=2, ncols=2, rows=(1, 3))"),
    "Mat3": (lambda: Mat.from_rows(3, [[1, 2]]),
             "Mat(p=3, nrows=1, ncols=2, rows=((1, 2),))"),
    "Subspace": (lambda: Subspace.span(3, 2, [[1, 2]]),
                 "Subspace(ambient_dim=2, basis=Mat(p=3, nrows=1, ncols=2, rows=((1, 2),)))"),
    "Rep": (rep_b,
            "Rep(algebra=Algebra(p=2, vertices=('1', '2'), arrows=(Arrow(name='a', source=0, "
            "target=1),), relations=()), dims=(1, 1), mats=(Mat(p=2, nrows=1, ncols=1, rows=(1,)),))"),
    "Morphism": (lambda: Morphism.identity(rep_b()),
                 "Morphism(source={r}, target={r}, comps=(Mat(p=2, nrows=1, ncols=1, rows=(1,)), "
                 "Mat(p=2, nrows=1, ncols=1, rows=(1,))))"),
    "SubRep": (lambda: SubRep.zero(rep_b()),
               "SubRep(ambient={r}, spaces=(Subspace(ambient_dim=1, basis=Mat(p=2, nrows=0, "
               "ncols=1, rows=())), Subspace(ambient_dim=1, basis=Mat(p=2, nrows=0, ncols=1, "
               "rows=()))))"),
    "SubcatBits": (lambda: SubcatBits(CAT, 5), "SubcatBits(catalog=CAT, bits=5)"),
    "Family": (family,
               "Family(kind='tors', catalog=CAT, members=(SubcatBits(catalog=CAT, bits=0),))"),
    "Arrow": (lambda: Arrow("a", 0, 1), "Arrow(name='a', source=0, target=1)"),
    "Relation": (lambda: Relation("a*b", 0, 2, ((1, (0, 1)),)),
                 "Relation(label='a*b', source=0, target=2, terms=((1, (0, 1)),))"),
    "Algebra": (lambda: Algebra.build(3, ["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")],
                                      [[(1, ["a", "b"])]]),
                "Algebra(p=3, vertices=('1', '2', '3'), arrows=(Arrow(name='a', source=0, "
                "target=1), Arrow(name='b', source=1, target=2)), relations=(Relation("
                "label='a*b', source=0, target=2, terms=((1, (0, 1)),)),))"),
    "ChainStep": (lambda: ChainStep(("S1",), (1, 0)),
                  "ChainStep(module=('S1',), layer_dims=(1, 0))"),
    "ChainCertificate": (lambda: ChainCertificate("tors", ("P1",), True,
                                                  (ChainStep(("S1",), (1, 0)),)),
                         "ChainCertificate(kind='tors', start=('P1',), member=True, "
                         "steps=(ChainStep(module=('S1',), layer_dims=(1, 0)),))"),
    "TorsionPair": (lambda: TorsionPair(SubcatBits(CAT, 1), True, ({"module": "S1", "ok": True},)),
                    "TorsionPair(tors=SubcatBits(catalog=CAT, bits=1), verified=True, "
                    "witnesses=({{'module': 'S1', 'ok': True}},))"),
    "HasseDiagram": (lambda: HasseDiagram(family(), (SubcatBits(CAT, 0),), ((0, 1),)),
                     "HasseDiagram(family={f}, nodes=(SubcatBits(catalog=CAT, bits=0),), "
                     "edges=((0, 1),))"),
    "RelationsReport": (lambda: RelationsReport("a2", {"tors": family()}, [("serre", "tors", True)],
                                                [["tors"]], True, False, None),
                        "RelationsReport(catalog_label='a2', families={{'tors': {f}}}, "
                        "inclusions=[('serre', 'tors', True)], coincidence_groups=[['tors']], "
                        "all_pairwise_distinct=True, commutative=False, commutative_collapse=None)"),
    "RunConfig": (lambda: RunConfig("a2", None, None, "table", False, None),
                  "RunConfig(builtin='a2', algebra=None, modules=None, fmt='table', "
                  "explain=False, out=None)"),
}
SLOTS_TYPES = ("Mat2", "Mat3", "Subspace", "Rep", "Morphism", "SubRep", "SubcatBits", "Family")
# Their fields hold dicts or lists, so they were unhashable as dataclasses too.
UNHASHABLE = ("RelationsReport",)

FIELDS = {
    "Mat2": ("p", "nrows", "ncols", "rows"), "Mat3": ("p", "nrows", "ncols", "rows"),
    "Subspace": ("ambient_dim", "basis"), "Rep": ("algebra", "dims", "mats"),
    "Morphism": ("source", "target", "comps"), "SubRep": ("ambient", "spaces"),
    "SubcatBits": ("catalog", "bits"), "Family": ("kind", "catalog", "members"),
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_equal_fields_are_equal_with_equal_hash(name):
    make, _ = FACTORIES[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    elif name != "TorsionPair":  # its witnesses are dicts
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_repr_is_pinned(name):
    make, text = FACTORIES[name]
    r = repr(rep_b())
    f = repr(family())
    assert repr(make()) == text.format(r=r, f=f)


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_assigning_a_field_raises(name):
    obj = FACTORIES[name][0]()
    first = FIELDS[name][0] if name in FIELDS else type(obj)._fields[0]
    with pytest.raises(AttributeError):
        setattr(obj, first, None)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1


@pytest.mark.parametrize("name", SLOTS_TYPES)
def test_slots_types_are_not_tuples(name):
    obj = FACTORIES[name][0]()
    fields = tuple(getattr(obj, f) for f in FIELDS[name])
    assert obj != fields and fields != obj
    assert not hasattr(obj, "__dict__")
    with pytest.raises(AttributeError):
        delattr(obj, FIELDS[name][0])


@pytest.mark.parametrize("name", SLOTS_TYPES)
def test_slots_types_copy_and_pickle_by_value(name):
    obj = FACTORIES[name][0]()
    clones = [copy.copy(obj)]
    if "catalog" not in FIELDS[name]:  # a catalog compares by identity, so its copy differs
        clones += [copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))]
    for clone in clones:
        assert clone is not obj
        assert clone == obj and hash(clone) == hash(obj)


@pytest.mark.parametrize("name", SLOTS_TYPES)
def test_slots_types_record_their_fields_and_hash_them_as_a_tuple(name):
    obj = FACTORIES[name][0]()
    assert FIELDS[name] == type(obj)._fields
    # the dataclass formula: the hash of the tuple of field values
    assert hash(obj) == hash(tuple(getattr(obj, f) for f in FIELDS[name]))


def test_field_values_distinguish():
    assert Mat.from_rows(2, [[1, 0]]) != Mat.from_rows(2, [[0, 1]])
    assert Mat.from_rows(2, [[1]]) != Mat.from_rows(3, [[1]])
    assert SubcatBits(CAT, 1) != SubcatBits(Cat(), 1)
    assert Family("tors", CAT, ()) != Family("torf", CAT, ())


def test_mat_still_rejects_bad_rows():
    with pytest.raises(ShapeError):
        Mat(2, 2, 1, (1,))
    with pytest.raises(ShapeError):
        Mat(2, 1, 1, (2,))
    with pytest.raises(ShapeError):
        Mat(3, 1, 2, ((1,),))
    with pytest.raises(ShapeError):
        Mat(3, 1, 1, ((3,),))


def test_subspace_still_rejects_mismatched_basis():
    with pytest.raises(ShapeError):
        Subspace(3, Mat.zeros(2, 0, 2))


def test_family_gets_a_fresh_default_config():
    """Each to_json builds its own fixed checker_config, so editing one leaves the next intact."""
    a, b = Family("tors", CAT, ()), Family("tors", CAT, ())
    first = a.to_json()["checker_config"]
    assert first == b.to_json()["checker_config"] == {"mult_cap": 2, "dim_cap": 16}
    first["mult_cap"] = 4
    assert a.to_json()["checker_config"] == {"mult_cap": 2, "dim_cap": 16}


def test_family_bitsets_are_cached_and_outside_equality():
    a, b = family(), family()
    a.bitsets()
    assert a.bitsets() is a.bitsets() == frozenset({0})
    assert a == b and hash(a) == hash(b)


def test_rep_hashes_itself_once():
    rep = rep_b()
    assert rep._hash is None
    first = hash(rep)
    assert rep._hash == first == hash(rep) == hash(rep_b())


@pytest.mark.parametrize("build", [
    lambda: Mat(2, 1, 2, (3,)),
    lambda: Mat.from_rows(3, [[1, 2], [0, 1]]),
    lambda: Mat.zeros(5, 2, 3),
    lambda: Mat.identity(2, 3),
    lambda: Mat.identity(3, 2),
])
def test_post_init_patched_on_the_class_runs_once_per_mat(monkeypatch, build):
    calls = []
    original = Mat.__post_init__

    def counted(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(Mat, "__post_init__", counted)
    m = build()
    assert calls == [m] and calls[0] is m


# -- the mu bounds against the all-subspace filter ----------------------------------------

MU_DESCRIPTORS = (["a2", "a3"]
                  + [f"an:{n}:{w}" for n, words in ((2, "<>"), (3, ("<<", "<>", "><", ">>")),
                                                    (4, ("<<<", "<<>", "<><", "<>>",
                                                         "><<", "><>", ">><", ">>>")))
                     for w in words]
                  + [f"uniserial:{n}" for n in (2, 3, 4, 5)])


def all_subspaces(p, dim):
    """Every subspace of F_p^dim, by breadth-first span growth."""
    zero = Subspace.zero(p, dim)
    vectors = [pack_row(p, v) for v in product(range(p), repeat=dim) if any(v)]
    seen = {zero.basis.rows: zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for sp in frontier:
            for vec in vectors:
                if not sp.has_vector(vec):
                    grown = sp.add(Subspace.from_matrix_rows(Mat(p, 1, dim, (vec,))))
                    if grown.basis.rows not in seen:
                        seen[grown.basis.rows] = grown
                        nxt.append(grown)
        frontier = nxt
    return list(seen.values())


def reference_action(homs, e):
    """g -> g.e on the span of homs, with the coordinates of each g.e from a solve."""
    p = e.source.algebra.p
    basis_cols = Mat.from_rows(p, [flat_entries(g) for g in homs]).transpose()
    rows = []
    for g in homs:
        rhs = Mat.from_rows(p, [[x] for x in flat_entries(g.compose(e))], ncols=1)
        rows.append(list(solve(basis_cols, rhs).particular.column(0)))
    return Mat.from_rows(p, rows, ncols=len(homs))


def stable_subspaces(p, h, actions):
    return [w for w in all_subspaces(p, h)
            if all(w.contains(Subspace.from_matrix_rows(w.basis.mul(act))) for act in actions)]


def reference_mu_bound(cat, i, j):
    """The mu bound by filtering every subspace of Hom(X_i, X_j), with coordinates by a solve."""
    homs = cat.hom_pair_basis(i, j)
    h = len(homs)
    if h <= 1:
        return h
    p = cat.algebra.p
    ebasis = cat.hom_pair_basis(i, i)
    de = len(ebasis)
    src = cat.indecs[i]
    action = lambda e: reference_action(homs, e)
    endos = [(c, morphism_from_coeffs(ebasis, c, src, src))
             for c in product(range(p), repeat=de) if any(c)]
    nonunits = [c for c, f in endos if any(rref(m).rank < d for m, d in zip(f.comps, src.dims))]
    rad = Subspace.span(p, de, nonunits)
    if p**rad.dim != len(nonunits) + 1:
        return h
    residue_dim = de - rad.dim
    actions = [action(e) for e in ebasis]
    rad_actions = [action(morphism_from_coeffs(ebasis, rad.basis.row_entries(r), src, src))
                   for r in range(rad.dim)]
    best = 1
    for w in stable_subspaces(p, h, actions):
        if w.dim == 0:
            continue
        wrad = Subspace.zero(p, h)
        for act in rad_actions:
            wrad = wrad.add(Subspace.from_matrix_rows(w.basis.mul(act)))
        over = w.dim - wrad.dim
        if over % residue_dim:
            return h
        best = max(best, over // residue_dim)
    return best


def kronecker_preprojectives(p):
    """Three preprojectives of the Kronecker quiver: bricks with Hom spaces of dimension 2 and 3."""
    k = Algebra.build(p, ["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    mods = {"P2": ((0, 1), [[[]], [[]]]),
            "P1": ((1, 2), [[[1], [0]], [[0], [1]]]),
            "X": ((2, 3), [[[1, 0], [0, 1], [0, 0]], [[0, 0], [1, 0], [0, 1]]])}
    return Catalog(k, [Rep.make(k, d, m) for d, m in mods.values()], list(mods))


def f2_times_f4():
    """F_2[x]/(x^3 + x^2 + x) = F_2 x F_4: S1 is a brick whose End is F_4, of dimension 2."""
    alg = Algebra.build(2, ["1"], [("x", "1", "1")],
                        [[(1, ["x", "x", "x"]), (1, ["x", "x"]), (1, ["x"])]])
    mods = [Rep.make(alg, (1,), [[[0]]]), Rep.make(alg, (2,), [[[0, 1], [1, 1]]])]
    return Catalog(alg, mods, ["S0", "S1"])


def mu_catalogs(p):
    for d in MU_DESCRIPTORS:
        cat = build_builtin(d, p=p)
        yield d, cat
        yield d + "^op", cat.opposite()
    cat = kronecker_preprojectives(p)
    yield "kronecker", cat
    yield "kronecker^op", cat.opposite()
    if p == 2:
        cat = f2_times_f4()
        yield "f2xf4", cat
        yield "f2xf4^op", cat.opposite()


@pytest.mark.parametrize("p", [2, 3])
def test_mu_tables_equal_the_all_subspace_filter(p):
    # imported here: test_kernel_search imports this module
    from test_kernel_search import mu_table

    for d, c in mu_catalogs(p):
        if p == 3 and d.startswith("uniserial:5"):
            # the filter takes about 30 s per catalog here; every Hom between
            # uniserials is cyclic over End, so each bound is 1
            assert mu_table(c) == ((1,) * c.n,) * c.n, d
            continue
        mu = tuple(tuple(reference_mu_bound(c, i, j) for j in range(c.n)) for i in range(c.n))
        assert mu_table(c) == mu, d
        if d == "kronecker":
            # a brick's End is the field, so every subspace of Hom out of it is a submodule
            assert mu == ((1, 2, 3), (0, 1, 2), (0, 0, 1))
        if d == "f2xf4":
            # End(S1) = F_4, so Hom(S1, S1) is one copy of F_4, though of dimension 2 over F_2
            assert mu == ((1, 0), (0, 1))


def test_mu_bounds_out_of_bricks_search_nothing(monkeypatch):
    """End = k makes every subspace a submodule; over F_31 the joins would visit 31^3 maps."""
    from test_kernel_search import mu_table

    def no_search(*args):
        raise AssertionError("a brick's mu bound needs no composition table")

    monkeypatch.setattr(kernel_search, "_pair_lattice", no_search)
    assert mu_table(kronecker_preprojectives(31)) == ((1, 2, 3), (0, 1, 2), (0, 0, 1))


def test_a_brick_whose_end_is_bigger_than_the_field():
    from test_kernel_search import mu_table

    cat = f2_times_f4()
    ends = cat.hom_pair_basis(1, 1)
    assert len(ends) == 2 and _is_brick(cat.indecs[1], ends)
    assert mu_table(cat) == ((1, 0), (0, 1))


def test_all_subspaces_of_a_small_space():
    # 1 + 7 + 7 + 1 subspaces of F_2^3
    spaces = all_subspaces(2, 3)
    assert len(spaces) == 16 and len(set(spaces)) == 16
