"""Value semantics of the hand-written value and record types.

The slots types (Mat, Subspace, Rep, Morphism, SubRep, SubcatBits, CheckConfig,
Family) compare and hash by value, refuse assignment, have no instance
``__dict__`` and are never equal to a plain tuple of their fields.  The record
types are NamedTuples.  Every repr is pinned to the text the earlier
dataclass versions printed.
"""

import copy
import pickle

import pytest

from subcat.catalog import _enumerate_subspaces, build_builtin
from subcat.cli import RunConfig
from subcat.closures import ChainCertificate, ChainStep, SubcatBits, TorsionPair
from subcat.errors import ShapeError
from subcat.lattices import CheckConfig, Family, HasseDiagram, RelationsReport
from subcat.linalg import Mat, Subspace
from subcat.rep import Algebra, Arrow, Morphism, Relation, Rep, SubRep
import subcat.catalog as catalog_mod


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
    "CheckConfig": (lambda: CheckConfig(), "CheckConfig(mult_cap=2, dim_cap=16)"),
    "Family": (family,
               "Family(kind='tors', catalog=CAT, members=(SubcatBits(catalog=CAT, bits=0),), "
               "config=CheckConfig(mult_cap=2, dim_cap=16))"),
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
    "RunConfig": (lambda: RunConfig("a2", None, None, "table", CheckConfig(3, 5), False, None),
                  "RunConfig(builtin='a2', algebra=None, modules=None, fmt='table', "
                  "caps=CheckConfig(mult_cap=3, dim_cap=5), explain=False, out=None)"),
}
SLOTS_TYPES = ("Mat2", "Mat3", "Subspace", "Rep", "Morphism", "SubRep", "SubcatBits",
               "CheckConfig", "Family")
# Their fields hold dicts or lists, so they were unhashable as dataclasses too.
UNHASHABLE = ("RelationsReport",)

FIELDS = {
    "Mat2": ("p", "nrows", "ncols", "rows"), "Mat3": ("p", "nrows", "ncols", "rows"),
    "Subspace": ("ambient_dim", "basis"), "Rep": ("algebra", "dims", "mats"),
    "Morphism": ("source", "target", "comps"), "SubRep": ("ambient", "spaces"),
    "SubcatBits": ("catalog", "bits"), "CheckConfig": ("mult_cap", "dim_cap"),
    "Family": ("kind", "catalog", "members", "config"),
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


def test_field_values_distinguish():
    assert Mat.from_rows(2, [[1, 0]]) != Mat.from_rows(2, [[0, 1]])
    assert Mat.from_rows(2, [[1]]) != Mat.from_rows(3, [[1]])
    assert SubcatBits(CAT, 1) != SubcatBits(Cat(), 1)
    assert CheckConfig(2, 16) != CheckConfig(2, 17)
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


@pytest.mark.parametrize("caps", [(0, 16), (2, 0), (-1, -1)])
def test_check_config_rejects_caps_below_one(caps):
    with pytest.raises(ShapeError):
        CheckConfig(*caps)


def test_family_gets_a_fresh_default_config():
    a, b = Family("tors", CAT, ()), Family("tors", CAT, ())
    assert a.config == CheckConfig() and b.config == CheckConfig()
    assert a.config is not b.config
    assert Family("tors", CAT, (), CheckConfig(4, 32)).config == CheckConfig(4, 32)


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


# -- the memoized subspace enumeration behind the mu bounds --------------------------------

MU_DESCRIPTORS = (["a2", "a3"]
                  + [f"an:{n}:{w}" for n, words in ((2, "<>"), (3, ("<<", "<>", "><", ">>")),
                                                    (4, ("<<<", "<<>", "<><", "<>>",
                                                         "><<", "><>", ">><", ">>>")))
                     for w in words]
                  + [f"uniserial:{n}" for n in (2, 3, 4, 5)])


def mu_tables():
    out = {}
    for d in MU_DESCRIPTORS:
        cat = build_builtin(d)
        for label, c in ((d, cat), (d + "^op", cat.opposite())):
            out[label] = c._mu_and_saturation()
    return out


def test_memoized_subspaces_give_the_same_mu_tables(monkeypatch):
    _enumerate_subspaces.cache_clear()
    memoized = mu_tables()
    info = _enumerate_subspaces.cache_info()
    assert info.hits > info.misses > 0
    uncached = _enumerate_subspaces.__wrapped__
    monkeypatch.setattr(catalog_mod, "_enumerate_subspaces", lambda p, dim: list(uncached(p, dim)))
    assert mu_tables() == memoized


def test_enumerated_subspaces_are_shared_and_immutable():
    first = _enumerate_subspaces(2, 3)
    assert _enumerate_subspaces(2, 3) is first
    assert isinstance(first, tuple)
    # 1 + 7 + 7 + 1 subspaces of F_2^3
    assert len(first) == 16 and len(set(first)) == 16
