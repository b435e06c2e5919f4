"""The extension table from Ext^1 ranks against assembled and identified middles, the
coboundaries read off the Hom system against the loop over unit matrices, and the packed
Kronecker systems of a build against the scalar loops they replaced."""

import json

import pytest

from subcat import catalog as catalog_module
from subcat.catalog import Catalog, build_builtin
from subcat.errors import UnknownModule
from subcat.files import load_catalog
from subcat.linalg import Mat, Subspace, _reduced_rows, nullspace, pack_row
from subcat.rep import _hom_system, path_matrix, validate

from test_lattice_path import nakayama_a3_rad2

CATALOGS = [
    ("a2", 2), ("a3", 2), *((f"an:3:{w}", 2) for w in (">>", "<<", "<>", "><")),
    ("uniserial:2", 2), ("uniserial:3", 2), ("uniserial:4", 2),
    ("a2", 3), ("a3", 3), ("uniserial:3", 3), ("a2", 5),
]


def assembled(cat, i, j, theta, offs):
    m = cat._assemble_extension(cat.indecs[i], cat.indecs[j], theta, offs)
    assert validate(m) is None
    return m


def reference_hom_system(m, n):
    """The Hom system of (m, n) entry by entry: row (r, c) of arrow a's block is f_t m_a - n_a f_s."""
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
                row = [0] * total
                for k in range(m.dims[t]):
                    row[offs[t] + r * m.dims[t] + k] += ma.entry(k, c)
                for k in range(n.dims[s]):
                    row[offs[s] + k * m.dims[s] + c] -= na.entry(r, k)
                rows.append(pack_row(p, row))
    return Mat(p, len(rows), total, tuple(rows)), tuple(offs)


def _path_or_identity(rep, path, endpoint):
    return path_matrix(rep, path) if path else Mat.identity(rep.algebra.p, rep.dims[endpoint])


def reference_cocycles(cat, i, j):
    """Theta offsets, their total and the relation rows whose nullspace is Z, entry by entry."""
    alg = cat.algebra
    p = alg.p
    L, N = cat.indecs[i], cat.indecs[j]
    offs = []
    total = 0
    for a in alg.arrows:
        offs.append(total)
        total += L.dims[a.target] * N.dims[a.source]
    rows = []
    for rel in alg.relations:
        block_rows, block_cols = L.dims[rel.target], N.dims[rel.source]
        coeff_rows = [[0] * total for _ in range(block_rows * block_cols)]
        for coeff, path in rel.terms:
            for t, a_t in enumerate(path):
                tg, sr = alg.arrows[a_t].target, alg.arrows[a_t].source
                npre = _path_or_identity(N, path[:t], sr)
                lpost = _path_or_identity(L, path[t + 1:], tg)
                for r in range(block_rows):
                    for c in range(block_cols):
                        out_row = coeff_rows[r * block_cols + c]
                        for alpha in range(L.dims[tg]):
                            for beta in range(N.dims[sr]):
                                idx = offs[a_t] + alpha * N.dims[sr] + beta
                                out_row[idx] = (out_row[idx]
                                                + coeff * lpost.entry(r, alpha) * npre.entry(beta, c)) % p
        rows.extend(pack_row(p, r) for r in coeff_rows)
    return offs, total, rows


def reference_cocycle_basis(cat, i, j):
    """Z as an RREF basis: the nullspace of the reference relation rows, or all of theta."""
    offs, total, rows = reference_cocycles(cat, i, j)
    p = cat.algebra.p
    return nullspace(Mat(p, len(rows), total, tuple(rows))) if rows else Mat.identity(p, total)


def reference_table(cat):
    """Every cocycle theta, all of Z and not coset representatives: assemble, identify."""
    table = {}
    for i in range(cat.n):
        for j in range(cat.n):
            offs = reference_cocycles(cat, i, j)[0]
            cocycles = reference_cocycle_basis(cat, i, j)
            table[(i, j)] = frozenset(
                cat.identify(assembled(cat, i, j, theta, offs))
                for theta in Subspace(cocycles.ncols, cocycles).vectors()
            )
    return table


def ext_spaces(cat):
    return {(i, j): cat._ext_space(i, j, _hom_system(cat.indecs[j], cat.indecs[i])[0])
            for i in range(cat.n) for j in range(cat.n)}


def reference_coboundaries(cat, i, j):
    """theta = L*s - s*N for s running over unit matrices at each vertex, packed."""
    alg = cat.algebra
    p = alg.p
    L, N = cat.indecs[i], cat.indecs[j]
    offs, total, _ = reference_cocycles(cat, i, j)
    rows = []
    for v in range(alg.n_vertices):
        for r in range(L.dims[v]):
            for c in range(N.dims[v]):
                vec = [0] * total
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
                rows.append(pack_row(p, vec))
    return rows


def assert_coboundaries_match_reference(cat):
    """B read off the Hom system of the reversed pair spans what the unit-matrix loop spans.

    A pair whose rank count gives Ext^1 = 0 skips the elimination and keeps no
    echelon rows of B; there the loop's B must be all of Z.
    """
    p = cat.algebra.p
    for (i, j), space in ext_spaces(cat).items():
        reference = _reduced_rows(p, reference_coboundaries(cat, i, j))
        if space.coset:
            assert _reduced_rows(p, space.cobound.values()) == reference, (i, j)
        else:
            assert reference == reference_cocycle_basis(cat, i, j).rows, (i, j)


def checked_rank_profiles(cat):
    """Check each long-exact-sequence profile against the assembled middle; their number."""
    spaces = ext_spaces(cat)
    nonsplit = 0
    for (i, j), space in spaces.items():
        for theta, prof in cat._middle_profiles(i, j, spaces):
            assert prof == cat.profile(assembled(cat, i, j, theta, space.offs)), (i, j)
            nonsplit += 1
    return nonsplit


@pytest.fixture()
def no_middle_modules(monkeypatch):
    """Make any assembly, profile or identification of a middle term fail."""
    def fail(*args, **kwargs):
        raise AssertionError("a complete catalog decodes every middle from its ranks")

    for name in ("_assemble_extension", "profile", "identify"):
        monkeypatch.setattr(Catalog, name, fail)
    return monkeypatch


@pytest.mark.parametrize("descriptor,p", CATALOGS)
def test_ext_table_matches_every_cocycle(descriptor, p, no_middle_modules):
    cat = build_builtin(descriptor, p=p)
    op = cat.opposite()
    for c in (cat, op):
        c.ext_table
    no_middle_modules.undo()
    for c in (cat, op):
        assert c.ext_table == reference_table(c)
        assert checked_rank_profiles(c)
        assert_coboundaries_match_reference(c)


def test_ext_table_matches_on_incomplete_catalog(tmp_path):
    cat = nakayama_a3_rad2(tmp_path)
    assert not cat.complete
    for c in (cat, cat.opposite()):
        assert c.ext_table == reference_table(c)
        assert checked_rank_profiles(c)
        assert_coboundaries_match_reference(c)


def test_missing_middle_summand_raises(tmp_path):
    """A2 catalog {S1, S2} without P1, the middle of the non-split extension of S1 by S2."""
    apath = tmp_path / "algebra.json"
    apath.write_text(json.dumps({
        "field_char": 2,
        "vertices": ["1", "2"],
        "arrows": [{"name": "a", "from": "1", "to": "2"}],
    }))
    paths = []
    for name, dims in (("S1", {"1": 1}), ("S2", {"2": 1})):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({"dims": dims}))
    with pytest.raises(UnknownModule, match=r"dimension vector \(1, 1\)"):
        load_catalog(apath, paths)


# -- packed Kronecker systems against the scalar loops ---------------------------------

GATE = [(d, p) for d in dict.fromkeys(d for d, _ in CATALOGS) for p in (2, 3, 5)] + [
    ("an:5", 3), ("uniserial:5", 3)]


def assert_packed_systems_match_reference(cat):
    """Each pair's Hom system equals the scalar one; its relation rows span what the scalar rows span."""
    p = cat.algebra.p
    for i, m in enumerate(cat.indecs):
        for j, n in enumerate(cat.indecs):
            assert _hom_system(m, n) == reference_hom_system(m, n), (i, j)
            offs, total, rows = cat._cocycle_constraint(i, j)
            ref_offs, ref_total, ref_rows = reference_cocycles(cat, i, j)
            assert (offs, total) == (ref_offs, ref_total), (i, j)
            assert _reduced_rows(p, rows) == _reduced_rows(p, ref_rows), (i, j)


def read_tables(cat):
    """Every Hom basis and the extension table, each built on its first read."""
    bases = {(i, j): cat.hom_pair_basis(i, j) for i in range(cat.n) for j in range(cat.n)}
    return bases, cat.ext_table


def built_with_tables(make):
    """The catalog and its opposite, with every table read."""
    cats = [make()]
    cats.append(cats[0].opposite())
    return [(cat, read_tables(cat)) for cat in cats]


def assert_build_matches_reference_build(make, monkeypatch):
    """Hom dimensions and bases, extension table and decoder equal those of a build through
    the scalar loops, on the catalog and on its opposite.  The reference reads its tables
    while the scalar loops are in place."""
    built = built_with_tables(make)
    monkeypatch.setattr(catalog_module, "_hom_system", reference_hom_system)
    monkeypatch.setattr(Catalog, "_cocycle_constraint", reference_cocycles)
    reference = built_with_tables(make)
    monkeypatch.undo()
    for (cat, tables), (ref, ref_tables) in zip(built, reference):
        assert_packed_systems_match_reference(cat)
        assert cat.hom_dims == ref.hom_dims
        assert tables == ref_tables
        assert cat._inverse == ref._inverse


@pytest.mark.parametrize("descriptor,p", GATE)
def test_packed_build_matches_reference_build(descriptor, p, monkeypatch):
    assert_build_matches_reference_build(lambda: build_builtin(descriptor, p=p), monkeypatch)


def test_packed_build_matches_reference_build_on_incomplete_catalog(tmp_path_factory, monkeypatch):
    assert_build_matches_reference_build(
        lambda: nakayama_a3_rad2(tmp_path_factory.mktemp("nakayama")), monkeypatch)


def test_rank_counts_skip_the_eliminations(monkeypatch):
    """Over the build of an:7 and a read of every table, each pair with a common support
    vertex has its Hom system eliminated exactly once, no other system is eliminated, and
    only pairs with Ext^1 != 0 reach the coset elimination."""
    systems, nullspaces, eliminated, current = {}, [], [], []
    hom_system, null, ext_space, pivot_insert = (
        catalog_module._hom_system, catalog_module.nullspace, Catalog._ext_space,
        catalog_module._pivot_insert)

    def recording_system(m, n):
        system = hom_system(m, n)
        systems[id(system[0])] = (m, n)
        return system

    def recording_nullspace(mat):
        nullspaces.append(systems.get(id(mat)))
        return null(mat)

    def recording_space(self, i, j, reverse):
        current.append((i, j))
        try:
            return ext_space(self, i, j, reverse)
        finally:
            current.pop()

    def recording_insert(p, piv, v):
        if current and current[-1] not in eliminated:
            eliminated.append(current[-1])
        return pivot_insert(p, piv, v)

    monkeypatch.setattr(catalog_module, "_hom_system", recording_system)
    monkeypatch.setattr(catalog_module, "nullspace", recording_nullspace)
    monkeypatch.setattr(Catalog, "_ext_space", recording_space)
    monkeypatch.setattr(catalog_module, "_pivot_insert", recording_insert)
    cat = build_builtin("an:7")
    read_tables(cat)
    monkeypatch.undo()
    index = {m: k for k, m in enumerate(cat.indecs)}
    support = [{v for v, d in enumerate(m.dims) if d} for m in cat.indecs]
    shared = {(i, j) for i in range(cat.n) for j in range(cat.n) if support[i] & support[j]}
    assert None not in nullspaces
    assert sorted((index[m], index[n]) for m, n in nullspaces) == sorted(shared)
    assert len(shared) < cat.n ** 2
    p = cat.algebra.p
    nonzero = {(i, j) for i in range(cat.n) for j in range(cat.n)
               if len(_reduced_rows(p, reference_coboundaries(cat, i, j)))
               < reference_cocycle_basis(cat, i, j).nrows}
    assert nonzero and len(nonzero) < cat.n ** 2
    assert sorted(eliminated) == sorted(nonzero)
