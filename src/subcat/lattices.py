"""Subcategory families of the seven kinds, and the class checkers.

Enumeration (``enumerate_family``, strategy ``auto``) is exact and derives
every family from lattice identities over bitset tables, built lazily per
catalog and cached on it.

On a catalog marked complete (it lists every indecomposable, as the
builtins do), serre, tors and torf are read off ``hom_dims`` and the vertex
supports alone:

* tors: NextClosure (Ganter) over tors(X) = perp-(X^perp).  In a length
  category (perp-(C^perp), C^perp) is the torsion pair generated by C, so
  each closure is two AND passes over zero-Hom row and column masks.
* torf: {T^perp : T a torsion class}, a bijection onto the torsion-free
  classes.
* serre: one member per set V of vertices, the indecomposables supported
  in V, since a Serre subcategory is fixed by its simples.

Elsewhere, and on every catalog for the other kinds:

* ``Q[i]`` = tors({i}) and ``S[i]`` = torf({i}), one trace/reject chain
  closure per indecomposable, and the extension table read as bit rows.
  Extension closure of a set of indecomposables is ``closures._fill``, the
  bitset fixpoint over member pairs that the Serre closure runs too; pair
  closure suffices, since an extension by direct sums refines into iterated
  extensions by summands.
* serre: NextClosure over ``serre_closure``.
* tors, torf: NextClosure over tors(X) = Filt(union of Q[x]), since the join
  of torsion classes is Filt of their union; torf dually with ``S``.
* wide: {Filt(B) : B a semibrick} (Ringel 1976).  A brick has a division
  ring as endomorphism ring; a semibrick is a set of pairwise Hom-orthogonal
  bricks.
* ie: {T meet F} over torsion classes T and torsion-free classes F, the
  source paper's theorem: the IE-closed subcategories are exactly these.
* ice: {T meet W} and ike: {F meet W} over wide subcategories W
  (Enomoto-Sakai; every catalog in scope is tau-tilting finite).

The identities hold in the whole module category.  A user catalog that is
not marked complete therefore builds both chain tables first, which
identifies every trace quotient and reject of its members and raises
UnknownModule when one is missing.  The chain closures also stay behind
``closure``, ``is_closed`` and the verify oracles, which keeps those
independent of the perps.

``is_closed`` is the independent oracle, and strategy ``bruteforce``
filters one candidate list through it for all seven kinds: the closed sets
of ``_fill`` over the extension rows, the subsets its own extension check
passes, listed once per catalog.  Every kind is extension-closed, so no
member of a family is missed.  It decides serre, tors and torf exactly
through the chain closure operators.  For wide, ice, ike and ie it runs the
letter checks of ``_kernel_search``, a module imported on the first such
check: the exact extension test on every call, then the image test for
ice, ike and ie and the kernel/cokernel step for wide, ice and ike, which
decides exactly and names the witness.  Each image, kernel and cokernel
verdict is kept per catalog and subset, so the four kinds decide each
letter once per subset.  ie is thus decided by its definition, closure
under images and extensions, and not by the theorem the lattice path uses.
No check takes a configured cap; a family's JSON keeps, as a fixed record,
the ``checker_config`` of the caps the checks once took.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional

from .catalog import Catalog, _is_brick
from .closures import SubcatBits, _ext_rows, _fill, serre_closure, torf_closure, tors_closure
from .errors import ShapeError
from .linalg import _Frozen, _slot_setters

KINDS = ("serre", "tors", "torf", "wide", "ice", "ike", "ie")

INCLUSION_ARROWS = (
    ("serre", "tors"),
    ("serre", "torf"),
    ("serre", "wide"),
    ("torf", "ike"),
    ("tors", "ice"),
    ("wide", "ike"),
    ("wide", "ice"),
    ("ice", "ie"),
    ("ike", "ie"),
)


# -- is_closed ------------------------------------------------------------------------


_CLOSURES = {"serre": serre_closure, "tors": tors_closure, "torf": torf_closure}


def is_closed(kind: str, s: SubcatBits) -> tuple[bool, Optional[str]]:
    """Is the subcategory closed for the given kind; if not, why not.

    serre/tors/torf are decided exactly through closure operators; the
    wide/ice/ike/ie letter checks combine the exact extension and image
    tests with, for all but ie, the kernel/cokernel step.
    """
    if kind not in KINDS:
        raise ShapeError(f"unknown subcategory kind {kind!r}")
    if kind in _CLOSURES:
        closed = _CLOSURES[kind](s)
        if closed.bits != s.bits:
            return False, f"closure adds {_added_names(s, closed)}"
        return True, None
    from ._kernel_search import letter_violation

    witness = letter_violation(kind, s)
    return witness is None, witness


def _added_names(s: SubcatBits, closed: SubcatBits) -> str:
    extra = [s.catalog.names[i] for i in closed.indices() if not s.has(i)]
    return "{" + ", ".join(extra) + "}"


# -- families -------------------------------------------------------------------------


class Family(_Frozen):
    """All subcategories of one kind over a catalog, sorted by (size, bitset)."""

    __slots__ = ("kind", "catalog", "members", "_bitsets")

    def __init__(self, kind: str, catalog: Catalog, members: tuple[SubcatBits, ...]):
        _fam_kind(self, kind)
        _fam_catalog(self, catalog)
        _fam_members(self, members)
        _fam_bitsets(self, None)

    @property
    def count(self) -> int:
        return len(self.members)

    def bitsets(self) -> frozenset[int]:
        """The members' bitsets, built on the first call."""
        if self._bitsets is None:
            _fam_bitsets(self, frozenset(m.bits for m in self.members))
        return self._bitsets

    def member_names(self) -> list[tuple[str, ...]]:
        return [m.names() for m in self.members]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "count": self.count,
            "members": [list(m.names()) for m in self.members],
            # the caps the checkers once took, kept so the JSON output stays byte-identical
            "checker_config": {"mult_cap": 2, "dim_cap": 16},
        }


_fam_kind, _fam_catalog, _fam_members, _fam_bitsets = _slot_setters(Family)


def _sorted_members(cat: Catalog, bitsets: Iterable[int]) -> tuple[SubcatBits, ...]:
    ordered = sorted(sorted(set(bitsets)), key=int.bit_count)  # (size, bits), stable
    return tuple(SubcatBits(cat, b) for b in ordered)


def _closure_operator(kind: str, cat: Catalog) -> Callable[[int], int]:
    op = _CLOSURES[kind]
    return lambda bits: op(SubcatBits(cat, bits)).bits


def _next_closure_enum(cl: Callable[[int], int], n: int) -> list[int]:
    """All closed bitsets in lectic order (Ganter's algorithm)."""
    out = []
    current = cl(0)
    out.append(current)
    while True:
        a = current
        nxt = None
        for i in reversed(range(n)):
            if (a >> i) & 1:
                a &= ~(1 << i)
            else:
                b = cl(a | (1 << i))
                if b & ((1 << i) - 1) & ~a == 0:
                    nxt = b
                    break
        if nxt is None:
            return out
        out.append(nxt)
        current = nxt


# -- exact lattice path ------------------------------------------------------------------


def _singleton_closures(cat: Catalog, kind: str) -> tuple[int, ...]:
    """Q (kind tors) or S (kind torf): the chain closure of each indecomposable."""
    key = ("singletons", kind)
    if key not in cat._closure_memo:
        op = tors_closure if kind == "tors" else torf_closure
        cat._closure_memo[key] = tuple(op(SubcatBits(cat, 1 << i)).bits for i in range(cat.n))
    return cat._closure_memo[key]


def _table_closure(cat: Catalog, kind: str, bits: int) -> int:
    """tors or torf closure as Filt of the union of the singleton closures.

    A member an extension adds lies in that class, so its singleton closure adds nothing.
    """
    return _fill(_ext_rows(cat), bits, _singleton_closures(cat, kind).__getitem__)


def _perp_masks(cat: Catalog) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per indecomposable x: the y with Hom(x, y) = 0, and the y with Hom(y, x) = 0."""
    memo = cat._closure_memo
    if "perp_masks" not in memo:
        n, h = cat.n, cat.hom_dims
        memo["perp_masks"] = (
            tuple(sum(1 << y for y in range(n) if not h[x][y]) for x in range(n)),
            tuple(sum(1 << y for y in range(n) if not h[y][x]) for x in range(n)),
        )
    return memo["perp_masks"]


def _perp(masks: tuple[int, ...], bits: int) -> int:
    """AND of the masks of the set bits: X^perp with the row masks, perp-X with the columns."""
    out = (1 << len(masks)) - 1
    while bits:
        low = bits & -bits
        out &= masks[low.bit_length() - 1]
        bits ^= low
    return out


def _perp_operator(cat: Catalog, kind: str) -> Callable[[int], int]:
    """tors(X) = perp-(X^perp), or torf(X) = (perp-X)^perp, on a complete catalog."""
    rows, cols = _perp_masks(cat)
    first, second = (rows, cols) if kind == "tors" else (cols, rows)
    return lambda bits: _perp(second, _perp(first, bits))


def _semibricks(cat: Catalog) -> list[int]:
    """Every set of pairwise Hom-orthogonal bricks, as bitsets (the empty one too)."""
    bricks = [k for k in range(cat.n) if _is_brick(cat.indecs[k], cat.hom_pair_basis(k, k))]
    orth = {
        i: sum(1 << j for j in bricks
               if j != i and cat.hom_dims[i][j] == 0 and cat.hom_dims[j][i] == 0)
        for i in bricks
    }
    out = []

    def grow(chosen: int, candidates: int) -> None:
        out.append(chosen)
        for k in SubcatBits(cat, candidates).indices():
            grow(chosen | (1 << k), candidates & orth[k] & ~((2 << k) - 1))

    grow(0, sum(1 << k for k in bricks))
    return out


_MEETS = {"ice": ("tors", "wide"), "ike": ("torf", "wide"), "ie": ("tors", "torf")}


def _lattice_bitsets(cat: Catalog, kind: str) -> frozenset[int]:
    """The family of one kind from the lattice identities, memoized on the catalog."""
    memo = cat._closure_memo.setdefault("families", {})
    if kind in memo:
        return memo[kind]
    if kind != "serre" and not cat.complete:
        # completeness probe: identifies every trace quotient and reject of members
        _singleton_closures(cat, "tors")
        _singleton_closures(cat, "torf")
    if cat.complete and kind == "serre":
        support = [sum(1 << v for v, d in enumerate(m.dims) if d) for m in cat.indecs]
        bitsets = {sum(1 << k for k, sup in enumerate(support) if not sup & ~vs)
                   for vs in range(1 << cat.algebra.n_vertices)}
    elif cat.complete and kind == "tors":
        bitsets = _next_closure_enum(_perp_operator(cat, "tors"), cat.n)
    elif cat.complete and kind == "torf":
        rows = _perp_masks(cat)[0]
        bitsets = [_perp(rows, t) for t in _lattice_bitsets(cat, "tors")]
    elif kind == "serre":
        bitsets = _next_closure_enum(_closure_operator("serre", cat), cat.n)
    elif kind in ("tors", "torf"):
        bitsets = _next_closure_enum(lambda bits: _table_closure(cat, kind, bits), cat.n)
    elif kind == "wide":
        rows = _ext_rows(cat)
        bitsets = [_fill(rows, b) for b in _semibricks(cat)]
    else:
        left, right = _MEETS[kind]
        rights = _lattice_bitsets(cat, right)
        bitsets = {a & b for a in _lattice_bitsets(cat, left) for b in rights}
    memo[kind] = frozenset(bitsets)
    return memo[kind]


def _ext_closed(cat: Catalog) -> tuple[int, ...]:
    """Every extension-closed subset, by NextClosure over Filt, memoized on the catalog."""
    memo = cat._closure_memo
    if "ext_closed" not in memo:
        memo["ext_closed"] = tuple(_next_closure_enum(lambda b: _fill(_ext_rows(cat), b), cat.n))
    return memo["ext_closed"]


def enumerate_family(cat: Catalog, kind: str, strategy: str = "auto") -> Family:
    """Enumerate all subcategories of one kind.

    ``auto`` derives the family exactly from the lattice tables (see the
    module docstring).  ``bruteforce`` filters one candidate list, the
    extension-closed subsets (every kind is extension-closed), through the
    checker is_closed, the oracle of ``auto``; both return identical families.
    """
    if kind not in KINDS:
        raise ShapeError(f"unknown subcategory kind {kind!r}")
    if strategy == "auto":
        bitsets = _lattice_bitsets(cat, kind)
    elif strategy == "bruteforce":
        bitsets = [b for b in _ext_closed(cat) if is_closed(kind, SubcatBits(cat, b))[0]]
    else:
        raise ShapeError(f"unknown strategy {strategy!r}")
    return Family(kind, cat, _sorted_members(cat, bitsets))


# -- Hasse diagrams ---------------------------------------------------------------------


class HasseDiagram(NamedTuple):
    """Cover relation of a family under inclusion; edges are (lower, upper)."""

    family: Family
    nodes: tuple[SubcatBits, ...]
    edges: tuple[tuple[int, int], ...]


def hasse(family: Family) -> HasseDiagram:
    """Cover edges (low, high), sorted by (high, low).

    Walking up from ``low`` in (size, bits) order, the first member above it
    is a cover, and so is each later one that contains no cover found so
    far: whatever lies strictly between is smaller, so it came first.  The
    walk visits only the members above ``low``: a bitset over positions in
    that order, the AND of one mask per catalog index of the members
    containing it.  Each cover found drops the members above it.
    """
    nodes = family.members
    bits = [m.bits for m in nodes]
    order = sorted(range(len(bits)), key=lambda k: (bits[k].bit_count(), bits[k]))
    holders: dict[int, int] = {}  # one catalog index's bit -> positions of members holding it
    for t, i in enumerate(order):
        rest = bits[i]
        while rest:
            one = rest & -rest
            rest ^= one
            holders[one] = holders.get(one, 0) | 1 << t
    everyone = (1 << len(order)) - 1
    ups = []  # per position, the positions of the members containing that member
    for i in order:
        up, rest = everyone, bits[i]
        while rest:
            one = rest & -rest
            rest ^= one
            up &= holders[one]
        ups.append(up)
    edges = []
    for t, i in enumerate(order):
        later = ups[t] >> t + 1 << t + 1
        while later:
            s = (later & -later).bit_length() - 1
            edges.append((i, order[s]))
            later &= ~ups[s]
    edges.sort(key=lambda e: (e[1], e[0]))
    return HasseDiagram(family, nodes, tuple(edges))


def hasse_to_dot(diagram: HasseDiagram) -> str:
    """DOT text, one node per member, edges drawn upper to lower."""
    lines = ["digraph hasse {"]
    lines.append('  rankdir=TB;')
    lines.append('  node [shape=none];')
    for i, node in enumerate(diagram.nodes):
        label = node.label().replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{label}"];')
    for low, high in diagram.edges:
        lines.append(f"  n{high} -> n{low};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- relations report ----------------------------------------------------------------------


class RelationsReport(NamedTuple):
    """Families of all seven kinds plus the inclusion and coincidence facts."""

    catalog_label: str
    families: dict[str, Family]
    inclusions: list[tuple[str, str, bool]]
    coincidence_groups: list[list[str]]
    all_pairwise_distinct: bool
    commutative: bool
    commutative_collapse: Optional[list[tuple[str, bool]]]

    def all_inclusions_hold(self) -> bool:
        return all(ok for _, _, ok in self.inclusions)

    def table_text(self) -> str:
        rows = []
        for kind in KINDS:
            fam = self.families[kind]
            members = ", ".join(m.label() for m in fam.members)
            rows.append((kind, members, str(fam.count)))
        w0 = max(len(r[0]) for r in rows + [("Classes", "", "")])
        w1 = max(len(r[1]) for r in rows + [("", "Lists of subcategories", "")])
        lines = [f"{'Classes'.ljust(w0)} | {'Lists of subcategories'.ljust(w1)} | Numbers"]
        lines.append("-" * len(lines[0]))
        for kind, members, count in rows:
            lines.append(f"{kind.ljust(w0)} | {members.ljust(w1)} | {count}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "catalog": self.catalog_label,
            "families": {k: f.to_json() for k, f in self.families.items()},
            "inclusions": [
                {"from": a, "to": b, "holds": ok} for a, b, ok in self.inclusions
            ],
            "coincidence_groups": self.coincidence_groups,
            "all_pairwise_distinct": self.all_pairwise_distinct,
            "commutative": self.commutative,
            "commutative_collapse": (
                None
                if self.commutative_collapse is None
                else [{"check": name, "holds": ok} for name, ok in self.commutative_collapse]
            ),
        }


def algebra_is_obviously_commutative(cat: Catalog) -> bool:
    """Single vertex with at most one loop; the only commutative builtins."""
    alg = cat.algebra
    return alg.n_vertices == 1 and len(alg.arrows) <= 1


def relations_report(cat: Catalog, label: str = "") -> RelationsReport:
    """Enumerate every family and verify the inclusion diagram on it."""
    families = {kind: enumerate_family(cat, kind) for kind in KINDS}
    inclusions = []
    for a, b in INCLUSION_ARROWS:
        inclusions.append((a, b, families[a].bitsets() <= families[b].bitsets()))
    groups: list[list[str]] = []
    for kind in KINDS:
        for group in groups:
            if families[group[0]].bitsets() == families[kind].bitsets():
                group.append(kind)
                break
        else:
            groups.append([kind])
    distinct = len(groups) == len(KINDS)
    commutative = algebra_is_obviously_commutative(cat)
    collapse = None
    if commutative:
        collapse = [
            ("serre = tors = wide = ice", all(
                families[k].bitsets() == families["serre"].bitsets()
                for k in ("tors", "wide", "ice")
            )),
            ("torf = ike = ie", all(
                families[k].bitsets() == families["torf"].bitsets() for k in ("ike", "ie")
            )),
        ]
    return RelationsReport(
        catalog_label=label,
        families=families,
        inclusions=inclusions,
        coincidence_groups=groups,
        all_pairwise_distinct=distinct,
        commutative=commutative,
        commutative_collapse=collapse,
    )
