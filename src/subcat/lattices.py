"""Subcategory families of the seven kinds, and the bounded class checkers.

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
  Extension closure of a set of indecomposables is a bitset fixpoint over
  member pairs; pair closure suffices, since an extension by direct sums
  refines into iterated extensions by summands.
* serre: NextClosure over ``serre_closure``.
* tors, torf: NextClosure over tors(X) = Filt(union of Q[x]), since the join
  of torsion classes is Filt of their union; torf dually with ``S``.
* wide: {Filt(B) : B a semibrick} (Ringel 1976).  A brick has a division
  ring as endomorphism ring; a semibrick is a set of pairwise Hom-orthogonal
  bricks.
* ie: {T meet F} over torsion classes T and torsion-free classes F, the
  source paper's characterization of IE-closed subcategories.
* ice: {T meet W} and ike: {F meet W} over wide subcategories W
  (Enomoto-Sakai; every catalog in scope is tau-tilting finite).

The identities hold in the whole module category.  A user catalog that is
not marked complete therefore builds both chain tables first, which
identifies every trace quotient and reject of its members and raises
UnknownModule when one is missing.  The chain closures also stay behind
``closure``, ``is_closed``, strategy ``nextclosure`` and the verify oracles,
which keeps those independent of the perps.

``is_closed`` is the independent, bounded oracle, and strategy
``bruteforce`` filters all 2^n subsets through it.  It decides serre, tors,
torf and ie exactly through the chain closure operators.  For wide, ice and
ike it runs the letter checks of ``_kernel_search`` (exact extension and
image tests, and the bounded kernel/cokernel search), a module imported on
the first such check.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional

from .catalog import Catalog, is_brick
from .closures import SubcatBits, serre_closure, torf_closure, tors_closure
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


class CheckConfig(_Frozen):
    """Caps for the bounded morphism searches in wide/ice/ike checking."""

    __slots__ = ("mult_cap", "dim_cap")

    def __init__(self, mult_cap: int = 2, dim_cap: int = 16):
        if mult_cap < 1 or dim_cap < 1:
            raise ShapeError("caps must be at least 1")
        _cfg_mult_cap(self, mult_cap)
        _cfg_dim_cap(self, dim_cap)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.mult_cap == other.mult_cap and self.dim_cap == other.dim_cap

    def __hash__(self):
        return hash((self.mult_cap, self.dim_cap))

    def __repr__(self):
        return f"{type(self).__qualname__}(mult_cap={self.mult_cap!r}, dim_cap={self.dim_cap!r})"


_cfg_mult_cap, _cfg_dim_cap = _slot_setters(CheckConfig)


# -- is_closed ------------------------------------------------------------------------


_CLOSURES = {"serre": serre_closure, "tors": tors_closure, "torf": torf_closure}


def is_closed(kind: str, s: SubcatBits, cfg: Optional[CheckConfig] = None) -> tuple[bool, Optional[str]]:
    """Is the subcategory closed for the given kind; if not, why not.

    serre/tors/torf/ie are decided exactly through closure operators; the
    wide/ice/ike letter checks combine the exact extension and image tests
    with the bounded kernel/cokernel search.
    """
    cfg = cfg or CheckConfig()
    if kind not in KINDS:
        raise ShapeError(f"unknown subcategory kind {kind!r}")
    if kind in _CLOSURES:
        closed = _CLOSURES[kind](s)
        if closed.bits != s.bits:
            return False, f"closure adds {_added_names(s, closed)}"
        return True, None
    if kind == "ie":
        meet = tors_closure(s).intersect(torf_closure(s))
        if meet.bits != s.bits:
            return False, (
                f"the torsion and torsion-free closures meet in {meet.label()}, "
                f"not {s.label()}"
            )
        return True, None
    from ._kernel_search import letter_violation

    witness = letter_violation(kind, s, cfg)
    return witness is None, witness


def _added_names(s: SubcatBits, closed: SubcatBits) -> str:
    extra = [s.catalog.names[i] for i in closed.indices() if not s.has(i)]
    return "{" + ", ".join(extra) + "}"


# -- families -------------------------------------------------------------------------


class Family(_Frozen):
    """All subcategories of one kind over a catalog, sorted by (size, bitset)."""

    __slots__ = ("kind", "catalog", "members", "config", "_bitsets")

    def __init__(self, kind: str, catalog: Catalog, members: tuple[SubcatBits, ...],
                 config: Optional[CheckConfig] = None):
        _fam_kind(self, kind)
        _fam_catalog(self, catalog)
        _fam_members(self, members)
        _fam_config(self, CheckConfig() if config is None else config)
        _fam_bitsets(self, None)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind == other.kind and self.catalog == other.catalog
                and self.members == other.members and self.config == other.config)

    def __hash__(self):
        return hash((self.kind, self.catalog, self.members, self.config))

    def __repr__(self):
        return (f"{type(self).__qualname__}(kind={self.kind!r}, catalog={self.catalog!r}, "
                f"members={self.members!r}, config={self.config!r})")

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
            "checker_config": {
                "mult_cap": self.config.mult_cap,
                "dim_cap": self.config.dim_cap,
            },
        }


_fam_kind, _fam_catalog, _fam_members, _fam_config, _fam_bitsets = _slot_setters(Family)


def _sorted_members(cat: Catalog, bitsets: Iterable[int]) -> tuple[SubcatBits, ...]:
    ordered = sorted(set(bitsets), key=lambda b: (bin(b).count("1"), b))
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


def _ext_rows(cat: Catalog) -> tuple[tuple[int, ...], ...]:
    """Bits of every summand of a middle term of an extension between i and j, either way."""
    memo = cat._closure_memo
    if "ext_rows" not in memo:
        def row(i: int) -> tuple[int, ...]:
            out = []
            for j in range(cat.n):
                bits = 0
                for mid in cat.ext_table[(i, j)] | cat.ext_table[(j, i)]:
                    for k in mid:
                        bits |= 1 << k
                out.append(bits)
            return tuple(out)

        memo["ext_rows"] = tuple(row(i) for i in range(cat.n))
    return memo["ext_rows"]


def _ext_closure(rows: tuple[tuple[int, ...], ...], bits: int) -> int:
    """Least superset closed under summands of middle terms between its members."""
    done = 0
    paired: list[int] = []
    while bits != done:
        k = (bits & ~done).bit_length() - 1
        done |= 1 << k
        paired.append(k)
        row = rows[k]
        for j in paired:
            bits |= row[j]
    return bits


def _singleton_closures(cat: Catalog, kind: str) -> tuple[int, ...]:
    """Q (kind tors) or S (kind torf): the chain closure of each indecomposable."""
    key = ("singletons", kind)
    if key not in cat._closure_memo:
        op = tors_closure if kind == "tors" else torf_closure
        cat._closure_memo[key] = tuple(op(SubcatBits(cat, 1 << i)).bits for i in range(cat.n))
    return cat._closure_memo[key]


def _table_closure(cat: Catalog, kind: str, bits: int) -> int:
    """tors or torf closure as Filt of the union of the singleton closures."""
    single = _singleton_closures(cat, kind)
    union = 0
    for i in SubcatBits(cat, bits).indices():
        union |= single[i]
    return _ext_closure(_ext_rows(cat), union)


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
    bricks = [k for k in range(cat.n) if cat.hom_dims[k][k] == 1 or is_brick(cat.indecs[k])]
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
        bitsets = [_ext_closure(rows, b) for b in _semibricks(cat)]
    else:
        left, right = _MEETS[kind]
        rights = _lattice_bitsets(cat, right)
        bitsets = {a & b for a in _lattice_bitsets(cat, left) for b in rights}
    memo[kind] = frozenset(bitsets)
    return memo[kind]


def enumerate_family(cat: Catalog, kind: str, strategy: str = "auto",
                     cfg: Optional[CheckConfig] = None) -> Family:
    """Enumerate all subcategories of one kind.

    ``auto`` derives the family exactly from the lattice tables (see the
    module docstring).  ``nextclosure`` walks the closed sets of the chain
    closure operators and is valid for serre/tors/torf only; ``bruteforce``
    filters all 2^n subsets through the bounded checker is_closed.  All
    strategies return identical families; the other two are its oracles.
    """
    cfg = cfg or CheckConfig()
    if kind not in KINDS:
        raise ShapeError(f"unknown subcategory kind {kind!r}")
    if strategy == "auto":
        bitsets = _lattice_bitsets(cat, kind)
    elif strategy == "nextclosure":
        if kind not in ("serre", "tors", "torf"):
            raise ShapeError(f"nextclosure needs an exact closure operator; {kind} has none")
        bitsets = _next_closure_enum(_closure_operator(kind, cat), cat.n)
    elif strategy == "bruteforce":
        bitsets = [b for b in range(1 << cat.n) if is_closed(kind, SubcatBits(cat, b), cfg)[0]]
    else:
        raise ShapeError(f"unknown strategy {strategy!r}")
    return Family(kind, cat, _sorted_members(cat, bitsets), cfg)


# -- Hasse diagrams ---------------------------------------------------------------------


class HasseDiagram(NamedTuple):
    """Cover relation of a family under inclusion; edges are (lower, upper)."""

    family: Family
    nodes: tuple[SubcatBits, ...]
    edges: tuple[tuple[int, int], ...]


def hasse(family: Family) -> HasseDiagram:
    nodes = family.members
    bits = [m.bits for m in nodes]
    edges = []
    for i, low in enumerate(bits):
        for j, high in enumerate(bits):
            if low == high or (low & ~high):
                continue
            if any(k != i and k != j and (low & ~bits[k]) == 0 and (bits[k] & ~high) == 0
                   for k in range(len(bits))):
                continue
            edges.append((i, j))
    edges.sort(key=lambda e: (e[1], e[0]))
    return HasseDiagram(family, nodes, tuple(edges))


def hasse_to_dot(diagram: HasseDiagram) -> str:
    """DOT text, one node per member, edges drawn upper to lower."""
    lines = ["digraph hasse {"]
    lines.append('  rankdir=TB;')
    lines.append('  node [shape=none];')
    for i, node in enumerate(diagram.nodes):
        lines.append(f'  n{i} [label="{node.label()}"];')
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

    def passed(self) -> bool:
        ok = self.all_inclusions_hold()
        if self.commutative_collapse is not None:
            ok = ok and all(flag for _, flag in self.commutative_collapse)
        return ok

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


def relations_report(cat: Catalog, cfg: Optional[CheckConfig] = None,
                     label: str = "") -> RelationsReport:
    """Enumerate every family and verify the inclusion diagram on it."""
    cfg = cfg or CheckConfig()
    families = {kind: enumerate_family(cat, kind, "auto", cfg) for kind in KINDS}
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
