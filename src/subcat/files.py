"""Algebra and module JSON files: the ``--algebra``/``--modules`` input format.

An algebra file holds ``field_char``, ``vertices``, ``arrows`` (``name``,
``from``, ``to``) and ``relations`` (lists of ``coeff``/``path`` terms); a
module file holds ``dims`` per vertex and ``matrices`` per arrow.  A file
that cannot be read, decoded or parsed raises a one-line ParseError, and a
module that breaks a relation a CatalogError.  A catalog loaded from files
is never marked complete.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from .catalog import Catalog
from .errors import CatalogError, EmptyCatalog, ParseError, ShapeError
from .linalg import Mat
from .rep import Algebra, Rep, validate


def load_algebra(path: str | Path) -> Algebra:
    """Parse an algebra presentation from its JSON file format."""
    path = Path(path)
    data = _read_json(path)
    try:
        p = _expect(data["field_char"], int, "field_char", path)
        vertices = [str(v) for v in _expect(data["vertices"], list, "vertices", path)]
        arrows = [(str(a["name"]), str(a["from"]), str(a["to"]))
                  for a in _expect(data.get("arrows", []), list, "arrows", path)]
        relations = [
            [(_expect(term["coeff"], int, "coeff", path),
              [str(x) for x in _expect(term["path"], list, "path", path)])
             for term in _expect(rel, list, "a relation", path)]
            for rel in _expect(data.get("relations", []), list, "relations", path)
        ]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{path}: malformed algebra file ({exc})") from None
    try:
        return Algebra.build(p, vertices, arrows, relations)
    except ShapeError as exc:
        raise ParseError(f"{path}: {exc}") from None


def load_module(algebra: Algebra, path: str | Path) -> Rep:
    """Parse one module from its JSON file format and reduce entries mod p."""
    path = Path(path)
    data = _read_json(path)
    dims_map = _expect(data.get("dims", {}), dict, "dims", path)
    mats_map = _expect(data.get("matrices", {}), dict, "matrices", path)
    stray_v = set(dims_map) - set(algebra.vertices)
    if stray_v:
        raise ParseError(f"{path}: unknown vertex names {sorted(stray_v)}")
    stray_a = set(mats_map) - {a.name for a in algebra.arrows}
    if stray_a:
        raise ParseError(f"{path}: unknown arrow names {sorted(stray_a)}")
    try:
        dims = tuple(_expect(dims_map.get(v, 0), int, f"the dimension at vertex {v}", path)
                     for v in algebra.vertices)
        for v, d in zip(algebra.vertices, dims):
            if d < 0:
                raise ParseError(f"{path}: dimension at vertex {v} is negative ({d})")
        mats = []
        for a in algebra.arrows:
            want_rows, want_cols = dims[a.target], dims[a.source]
            raw = mats_map.get(a.name)
            if raw is None or raw == []:
                mats.append(Mat.zeros(algebra.p, want_rows, want_cols))
                continue
            entries = [[_expect(x, int, f"an entry for arrow {a.name}", path) % algebra.p
                        for x in row] for row in raw]
            if len(entries) != want_rows or any(len(r) != want_cols for r in entries):
                raise ParseError(
                    f"{path}: matrix for arrow {a.name} must be {want_rows}x{want_cols}"
                )
            mats.append(Mat.from_rows(algebra.p, entries, ncols=want_cols))
    except ParseError:
        raise
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed module file ({exc})") from None
    rep = Rep(algebra, dims, tuple(mats))
    msg = validate(rep)
    if msg is not None:
        raise CatalogError(f"{path}: {msg}")
    return rep


def load_catalog(algebra_path: str | Path, module_paths: Sequence[str | Path]) -> Catalog:
    """Build a catalog from an algebra file plus one JSON file per indecomposable."""
    algebra = load_algebra(algebra_path)
    if not module_paths:
        raise EmptyCatalog("no module files given")
    reps = []
    names = []
    for mp in module_paths:
        reps.append(load_module(algebra, mp))
        names.append(Path(mp).stem)
    return Catalog(algebra, reps, names, complete=False)


def _read_json(path: Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"{path}: no such file") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except OSError as exc:
        raise ParseError(f"{path}: cannot read ({exc.strerror or exc})") from None
    except ValueError as exc:  # not UTF-8, or an integer literal too long to convert
        raise ParseError(f"{path}: cannot decode ({exc})") from None
    return _expect(data, dict, "the file", path)


_JSON_KINDS = {int: "an integer", list: "a list", dict: "an object"}


def _expect(value, kind: type, what: str, path: Path):
    """``value`` if it is a JSON value of that kind (a boolean is no integer), else ParseError."""
    if isinstance(value, kind) and not isinstance(value, bool):
        return value
    raise ParseError(f"{path}: {what} must be {_JSON_KINDS[kind]}, got {json.dumps(value)}")
