"""Run one ``subcat`` CLI command with each layer's public functions in spans.

Usage: python3 perfbench/tracer.py SPANS_PREFIX <subcat arguments...>

Every public module-level function of ``subcat.catalog``, ``linalg``,
``rep``, ``closures``, ``lattices`` and ``cli`` but the few in UNTRACED is
wrapped, and the wrapper is bound in place of the original in every
``subcat`` module namespace that imported it (``subcat.cli.build_builtin``
and ``subcat.catalog.build_builtin`` are separate bindings).
``Catalog.identify`` and the render methods are patched on their classes,
and ``Mat.__post_init__`` is counted. Spans (name, start, end, parent) stay
in memory and are written when the command ends: SPANS_PREFIX.json holds the
names, counters and command, and SPANS_PREFIX.bin the four span arrays, one
after another.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path
from typing import Callable

from workloads import KINDS

LAYERS = ("catalog", "linalg", "rep", "closures", "lattices", "cli")

# Module-id and bit-row helpers: each call takes well under a microsecond and
# enum-all makes millions, so a span would cost more than the call. Their time
# stays in the caller's self time.
UNTRACED = {"catalog.mid_from_counts", "catalog.mid_add", "catalog.mid_counts",
            "linalg.pack_row", "linalg.unpack_row"}


class Recorder:
    """Spans as parallel arrays; a span's parent is the index of its caller's span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = {"linalg.Mat.created": 0, "lattices.is_closed.closed": 0}

    def wrap(self, fn: Callable, name: str) -> Callable:
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return span

    def write(self, prefix: str, argv: list[str]) -> None:
        meta = {"argv": argv, "names": self.names, "spans": len(self.start),
                "counters": self.counters}
        Path(prefix + ".json").write_text(json.dumps(meta), encoding="utf-8")
        with open(prefix + ".bin", "wb") as f:
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(f)


def _rebind(modules: list, orig: Callable, new: Callable) -> None:
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)


# Methods patched on their classes: (module, class, method, span name). One
# that a later version of subcat no longer has is skipped, not an error.
METHODS = (
    ("catalog", "Catalog", "identify", "catalog.identify"),
    ("lattices", "RelationsReport", "table_text", "cli.render"),
    ("lattices", "RelationsReport", "to_json", "cli.render"),
    ("lattices", "Family", "to_json", "cli.render"),
    ("catalog", "Catalog", "to_json", "cli.render"),
    ("closures", "ChainCertificate", "to_json", "cli.render"),
    ("closures", "ChainStep", "to_json", "cli.render"),
)


def install(rec: Recorder) -> None:
    import subcat.cli  # noqa: F401  (imports every layer)

    modules = [m for n, m in sys.modules.items() if n == "subcat" or n.startswith("subcat.")]

    for layer, cls_name, method, name in METHODS:
        cls = getattr(sys.modules[f"subcat.{layer}"], cls_name, None)
        if callable(getattr(cls, method, None)):
            setattr(cls, method, rec.wrap(getattr(cls, method), name))

    mat = sys.modules["subcat.linalg"].Mat
    post_init = mat.__post_init__
    counters = rec.counters

    def counted_post_init(self):
        counters["linalg.Mat.created"] += 1
        post_init(self)

    mat.__post_init__ = counted_post_init

    special = {"lattices.hasse_to_dot": "cli.render"}
    for layer in LAYERS:
        mod = sys.modules[f"subcat.{layer}"]
        for attr, fn in list(vars(mod).items()):
            qual = f"{layer}.{attr}"
            if (attr.startswith("_") or qual in UNTRACED or qual in rec.names
                    or not inspect.isfunction(fn) or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)):
                continue
            if qual == "lattices.is_closed":
                wrapped = rec.wrap(_count_closed(fn, counters), qual)
            elif qual == "lattices.enumerate_family":
                wrapped = _per_kind(rec, fn, qual)
            else:
                wrapped = rec.wrap(fn, special.get(qual, qual))
            _rebind(modules, fn, wrapped)


def _count_closed(fn: Callable, counters: dict) -> Callable:
    @functools.wraps(fn)
    def is_closed(*args, **kwargs):
        result = fn(*args, **kwargs)
        if result[0]:
            counters["lattices.is_closed.closed"] += 1
        return result

    return is_closed


def _per_kind(rec: Recorder, fn: Callable, qual: str) -> Callable:
    """One span name per family kind: lattices.enumerate_family.<kind>."""
    by_kind = {kind: rec.wrap(fn, f"{qual}.{kind}") for kind in KINDS}
    other = rec.wrap(fn, qual)

    @functools.wraps(fn)
    def enumerate_family(cat, kind, *args, **kwargs):
        return by_kind.get(kind, other)(cat, kind, *args, **kwargs)

    return enumerate_family


def main() -> int:
    prefix, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    install(rec)
    try:
        return sys.modules["subcat.cli"].main(argv)
    finally:
        sys.stdout.flush()
        rec.write(prefix, argv)


if __name__ == "__main__":
    sys.exit(main())
