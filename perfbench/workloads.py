"""Seeded workloads of ``subcat`` CLI commands, with the check for each output.

This module never imports ``subcat``: the inputs (orientation words and
closure ``--set`` lists) and the expected answers are computed here, from
the seed and from published counts, so the program under test only ever
sees CLI arguments.

Published counts for the path algebra of A_n, n vertices, any orientation:
serre = 2^n (sets of simples) and tors = torf = wide = Catalan C_{n+1}.
On a linearly oriented A_n, ice = ike = the large Schroeder number S_n
(OEIS A006318: 1, 2, 6, 22, 90, 394, ...). Every family of the local
algebra ``uniserial:n`` has exactly 2 members (zero and everything).
"""

from __future__ import annotations

import itertools
import json
import random
import re
import shlex
from dataclasses import dataclass
from math import comb
from typing import Callable, Optional

KINDS = ("serre", "tors", "torf", "wide", "ice", "ike", "ie")

# A check takes the command's stdout and returns None, or why it is wrong.
Check = Callable[[str], Optional[str]]


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``subcat <args>``, and how to check its stdout."""

    args: tuple[str, ...]
    check: Check
    catalog: str

    @property
    def key(self) -> str:
        return shlex.join(self.args)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[random.Random], list[Command]]
    # Every command the workload can issue whose output is a function of a
    # small, enumerable input space; their stdout digests are recorded.
    universe: Callable[[], list[Command]]


# -- published counts ----------------------------------------------------------------


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def schroeder(n: int) -> int:
    """Large Schroeder number S_n (OEIS A006318), S_0 = 1."""
    s = [1, 2]
    for m in range(2, n + 1):
        s.append((3 * (2 * m - 1) * s[m - 1] - (m - 2) * s[m - 2]) // (m + 1))
    return s[n]


def an_counts(n: int, word: str) -> dict[str, int]:
    """Family sizes pinned by published counts for A_n with this orientation."""
    counts = {"serre": 2 ** n, "tors": catalan(n + 1), "torf": catalan(n + 1),
              "wide": catalan(n + 1)}
    if len(set(word)) <= 1:  # linearly oriented
        counts["ice"] = counts["ike"] = schroeder(n)
    return counts


def uniserial_counts() -> dict[str, int]:
    return {kind: 2 for kind in KINDS}


def words(n: int) -> list[str]:
    """All orientation words of A_n: one '>' or '<' per edge."""
    return ["".join(w) for w in itertools.product("><", repeat=n - 1)]


def interval_names(n: int) -> list[str]:
    """Catalog names of the A_n indecomposables, the intervals [a-b]."""
    return [f"[{a}-{b}]" for a in range(1, n + 1) for b in range(a, n + 1)]


# -- output checks -------------------------------------------------------------------


def check_all_table(expected: dict[str, int]) -> Check:
    """``enumerate --kind all`` table: one row per kind, members then count."""

    def check(out: str) -> Optional[str]:
        rows = {}
        for line in out.splitlines()[2:]:
            kind, rest = line.split(" | ", 1)
            members, count = rest.rsplit(" | ", 1)
            rows[kind.strip()] = (members.count("{"), int(count))
        if tuple(rows) != KINDS:
            return f"table rows {tuple(rows)}, expected {KINDS}"
        for kind, (listed, count) in rows.items():
            if listed != count:
                return f"{kind}: {listed} members listed but count {count}"
            if kind in expected and count != expected[kind]:
                return f"{kind}: count {count}, expected {expected[kind]}"
        return None

    return check


def check_family_json(kind: str, expected: int) -> Check:
    def check(out: str) -> Optional[str]:
        doc = json.loads(out)
        if doc["kind"] != kind or doc["count"] != expected or len(doc["members"]) != expected:
            return f"{doc['kind']}: count {doc['count']}, expected {kind} {expected}"
        return None

    return check


def check_dot(expected: int) -> Check:
    def check(out: str) -> Optional[str]:
        nodes = len(re.findall(r"^  n\d+ \[label=", out, re.MULTILINE))
        if not out.startswith("digraph hasse {") or nodes != expected:
            return f"dot has {nodes} nodes, expected {expected}"
        return None

    return check


def check_count_line(expected: int) -> Check:
    def check(out: str) -> Optional[str]:
        last = out.splitlines()[-1]
        if last != f"count: {expected}":
            return f"last line {last!r}, expected 'count: {expected}'"
        return None

    return check


def check_catalog_table(label: str, n: int) -> Check:
    def check(out: str) -> Optional[str]:
        first = out.splitlines()[0]
        if not first.startswith(f"catalog {label}: {n} indecomposables"):
            return f"first line {first!r}, expected {n} indecomposables"
        return None

    return check


def check_catalog_json(n: int) -> Check:
    def check(out: str) -> Optional[str]:
        got = len(json.loads(out)["indecomposables"])
        return None if got == n else f"{got} indecomposables, expected {n}"

    return check


def check_closure(start: list[str]) -> Check:
    """``closure --explain`` table: the closure holds its input, one member line each."""

    def check(out: str) -> Optional[str]:
        first, *certs = out.splitlines()
        closed = first.strip("{}").split(", ") if first != "{}" else []
        missing = [name for name in start if name not in closed]
        if missing:
            return f"closure {first} misses input {missing}"
        members = [line.split(":")[0].strip() for line in certs if ": member: " in line]
        if members != closed or len(certs) != len(closed):
            return f"certificates {members} do not match closure {closed}"
        return None

    return check


def check_verify_table(out: str) -> Optional[str]:
    last = out.splitlines()[-1]
    return None if last.startswith("RESULT: PASS") else f"verify ended {last!r}"


def check_verify_json(out: str) -> Optional[str]:
    doc = json.loads(out)
    failed = [c["name"] for c in doc["checks"] if not c["passed"]]
    return None if doc["passed"] and not failed else f"verify failed {failed}"


# -- workloads -----------------------------------------------------------------------


def _cmd(check: Check, catalog: str, *args: str) -> Command:
    return Command(tuple(args), check, catalog)


def _enum_all(word3: str) -> list[Command]:
    an3 = f"an:3:{word3}"
    return [
        _cmd(check_all_table(an_counts(4, ">>>")), "an:4",
             "enumerate", "--builtin", "an:4", "--kind", "all"),
        _cmd(check_all_table(uniserial_counts()), "uniserial:4",
             "enumerate", "--builtin", "uniserial:4", "--kind", "all"),
        _cmd(check_all_table(an_counts(3, word3)), an3,
             "enumerate", "--builtin", an3, "--kind", "all"),
    ]


def _torsion(word5: str) -> list[Command]:
    an5 = f"an:5:{word5}"
    c = catalan(6)
    return [
        _cmd(check_family_json("tors", c), "an:5",
             "enumerate", "--builtin", "an:5", "--kind", "tors", "--format", "json"),
        _cmd(check_family_json("torf", c), "an:5",
             "enumerate", "--builtin", "an:5", "--kind", "torf", "--format", "json"),
        _cmd(check_dot(c), an5, "enumerate", "--builtin", an5, "--kind", "tors", "--format", "dot"),
        _cmd(check_dot(c), an5, "enumerate", "--builtin", an5, "--kind", "torf", "--format", "dot"),
        _cmd(check_count_line(2 ** 5), an5, "enumerate", "--builtin", an5, "--kind", "serre"),
    ]


def _build_query_fixed() -> list[Command]:
    return [
        _cmd(check_catalog_table("an:7", 28), "an:7", "catalog", "--builtin", "an:7"),
        _cmd(check_catalog_json(6), "uniserial:6",
             "catalog", "--builtin", "uniserial:6", "--format", "json"),
    ]


def _closure_query(word6: str, kind: str, start: list[str]) -> Command:
    an6 = f"an:6:{word6}"
    return _cmd(check_closure(start), an6, "closure", "--builtin", an6, "--kind", kind,
                "--set", ",".join(start), "--explain")


def _build_query(rng: random.Random) -> list[Command]:
    # One seeded orientation keeps set-up at three catalog builds on every seed.
    word6 = rng.choice(words(6))
    queries = []
    for _ in range(3):
        kind = rng.choice(("tors", "torf"))
        start = sorted(rng.sample(interval_names(6), rng.randint(1, 3)))
        queries.append(_closure_query(word6, kind, start))
    return _build_query_fixed() + queries


def _verify(word3: str) -> list[Command]:
    an3 = f"an:3:{word3}"
    return [
        _cmd(check_verify_table, "a2", "verify", "--builtin", "a2"),
        _cmd(check_verify_json, "a3", "verify", "--builtin", "a3", "--format", "json"),
        _cmd(check_verify_table, an3, "verify", "--builtin", an3),
        _cmd(check_verify_table, "uniserial:4", "verify", "--builtin", "uniserial:4"),
    ]


def _selftest() -> list[Command]:
    a2 = {"serre": 4, "tors": 5, "torf": 5, "wide": 5, "ice": 6, "ike": 6, "ie": 7}
    return [
        _cmd(check_all_table(a2), "a2", "enumerate", "--builtin", "a2", "--kind", "all"),
        _cmd(check_dot(5), "a2",
             "enumerate", "--builtin", "a2", "--kind", "tors", "--format", "dot"),
        _cmd(check_catalog_table("a2", 3), "a2", "catalog", "--builtin", "a2"),
        _cmd(check_closure(["B"]), "a2", "closure", "--builtin", "a2", "--kind", "torf",
             "--set", "B", "--explain"),
        _cmd(check_verify_table, "a2", "verify", "--builtin", "a2"),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "enum-all",
            "The headline user command, enumerate --kind all. The bounded kernel/cokernel "
            "search behind lattices.is_closed does about 95% of the work and catalog build "
            "about 3%. An exact lattice path for all seven families must win here.",
            lambda rng: _enum_all(rng.choice(words(3))),
            lambda: [c for w in words(3) for c in _enum_all(w)],
        ),
        Workload(
            "torsion",
            "The exact closure operators do the work, through NextClosure: tors_closure and "
            "torf_closure take almost all of a pass. No brute force runs, and the dot output "
            "exercises hasse.",
            lambda rng: _torsion(rng.choice(words(5))),
            lambda: [c for w in words(5) for c in _torsion(w)],
        ),
        Workload(
            "build-query",
            "Catalog build is almost all of it (build_builtin, mostly identify); the closure "
            "layer runs only as cheap point queries. The control for closure work and the "
            "target for catalog-build work.",
            _build_query,
            _build_query_fixed,
        ),
        Workload(
            "verify",
            "The only workload that runs the independent oracles (filt_contains, "
            "all_submodules, torsion_pair_complete) and re-enumerates on the opposite "
            "catalog and with doubled caps, so it uses the lattices layer differently from "
            "enum-all.",
            lambda rng: _verify(rng.choice(words(3))),
            lambda: [c for w in words(3) for c in _verify(w)],
        ),
        Workload(
            "selftest",
            "A tiny a2 workload that touches every check type; for the harness self-test.",
            lambda rng: _selftest(),
            _selftest,
        ),
    )
}

DEFAULT_SEED = 0


def commands(workload: str, seed: int) -> list[Command]:
    """The workload's commands for this seed; the same seed gives the same commands."""
    return WORKLOADS[workload].build(random.Random(f"{workload}:{seed}"))
