"""Command-line interface: catalogs, closures, enumeration, verification."""

from __future__ import annotations

import argparse
import random
import sys
from typing import NamedTuple, Optional

from .catalog import Catalog, build_builtin
from .closures import (
    SubcatBits,
    chain_certificate,
    fac_contains,
    filt_contains,
    serre_closure,
    sub_contains,
    torf_closure,
    tors_closure,
    torsion_pair_complete,
)
from .errors import CapExceeded, ParseError, SubcatError
from .lattices import (
    KINDS,
    CheckConfig,
    enumerate_family,
    hasse,
    hasse_to_dot,
    relations_report,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_CAP_EXCEEDED = 3
EXIT_INTERNAL_ERROR = 4


class RunConfig(NamedTuple):
    """One resolved invocation: algebra source, format, caps, output."""

    builtin: Optional[str]
    algebra: Optional[str]
    modules: Optional[str]
    fmt: str
    caps: CheckConfig
    explain: bool
    out: Optional[str]

    @staticmethod
    def from_args(args: argparse.Namespace) -> "RunConfig":
        sources = [s for s in (args.builtin, args.algebra) if s]
        if len(sources) != 1:
            raise ParseError("exactly one of --builtin or --algebra is required")
        if args.algebra is None and args.modules is not None:
            raise ParseError("--modules needs --algebra")
        if args.algebra is not None and args.modules is None:
            raise ParseError("--algebra needs --modules")
        caps = CheckConfig(mult_cap=args.mult_cap, dim_cap=args.dim_cap)
        return RunConfig(
            builtin=args.builtin,
            algebra=args.algebra,
            modules=args.modules,
            fmt=args.format,
            caps=caps,
            explain=getattr(args, "explain", False),
            out=args.out,
        )

    def load(self) -> tuple[Catalog, str]:
        if self.builtin is not None:
            return build_builtin(self.builtin), self.builtin
        from pathlib import Path

        from .files import load_catalog

        module_files = sorted(Path(self.modules).glob("*.json"))
        return load_catalog(self.algebra, module_files), Path(self.algebra).stem


def _emit(cfg: RunConfig, text: str) -> None:
    if not cfg.out:
        sys.stdout.write(text)
        return
    try:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SubcatError(f"cannot write {cfg.out}: {exc.strerror or exc}") from None


def _emit_json(cfg: RunConfig, data) -> None:
    import json

    _emit(cfg, json.dumps(data, indent=2) + "\n")


# -- subcommands ---------------------------------------------------------------------


def cmd_catalog(cfg: RunConfig) -> int:
    cat, label = cfg.load()
    if cfg.fmt == "json":
        _emit_json(cfg, cat.to_json())
        return EXIT_OK
    alg = cat.algebra
    lines = [f"catalog {label}: {cat.n} indecomposables over F_{alg.p}"]
    arrows = ", ".join(
        f"{a.name}: {alg.vertices[a.source]} -> {alg.vertices[a.target]}" for a in alg.arrows
    )
    lines.append(f"vertices: {', '.join(alg.vertices)}")
    lines.append(f"arrows: {arrows if arrows else '(none)'}")
    if alg.relations:
        lines.append(f"relations: {', '.join(r.label for r in alg.relations)}")
    lines.append("modules:")
    for k, m in enumerate(cat.indecs):
        lines.append(f"  {cat.names[k]}: dims {m.dims}")
    lines.append("hom dimensions (row = source, column = target):")
    header = "      " + " ".join(f"{n:>4}" for n in cat.names)
    lines.append(header)
    for i, row in enumerate(cat.hom_dims):
        lines.append(f"  {cat.names[i]:>4}" + " ".join(f"{d:>4}" for d in row))
    lines.append("non-split extension middle terms:")
    any_nonsplit = False
    for i in range(cat.n):
        for j in range(cat.n):
            extras = [mid for mid in sorted(cat.ext_table[(i, j)]) if mid != tuple(sorted((i, j)))]
            for mid in extras:
                any_nonsplit = True
                names = " + ".join(cat.names[k] for k in mid)
                lines.append(f"  0 -> {cat.names[i]} -> {names} -> {cat.names[j]} -> 0")
    if not any_nonsplit:
        lines.append("  (none)")
    lines.append(f"simples: {', '.join(cat.names[k] for k in cat.simples)}")
    _emit(cfg, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_closure(cfg: RunConfig, kind: str, set_arg: str) -> int:
    cat, _ = cfg.load()
    names = [n.strip() for n in set_arg.split(",") if n.strip()] if set_arg else []
    start = SubcatBits.from_names(cat, names)
    ops = {"tors": tors_closure, "torf": torf_closure, "serre": serre_closure}
    if kind not in ops:
        raise ParseError(f"closure kind must be one of {sorted(ops)}, got {kind!r}")
    closed = ops[kind](start)
    certificates = []
    if cfg.explain:
        if kind == "serre":
            raise ParseError("--explain is only available for tors and torf closures")
        certificates = [chain_certificate(start, k, kind) for k in closed.indices()]
    if cfg.fmt == "json":
        payload = {
            "kind": kind,
            "input": list(start.names()),
            "closure": list(closed.names()),
        }
        if cfg.explain:
            payload["certificates"] = [c.to_json() for c in certificates]
        _emit_json(cfg, payload)
        return EXIT_OK
    lines = [closed.label()]
    for cert in certificates:
        steps = "; ".join(
            f"{' + '.join(step.module)} [layer dims {step.layer_dims}]" for step in cert.steps
        )
        lines.append(f"  {cert.start[0]}: {'member' if cert.member else 'not a member'}: {steps}")
    _emit(cfg, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_enumerate(cfg: RunConfig, kind: str) -> int:
    cat, label = cfg.load()
    if kind == "all":
        if cfg.fmt == "dot":
            raise ParseError("dot output needs a single --kind, not 'all'")
        report = relations_report(cat, cfg.caps, label=label)
        if cfg.fmt == "json":
            _emit_json(cfg, report.to_json())
        else:
            _emit(cfg, report.table_text())
        return EXIT_OK
    if kind not in KINDS:
        raise ParseError(f"--kind must be 'all' or one of {list(KINDS)}, got {kind!r}")
    family = enumerate_family(cat, kind, "auto", cfg.caps)
    if cfg.fmt == "dot":
        _emit(cfg, hasse_to_dot(hasse(family)))
        return EXIT_OK
    if cfg.fmt == "json":
        _emit_json(cfg, family.to_json())
        return EXIT_OK
    members = ", ".join(m.label() for m in family.members)
    _emit(cfg, f"{kind}: {members}\ncount: {family.count}\n")
    return EXIT_OK


# -- verification battery ------------------------------------------------------------------


def run_verification(cat: Catalog, caps: CheckConfig,
                     label: str = "") -> list[tuple[str, bool, str]]:
    """The invariant battery; returns (check name, passed, detail) triples."""
    checks: list[tuple[str, bool, str]] = []
    report = relations_report(cat, caps, label=label)
    families = report.families

    subsets = list(range(1 << cat.n))
    if len(subsets) > 256:
        rng = random.Random(2**cat.n)
        subsets = sorted(rng.sample(subsets, 128))
    for kind, closure_op, member_pred in (
        ("tors", tors_closure, fac_contains),
        ("torf", torf_closure, sub_contains),
    ):
        ok = True
        for bits in subsets:
            s = SubcatBits(cat, bits)
            by_chain = closure_op(s).bits
            memo: dict = {}
            by_filt = 0
            for k in range(cat.n):
                if filt_contains(cat, lambda x, s=s: member_pred(s, x), cat.indecs[k], _memo=memo):
                    by_filt |= 1 << k
            if by_chain != by_filt:
                ok = False
                break
        checks.append(
            (f"oracle-{kind}", ok, f"chain closure equals filtration search on {len(subsets)} subsets")
        )

    checks.append(
        ("inclusion-diagram", report.all_inclusions_hold(), "all nine containments hold")
    )

    brute_ie = enumerate_family(cat, "ie", "bruteforce", caps)
    checks.append(
        (
            "ie-by-intersection",
            brute_ie.bitsets() == families["ie"].bitsets(),
            "torsion/torsion-free intersections give exactly the ie family",
        )
    )

    pairs_ok = True
    for member in families["torf"].members:
        if not torsion_pair_complete(member).verified:
            pairs_ok = False
            break
    checks.append(
        ("torsion-pairs", pairs_ok, f"all {families['torf'].count} torsion-free classes complete")
    )

    op = cat.opposite()
    dual_ok = (
        families["torf"].bitsets() == enumerate_family(op, "tors", cfg=caps).bitsets()
        and families["tors"].bitsets() == enumerate_family(op, "torf", cfg=caps).bitsets()
    )
    checks.append(("duality", dual_ok, "torsion-free classes mirror opposite torsion classes"))

    laws_ok = True
    for bits in subsets[: min(len(subsets), 64)]:
        s = SubcatBits(cat, bits)
        for op_cl in (tors_closure, torf_closure, serre_closure):
            closed = op_cl(s)
            if not s.issubset(closed) or op_cl(closed).bits != closed.bits:
                laws_ok = False
    checks.append(("closure-laws", laws_ok, "closures are extensive and idempotent"))

    doubled = CheckConfig(caps.mult_cap * 2, caps.dim_cap * 2)
    stable = all(
        enumerate_family(cat, kind, "bruteforce", doubled).bitsets() == families[kind].bitsets()
        for kind in ("wide", "ice", "ike")
    )
    checks.append(("cap-robustness", stable, "families unchanged after doubling both caps"))

    if report.commutative:
        assert report.commutative_collapse is not None
        for name, ok in report.commutative_collapse:
            checks.append((f"commutative: {name}", ok, "family equality"))
        local_artinian = all(fam.count == 2 for fam in families.values())
        checks.append(
            (
                "local-artinian-collapse",
                local_artinian,
                "only the zero subcategory and the whole category are closed",
            )
        )

    if label == "a2":
        table = {
            "serre": [(), ("A",), ("C",), ("A", "B", "C")],
            "tors": [(), ("A",), ("C",), ("B", "C"), ("A", "B", "C")],
            "torf": [(), ("A",), ("C",), ("A", "B"), ("A", "B", "C")],
            "wide": [(), ("A",), ("B",), ("C",), ("A", "B", "C")],
            "ice": [(), ("A",), ("B",), ("C",), ("B", "C"), ("A", "B", "C")],
            "ike": [(), ("A",), ("B",), ("C",), ("A", "B"), ("A", "B", "C")],
            "ie": [(), ("A",), ("B",), ("C",), ("A", "B"), ("B", "C"), ("A", "B", "C")],
        }
        golden = all(families[k].member_names() == v for k, v in table.items())
        checks.append(("a2-golden-table", golden, "member lists match the reference table"))
        diagram = hasse(families["ie"])
        checks.append(
            (
                "a2-golden-hasse",
                len(diagram.nodes) == 7 and len(diagram.edges) == 9,
                "7 nodes and 9 cover edges",
            )
        )
        checks.append(
            ("a2-none-coincide", report.all_pairwise_distinct, "all seven families differ")
        )
    return checks


def cmd_verify(cfg: RunConfig) -> int:
    cat, label = cfg.load()
    checks = run_verification(cat, cfg.caps, label=label)
    passed = all(ok for _, ok, _ in checks)
    if cfg.fmt == "json":
        payload = {
            "catalog": label,
            "passed": passed,
            "checks": [{"name": n, "passed": ok, "detail": d} for n, ok, d in checks],
        }
        _emit_json(cfg, payload)
    else:
        lines = [f"{'PASS' if ok else 'FAIL'} {name} ({detail})" for name, ok, detail in checks]
        lines.append(f"RESULT: {'PASS' if passed else 'FAIL'} ({len(checks)} checks)")
        _emit(cfg, "\n".join(lines) + "\n")
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


# -- argument parsing ---------------------------------------------------------------------


def _add_common(sp: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    sp.add_argument("--builtin", help="builtin catalog: a2 | a3 | an:<n>[:<word>] | uniserial:<n>")
    sp.add_argument("--algebra", help="algebra presentation JSON file")
    sp.add_argument("--modules", help="directory of module JSON files (with --algebra)")
    sp.add_argument("--format", choices=formats, default="table")
    sp.add_argument("--mult-cap", type=int, default=2, dest="mult_cap",
                    help="max multiplicity per indecomposable in bounded searches")
    sp.add_argument("--dim-cap", type=int, default=16, dest="dim_cap",
                    help="max total dimension of assembled sums in bounded searches")
    sp.add_argument("--out", help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subcat",
        description="Exact subcategory lattices of finite-length module categories.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("catalog", help="build and print a catalog")
    _add_common(sp, ("table", "json"))

    sp = subs.add_parser("closure", help="close a set of indecomposables")
    _add_common(sp, ("table", "json"))
    sp.add_argument("--kind", required=True, help="tors | torf | serre")
    sp.add_argument("--set", default="", dest="set_arg",
                    help="comma-separated module names; empty for the zero subcategory")
    sp.add_argument("--explain", action="store_true", help="emit chain certificates")

    sp = subs.add_parser("enumerate", help="enumerate subcategory families")
    _add_common(sp, ("table", "json", "dot"))
    sp.add_argument("--kind", default="all", help="all | " + " | ".join(KINDS))

    sp = subs.add_parser("verify", help="run the verification battery")
    _add_common(sp, ("table", "json"))
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.from_args(args)
        if args.command == "catalog":
            return cmd_catalog(cfg)
        if args.command == "closure":
            return cmd_closure(cfg, args.kind, args.set_arg)
        if args.command == "enumerate":
            return cmd_enumerate(cfg, args.kind)
        if args.command == "verify":
            return cmd_verify(cfg)
        raise ParseError(f"unknown command {args.command!r}")
    except CapExceeded as exc:
        print(f"error: cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except SubcatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # a bug, not an input problem: one line, no traceback
        detail = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
