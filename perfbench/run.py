"""Benchmark for the ``subcat`` CLI: end-to-end metrics, or per-layer ones when traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload enum-all --seed 0 --seconds 15 --trace 0

Workloads (perfbench/workloads.py says why each was chosen): enum-all,
torsion, build-query, verify; selftest is a tiny a2 workload for the
harness's own test. The loop is closed, with one client: each command is a
fresh Python process running ``subcat.cli.main``, started after the previous
one ends.

``--trace 0`` first times set-up (the CPU time of ``import subcat`` plus
``build_builtin`` of every catalog the workload uses, in a fresh process, 3
to 15 times), then runs passes over the workload's commands for about
``--seconds`` (at least one). It reports medians: wall_s and cpu_s of a
pass, setup_s, and peak_rss_mb, the largest RSS of any command in a pass.

``--trace 1`` runs untraced passes the same way, then one pass under
perfbench/tracer.py, and reports per-layer call counts and self times from
its spans, plus trace.overhead_s, the traced pass minus the untraced median.

Every output is checked (exit code, published counts, RESULT: PASS, closure
contains its input, recorded stdout digest); a command failing any check
counts in ``failed``. The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics. Without the ``subcat`` sources in
``src/`` the benchmark prints an error and exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness
import workloads


def _report(workload: str, seed: int, result: harness.RunResult) -> None:
    fail_ratio = len(result.failures) / result.attempted
    print(f"workload {workload}  seed {seed}  passes {len(result.passes)}  "
          f"attempted {result.attempted}  failed {len(result.failures)}  "
          f"fail_ratio {fail_ratio:.4f}")
    if result.setups:
        print("  set-up runs: " + ", ".join(f"{t:.3f}" for t in result.setups) + " s")
    print("  pass wall times: " + ", ".join(f"{p.wall_s:.3f}" for p in result.passes) + " s")
    for name, value in result.metrics.items():
        print(f"  {name:<44} {value:>14.6g} {result.units[name]}")
    for key, why in result.failures:
        print(f"  FAILED subcat {key}: {why}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cmds = workloads.commands(args.workload, args.seed)
    try:
        result = harness.run(cmds, args.seconds, bool(args.trace), label=args.workload)
    except (harness.ProgramMissing, harness.SetupFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _report(args.workload, args.seed, result)
    print(json.dumps({
        "correct": not result.failures,
        "attempted": result.attempted,
        "failed": len(result.failures),
        "metrics": {name: {"value": value, "unit": result.units[name]}
                    for name, value in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
