"""Closed-loop runner: one client, one ``subcat`` command at a time.

Each command is a fresh Python process running ``subcat.cli.main`` (with
``SUBCAT_THREADS`` unset), so a command's wall time includes interpreter
start, as a CLI user sees it. The harness starts no threads and runs one
process at a time; ``os.wait4`` gives each command's CPU time and peak RSS.
"""

from __future__ import annotations

import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from workloads import KINDS, Command

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
TRACER = Path(__file__).resolve().parent / "tracer.py"

COMMAND_TIMEOUT_S = 150.0
# Set-up is timed at least SETUP_MIN_REPEATS times, and more while the
# probes have taken under SETUP_BUDGET_S in all, up to SETUP_MAX_REPEATS.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_BUDGET_S = 3.0

# What the ``subcat`` console script runs (pyproject.toml: subcat = "subcat.cli:main").
CLI_ENTRY = "import sys; from subcat.cli import main; sys.exit(main())"

# Set-up is timed in CPU seconds of the probe process: on a shared host the
# wall time of so short a phase mostly measures the time other guests took.
SETUP_PROBE = """\
import sys, time
t0 = time.process_time()
import subcat
for descriptor in sys.argv[1:]:
    subcat.build_builtin(descriptor)
print(repr(time.process_time() - t0))
"""

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    **{f"catalog.build_builtin.{m}": u for m, u in
       (("calls", "count"), ("total_s", "s"), ("self_s", "s"))},
    "catalog.identify.calls": "count",
    "catalog.identify.self_s": "s",
    "linalg.rref.calls": "count",
    "linalg.rref.self_s": "s",
    "linalg.Mat.created": "count",
    **{f"{span}.{m}": u
       for span in ("rep.hom_basis", "rep.kernel", "rep.all_submodules",
                    "closures.tors_closure", "closures.torf_closure", "closures.serre_closure",
                    "closures.chain_certificate", "closures.filt_contains",
                    "closures.torsion_pair_complete", "lattices.is_closed")
       for m, u in (("calls", "count"), ("self_s", "s"))},
    "lattices.is_closed.closed_ratio": "ratio",
    **{f"lattices.enumerate_family.{kind}.total_s": "s" for kind in KINDS},
    "lattices.hasse.self_s": "s",
    "cli.render.self_s": "s",
    "cli.main.total_s": "s",
    "cli.run_verification.self_s": "s",
    "trace.overhead_s": "s",
}


class ProgramMissing(RuntimeError):
    """The checkout has no ``subcat`` sources to benchmark."""


def require_program() -> None:
    if not (SRC / "subcat" / "cli.py").is_file():
        raise ProgramMissing(f"no subcat sources under {SRC}")


def _env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("SUBCAT_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Outcome:
    """One finished process: its stdout, exit code and resource use."""

    stdout: bytes
    exit_code: Optional[int]  # None when it was killed for running too long
    stderr_tail: str
    wall_s: float
    cpu_s: float
    rss_mb: float


def _read_until(fd: int, deadline: float) -> tuple[bytes, bool]:
    """Read ``fd`` to end of file; the flag says the deadline passed first."""
    chunks: list[bytes] = []
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            return b"".join(chunks), True
        if select.select([fd], [], [], remaining)[0]:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return b"".join(chunks), False
            chunks.append(chunk)


def spawn(argv: list[str], timeout: float = COMMAND_TIMEOUT_S) -> Outcome:
    """Run one process to completion and reap it with ``os.wait4``."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=_env(), cwd=ROOT)
        try:
            stdout, timed_out = _read_until(proc.stdout.fileno(), t0 + timeout)
            if timed_out:
                proc.kill()
        except BaseException:
            proc.kill()
            raise
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
        wall = time.perf_counter() - t0
        err.seek(0)
        tail = err.read().decode("utf-8", "replace").strip().splitlines()[-1:]
    return Outcome(
        stdout=stdout,
        exit_code=None if timed_out else proc.returncode,
        stderr_tail=tail[0] if tail else "",
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def failure(cmd: Command, out: Outcome, digests: dict[str, str]) -> Optional[str]:
    """Why this command failed, or None: exit code, output check, then stdout digest."""
    if out.exit_code is None:
        return f"killed after {COMMAND_TIMEOUT_S:.0f} s"
    if out.exit_code == 3:
        return f"cap exceeded (exit 3): {out.stderr_tail}"
    if out.exit_code != 0:
        return f"exit {out.exit_code}: {out.stderr_tail}"
    try:
        problem = cmd.check(out.stdout.decode("utf-8"))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problem = f"unreadable output: {type(exc).__name__}: {exc}"
    if problem:
        return problem
    want = digests.get(cmd.key)
    if want is not None and hashlib.sha256(out.stdout).hexdigest() != want:
        return "stdout digest differs from the recorded one"
    return None


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    failures: list[tuple[str, str]]  # (command, why)
    attempted: int


def run_pass(cmds: list[Command], digests: dict[str, str],
             trace_dir: Optional[Path] = None) -> PassResult:
    """Run every command once, in order; with ``trace_dir``, under the tracer."""
    outcomes = []
    failures = []
    for k, cmd in enumerate(cmds):
        if trace_dir is None:
            argv = [sys.executable, "-c", CLI_ENTRY, *cmd.args]
        else:
            argv = [sys.executable, str(TRACER), str(trace_dir / f"cmd{k}"), *cmd.args]
        out = spawn(argv)
        outcomes.append(out)
        why = failure(cmd, out, digests)
        if why:
            failures.append((cmd.key, why))
    return PassResult(
        wall_s=sum(o.wall_s for o in outcomes),
        cpu_s=sum(o.cpu_s for o in outcomes),
        peak_rss_mb=max(o.rss_mb for o in outcomes),
        failures=failures,
        attempted=len(cmds),
    )


class SetupFailed(RuntimeError):
    """The set-up probe did not finish cleanly."""


def setup_time(catalogs: list[str]) -> float:
    """CPU time of ``import subcat`` and ``build_builtin`` of each catalog, in a new process."""
    out = spawn([sys.executable, "-c", SETUP_PROBE, *catalogs])
    if out.exit_code != 0:
        raise SetupFailed(f"set-up probe exit {out.exit_code}: {out.stderr_tail}")
    return float(out.stdout.decode("ascii").strip())


# -- traced runs ---------------------------------------------------------------------


@dataclass
class SpanTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def span_totals(trace_dir: Path) -> tuple[dict[str, SpanTotals], dict[str, int]]:
    """Per span name: calls, summed duration and self time, over every command's spans.

    A span's self time is its duration minus the durations of its children.
    """
    totals: dict[str, SpanTotals] = {}
    counters: dict[str, int] = {}
    for meta_path in sorted(trace_dir.glob("cmd*.json")):
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        n = meta["spans"]
        name_of, parent, start, end = array("i"), array("i"), array("d"), array("d")
        with open(meta_path.with_suffix(".bin"), "rb") as f:
            for arr in (name_of, parent, start, end):
                arr.fromfile(f, n)
        dur = [e - s for s, e in zip(start, end)]
        child = [0.0] * n
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += dur[i]
        acc = [totals.setdefault(name, SpanTotals()) for name in meta["names"]]
        for i, nid in enumerate(name_of):
            t = acc[nid]
            t.calls += 1
            t.total_s += dur[i]
            t.self_s += dur[i] - child[i]
        for name, value in meta["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return totals, counters


def layer_metrics(totals: dict[str, SpanTotals], counters: dict[str, int],
                  overhead_s: float) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        t = totals.get(span, SpanTotals())
        if field == "calls":
            metrics[name] = t.calls
        elif field in ("total_s", "self_s"):
            metrics[name] = getattr(t, field)
    metrics["linalg.Mat.created"] = counters.get("linalg.Mat.created", 0)
    tested = totals.get("lattices.is_closed", SpanTotals()).calls
    closed = counters.get("lattices.is_closed.closed", 0)
    metrics["lattices.is_closed.closed_ratio"] = closed / tested if tested else 0.0
    metrics["trace.overhead_s"] = overhead_s
    return {name: metrics[name] for name in PER_LAYER}


# -- one benchmark run ---------------------------------------------------------------


@dataclass
class RunResult:
    passes: list[PassResult]
    setups: list[float]
    metrics: dict[str, float]
    units: dict[str, str]
    attempted: int
    failures: list[tuple[str, str]]


def _timed_passes(cmds: list[Command], digests: dict[str, str], seconds: float) -> list[PassResult]:
    """Back-to-back passes for ``seconds``: at least one, and another only if it should fit."""
    passes: list[PassResult] = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 + passes[-1].wall_s <= seconds:
        passes.append(run_pass(cmds, digests))
    return passes


def run(cmds: list[Command], seconds: float, trace: bool, label: str) -> RunResult:
    require_program()
    digests = load_digests()
    catalogs = sorted({c.catalog for c in cmds})
    setups: list[float] = []
    attempted = 0
    failures: list[tuple[str, str]] = []
    if not trace:
        t0 = time.perf_counter()
        while attempted < SETUP_MIN_REPEATS or (
                attempted < SETUP_MAX_REPEATS and time.perf_counter() - t0 < SETUP_BUDGET_S):
            attempted += 1
            try:
                setups.append(setup_time(catalogs))
            except SetupFailed as exc:
                failures.append(("set-up " + " ".join(catalogs), str(exc)))
        if not setups:
            raise SetupFailed(f"every set-up probe failed; last: {failures[-1][1]}")
    passes = _timed_passes(cmds, digests, seconds)
    for p in passes:
        attempted += p.attempted
        failures += p.failures
    median_wall = statistics.median(p.wall_s for p in passes)
    if trace:
        trace_dir = OUT / "trace" / label
        trace_dir.mkdir(parents=True, exist_ok=True)
        for old in trace_dir.glob("cmd*"):
            old.unlink()
        traced = run_pass(cmds, digests, trace_dir)
        attempted += traced.attempted
        failures += traced.failures
        totals, counters = span_totals(trace_dir)
        metrics = layer_metrics(totals, counters, traced.wall_s - median_wall)
        units = dict(PER_LAYER)
    else:
        metrics = {
            "wall_s": median_wall,
            "cpu_s": statistics.median(p.cpu_s for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        }
        units = dict(END_TO_END)
    return RunResult(passes, setups, metrics, units, attempted, failures)
