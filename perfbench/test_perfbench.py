"""Self-test of the benchmark harness on a tiny a2 workload.

Run from the repository root: python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import harness
import workloads

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = harness.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def _result(trace: int) -> dict:
    proc = _run("--workload", "selftest", "--seed", "0", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_untraced_run_emits_every_end_to_end_metric():
    result = _result(0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric():
    result = _result(1)
    assert result["correct"] is True
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["catalog.build_builtin.calls"] == 5
    assert metrics["cli.main.total_s"] > metrics["catalog.build_builtin.total_s"] > 0
    assert 0 < metrics["lattices.is_closed.closed_ratio"] <= 1


def test_benchmark_file_names_real_workloads():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == ["enum-all", "torsion", "build-query", "verify"]
    assert all(name in workloads.WORKLOADS for name in names)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(harness.END_TO_END)


def test_wrong_expected_count_is_a_failure():
    wrong = {"serre": 4, "tors": 6}
    cmd = workloads.Command(("enumerate", "--builtin", "a2", "--kind", "all"),
                            workloads.check_all_table(wrong), "a2")
    result = harness.run_pass([cmd], {})
    assert result.attempted == 1 and len(result.failures) == 1
    assert "tors: count 5, expected 6" in result.failures[0][1]


def test_wrong_digest_is_a_failure():
    cmd = workloads.commands("selftest", 0)[0]
    assert harness.run_pass([cmd], harness.load_digests()).failures == []
    result = harness.run_pass([cmd], {cmd.key: "0" * 64})
    assert result.failures == [(cmd.key, "stdout digest differs from the recorded one")]


def test_nonzero_exit_is_a_failure():
    cmd = workloads.Command(("closure", "--builtin", "a2", "--kind", "wide", "--set", "B"),
                            workloads.check_closure(["B"]), "a2")
    assert harness.run_pass([cmd], {}).failures[0][1].startswith("exit 2:")


def test_seed_fixes_the_inputs():
    for name in workloads.WORKLOADS:
        keys = [c.key for c in workloads.commands(name, 7)]
        assert keys == [c.key for c in workloads.commands(name, 7)]
    seeds = {tuple(c.key for c in workloads.commands("build-query", s)) for s in range(5)}
    assert len(seeds) == 5


def test_inputs_are_made_without_importing_subcat():
    code = ("import sys, workloads; workloads.commands('build-query', 3); "
            "assert not [m for m in sys.modules if m.startswith('subcat')]")
    subprocess.run([sys.executable, "-c", code], cwd=RUN.parent, check=True, timeout=60)


def test_published_counts():
    assert [workloads.catalan(k) for k in range(3, 7)] == [5, 14, 42, 132]
    assert [workloads.schroeder(n) for n in range(0, 6)] == [1, 2, 6, 22, 90, 394]
    assert workloads.an_counts(3, "<>") == {"serre": 8, "tors": 14, "torf": 14, "wide": 14}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(RUN.parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "selftest", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
