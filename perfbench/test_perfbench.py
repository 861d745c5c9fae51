"""Self-test: every workload at a tiny size, traced and untraced.

Run from the root of a source checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LISTED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in LISTED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in LISTED["per_layer"]}

#: Figures printed as measured on the diagnostics line, per workload.
REPORTED = {
    "campaign-cold": {"sim_kips"},
    "campaign-sampled": {"sim_kips", "ipc_err_pct"},
    "serve-warm": {"req_per_s", "doc_p50_ms", "experiment_p50_ms", "experiment_p95_ms"},
}
#: Per-layer metrics each workload measures itself (non-zero, not probed).
EXERCISED = {
    "campaign-cold": {
        "workloads.gen_s", "core.decode_s", "core.sie.us_per_inst", "campaign.store_put_ms",
        "campaign.overhead_s", "experiments.self_s",
        *(n for n in PER_LAYER if n.startswith(("redundancy.", "reuse."))),
    },
    "campaign-sampled": {"sampling.select_s", "sampling.run_s", "sampling.sim_frac"},
    "serve-warm": {
        "campaign.store_get_ms", "campaign.key_us", "experiments.self_s",
        "service.read_raw_us", "service.entries_ms", "service.job_p50_ms",
    },
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr[-3000:]
    assert result["attempted"] >= 1
    result["diagnostics"] = json.loads(lines[-2])["diagnostics"]
    return result


@pytest.mark.parametrize("workload", sorted(REPORTED))
def test_untraced_prints_every_end_to_end_metric(workload: str) -> None:
    result = result_of(run_bench(workload, 0))
    metrics = result["metrics"]
    assert set(metrics) == set(END_TO_END)
    for name, entry in metrics.items():
        assert entry["unit"] == END_TO_END[name]
        assert entry["value"] > 0, name
    for name in REPORTED[workload]:
        assert result["diagnostics"]["samples"][name] > 0, name


@pytest.mark.parametrize("workload", sorted(REPORTED))
def test_traced_prints_every_per_layer_metric(workload: str) -> None:
    result = result_of(run_bench(workload, 1))
    metrics = result["metrics"]
    assert set(metrics) == set(PER_LAYER)
    for name, entry in metrics.items():
        assert entry["unit"] == PER_LAYER[name]
    probed = result["diagnostics"].get("probed", {})
    assert workload not in probed.values()
    for name in EXERCISED[workload]:
        assert metrics[name]["value"] > 0, name
        assert name not in probed, name
    assert metrics["service.simulations_executed"]["value"] == 0


def test_refuses_a_directory_without_the_program() -> None:
    bare = ROOT / ".perfbench_selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
        )
        proc = run_bench("campaign-cold", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
