"""The ``campaign-cold`` and ``campaign-sampled`` workloads.

Each timed repeat is one cold, serial ``repro campaign`` in a fresh
interpreter (``child.py``) over a fresh directory store.  Trace seeds come
from a fixed pool per workload, for which ``reference.json`` records the
statistics digest and, for the sampled workload, the full-simulation IPC
of every cell.  A run cycles through the pool, starting at the pool entry
the benchmark seed selects, and starts another repeat while it is
expected to end within ``--seconds``.

The pool's traces have the same length and app mix and cost the same to
within the host's noise, so a run's time figures are medians over its
repeats: a repeat slowed by a host stall moves the median little, where
it would move a mean by its whole excess over the number of repeats.
The medians are then scaled to reference seconds (``common.host_scale``)
by the reference children run between the repeats.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

from common import (
    HERE,
    child_env,
    host_scale,
    load_reference,
    log,
    spec_key,
    reference_s,
    stats_digest,
)
from spans import layer_metrics

#: The 14 experiments that run through the campaign store (T1 simulates
#: nothing; T2 and F11 read live pipeline state and bypass the store).
STORE_EXPERIMENTS = (
    "F2", "F5", "F6", "F7", "F8", "F9", "F10",
    "A1", "A2", "A3", "A4", "A5", "A6", "A7",
)


@dataclass(frozen=True)
class CampaignSpec:
    ids: Tuple[str, ...]
    apps: Tuple[str, ...]
    n_insts: int
    pool: Tuple[int, ...]  # trace seeds
    sample: bool = False

    def argv(self, trace_seed: int, store_dir: Path, sample: bool) -> List[str]:
        argv = [
            "campaign", *self.ids,
            "--apps", ",".join(self.apps),
            "--n", str(self.n_insts),
            "--seed", str(trace_seed),
            "--jobs", "1",
            "--store-dir", str(store_dir),
            "--quiet",
        ]
        return argv + ["--sample"] if sample else argv


# gcc is ALU-bound, mcf memory-bound, and art the app where DIE loses most;
# gcc (12 phases) and equake (block-structured) have opposite phase maps.
SPECS: Dict[str, Dict[str, CampaignSpec]] = {
    "campaign-cold": {
        "full": CampaignSpec(
            STORE_EXPERIMENTS, ("gcc", "mcf", "art"), 1000, (1, 2, 3, 4, 5, 6, 7, 8)
        ),
        "tiny": CampaignSpec(STORE_EXPERIMENTS, ("gcc",), 300, (1,)),
    },
    "campaign-sampled": {
        "full": CampaignSpec(("F5",), ("gcc", "equake"), 40_000, (1, 2, 3), sample=True),
        "tiny": CampaignSpec(("F5",), ("gcc",), 6000, (1,), sample=True),
    },
}


#: Seconds of campaign repeat per reference child (``common.reference_s``).
REFERENCE_EVERY_S = 2.0


@dataclass
class Repeat:
    trace_seed: int
    ok: bool
    setup_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    kinst: float = 0.0  # instructions the distinct jobs represent, in thousands
    digest: str = ""
    results: Optional[List[dict]] = None
    spans: Optional[List[dict]] = None


def spawn_child(
    root: Path, work: Path, argv: Optional[List[str]], traced: bool
) -> Tuple[float, Any, Optional[dict]]:
    """Run ``child.py`` to completion: spawn time, rusage and output (``None`` on failure)."""
    spec_path, out_path, err_path = work / "spec.json", work / "out.json", work / "stderr.txt"
    out_path.unlink(missing_ok=True)
    spec_path.write_text(json.dumps({"argv": argv, "trace": traced}))
    with open(err_path, "w") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path), str(out_path)],
            cwd=root, env=child_env(root), stdout=subprocess.DEVNULL, stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not out_path.exists():
        log(f"campaign child exited {proc.returncode}:")
        log(err_path.read_text()[-2000:])
        return spawn, usage, None
    return spawn, usage, json.loads(out_path.read_text())


def setup_only(root: Path, work: Path) -> Optional[float]:
    """Set-up time of a child that stops before the campaign; ``None`` on failure."""
    spawn, _, out = spawn_child(root, work, None, False)
    return None if out is None else out["ready"] - spawn


def run_repeat(
    root: Path, work: Path, spec: CampaignSpec, trace_seed: int, traced: bool, sample: bool
) -> Repeat:
    """One campaign in a fresh interpreter; measured from this process."""
    store_dir = work / "store"
    shutil.rmtree(store_dir, ignore_errors=True)
    spawn, usage, out = spawn_child(
        root, work, spec.argv(trace_seed, store_dir, sample), traced
    )
    repeat = Repeat(trace_seed, ok=False)
    if out is None:
        return repeat
    repeat.ok = True
    repeat.setup_s = out["ready"] - spawn
    repeat.wall_s = out["done"] - out["ready"]
    repeat.cpu_s = out["cpu_s"]
    repeat.peak_rss_mb = usage.ru_maxrss / 1024.0
    repeat.results = out["results"]
    repeat.kinst = sum({r["spec"]: r["n_insts"] for r in out["results"]}.values()) / 1e3
    repeat.digest = stats_digest(out["results"])
    repeat.spans = out["spans"]
    return repeat


def ipc_error_pct(repeats: List[Repeat], full_ipc: Dict[str, Dict[str, float]]) -> float:
    """Geomean of ``1 + |IPC error|``, minus 1, in percent, over all cells.

    A cell is one (app, model, configuration) job; its reference is the
    full-simulation IPC of the same job, recorded per trace seed.
    """
    logs = []
    for repeat in repeats:
        reference = full_ipc[str(repeat.trace_seed)]
        for result in repeat.results or []:
            cell = json.loads(result["spec"])
            cell.pop("sampling", None)
            full = reference[spec_key(json.dumps(cell, sort_keys=True, separators=(",", ":")))]
            stats = result["stats"]
            sampled = stats["committed"] / stats["cycles"]
            logs.append(math.log1p(abs(sampled / full - 1.0)))
    return 100.0 * math.expm1(sum(logs) / len(logs))


def run(
    root: Path, work: Path, workload: str, size: str, seed: int, seconds: float, traced: bool
) -> dict:
    spec = SPECS[workload][size]
    reference = load_reference()[workload][size]
    pool = spec.pool
    order = [pool[(seed + i) % len(pool)] for i in range(len(pool))]

    repeats: List[Repeat] = []
    baselines: List[Repeat] = []
    setups: List[Optional[float]] = []
    references: List[float] = []
    start = time.monotonic()
    if traced:
        # Untraced and traced repeat of the same trace, pair after pair,
        # while the next pair is expected to fit in ``seconds``.  Which of
        # the two runs first alternates, so an order effect cancels out of
        # the overhead.
        for trace_seed in itertools.cycle(order):
            pair_start = time.monotonic()
            pair = {}
            for flag in (False, True) if len(repeats) % 2 == 0 else (True, False):
                pair[flag] = run_repeat(root, work, spec, trace_seed, flag, spec.sample)
            baselines.append(pair[False])
            repeats.append(pair[True])
            now = time.monotonic()
            if now - start + (now - pair_start) > seconds:
                break
    else:
        # Each repeat is followed by a child that stops once set-up is done,
        # so setup_s is a median over twice as many samples, spread over the
        # run, even when few repeats fit; and by one reference child per
        # started REFERENCE_EVERY_S of the repeat, so the reference median
        # is as precise on long repeats as on short ones.
        for trace_seed in itertools.cycle(order):
            repeat_start = time.monotonic()
            repeats.append(run_repeat(root, work, spec, trace_seed, False, spec.sample))
            setups.append(setup_only(root, work))
            for _ in range(1 + int(repeats[-1].wall_s // REFERENCE_EVERY_S)):
                references.append(reference_s())
            now = time.monotonic()
            if now - start + (now - repeat_start) > seconds:
                break

    failed = 0
    for repeat in repeats + baselines:
        expected = reference.get(str(repeat.trace_seed), {}).get("digest")
        if not repeat.ok or repeat.digest != expected:
            failed += 1
            if repeat.ok:
                log(
                    f"{workload} seed {repeat.trace_seed}: stats digest "
                    f"{repeat.digest} != recorded {expected}"
                )
    attempted = len(repeats) + len(baselines) + len(setups)
    failed += setups.count(None)
    if failed:
        return {"attempted": attempted, "failed": failed, "metrics": {}, "samples": {}}

    if traced:
        # Span ids restart in every child process; qualify them by repeat.
        spans = [
            dict(s, id=(i, s["id"]), parent=None if s["parent"] is None else (i, s["parent"]))
            for i, r in enumerate(repeats)
            for s in r.spans or []
        ]
        metrics = layer_metrics(spans, repeats=len(repeats))
        metrics["trace.overhead_s"] = median(
            [t.wall_s - b.wall_s for t, b in zip(repeats, baselines)]
        )
        samples = {"traced_repeats": len(repeats), "trace_seeds": [r.trace_seed for r in repeats]}
        return {"attempted": attempted, "failed": 0, "metrics": metrics, "samples": samples}

    host = {
        "wall_s": median([r.wall_s for r in repeats]),
        "cpu_s": median([r.cpu_s for r in repeats]),
        "setup_s": median(setups + [r.setup_s for r in repeats]),
    }
    scale = host_scale(references)
    metrics = {name: value * scale for name, value in host.items()}
    metrics["peak_rss_mb"] = median([r.peak_rss_mb for r in repeats])
    # Reported beside the metrics, not gated (see the README).
    info = {"sim_kips": median([r.kinst / r.wall_s for r in repeats])}
    if spec.sample:
        full_ipc = {seed: entry["full_ipc"] for seed, entry in reference.items()}
        info["ipc_err_pct"] = ipc_error_pct(repeats[:len(pool)], full_ipc)
    return {
        "attempted": attempted,
        "failed": 0,
        "metrics": metrics,
        "samples": {
            **info,
            "host": host,
            "scale": scale,
            "reference_s": [round(t, 4) for t in references],
            "repeats": len(repeats),
            "trace_seeds": [r.trace_seed for r in repeats],
            "repeat_wall_s": [round(r.wall_s, 4) for r in repeats],
            "repeat_cpu_s": [round(r.cpu_s, 4) for r in repeats],
            "setup_samples_s": [round(t, 4) for t in setups + [r.setup_s for r in repeats]],
        },
    }
