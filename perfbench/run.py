"""Repository benchmark: cold, sampled and warm-serve campaigns.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload campaign-cold --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics (``BENCHMARK.json``
``end_to_end``); ``--trace 1`` runs the workload with span wrappers
around each layer's public calls and prints the per-layer metrics
(``per_layer``) and the tracing overhead.  A layer the workload does not
reach is measured by a traced tiny-size run of another workload (a
probe); the diagnostics line names the probe behind each such metric.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it holds
diagnostics that are not gated: sample counts, figures as measured in
host time, and ``host.steal_frac``, the share of host CPU time the
hypervisor stole during the run.

See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

from common import check_root, log, read_cpu_times, steal_frac

WORKLOADS = ("campaign-cold", "campaign-sampled", "serve-warm")
#: Share of ``--seconds`` a traced run gives its own workload; the probes
#: of the layers it does not reach take most of the rest.
TRACED_SHARE = 0.6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny runs every workload on minimal inputs (self-test only)",
    )
    args = parser.parse_args(argv)

    # A process started in the background inherits an ignored SIGINT and
    # passes it on; ``repro serve`` would then ignore the SIGINT that
    # stops it.  Any handler here resets it to the default in children.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    # On SIGTERM, unwind through the ``finally`` blocks that stop children.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    # Every process of the run shares one CPU (children inherit the mask).
    # The serve workload's client and server then hand each request over
    # on that CPU instead of waking the other vCPU, which must wait until
    # the hypervisor runs it: unpinned, runs with 17-24% steal took twice
    # as long per batch.  A serial campaign uses one CPU either way.  The
    # highest CPU is taken, as CPU 0 handles most interrupts.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    root = Path.cwd()
    problem = check_root(root)
    if problem is not None:
        log(f"perfbench: {problem}; run from the root of a repro checkout")
        return 2
    sys.path.insert(0, str(root / "src"))  # serve-warm checks replies in-process
    work = root / ".perfbench_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()

    traced = bool(args.trace)
    listed = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in listed["per_layer" if traced else "end_to_end"]}
    before = read_cpu_times()
    try:
        seconds = args.seconds * (TRACED_SHARE if traced else 1.0)
        outcome = run_workload(root, work, args.workload, args.size, args.seed, seconds, traced)
        values = outcome["metrics"]
        probes = {}
        for other in WORKLOADS if traced and not outcome["failed"] else ():
            missing = set(units) - set(values)
            if other == args.workload or not missing:
                continue
            probe = run_workload(root, work / other, other, "tiny", args.seed, 1.0, True)
            outcome["attempted"] += probe["attempted"]
            outcome["failed"] += probe["failed"]
            for name in missing & set(probe["metrics"]):
                values[name] = probe["metrics"][name]
                probes[name] = other
    finally:
        shutil.rmtree(work, ignore_errors=True)
    steal = steal_frac(before, read_cpu_times())

    unknown = set(values) - set(units)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    correct = outcome["failed"] == 0 and set(values) == set(units)
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values
    }
    diagnostics = {"host.steal_frac": steal, "samples": outcome["samples"]}
    if probes:
        diagnostics["probed"] = dict(sorted(probes.items()))
    print(json.dumps({"diagnostics": diagnostics}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def run_workload(
    root: Path, work: Path, workload: str, size: str, seed: int, seconds: float, traced: bool
) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    if workload == "serve-warm":
        import serve

        return serve.run(root, work, size, seed, seconds, traced)
    import campaign

    return campaign.run(root, work, workload, size, seed, seconds, traced)


if __name__ == "__main__":
    sys.exit(main())
