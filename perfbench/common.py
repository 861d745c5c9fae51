"""Helpers shared by the benchmark's workloads: statistics, host counters,
process handling and the recorded reference data."""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"


def percentile(values: Sequence[float], q: int) -> float:
    """Linearly interpolated ``q``-th percentile (1-99)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


#: The reference child: a fresh interpreter, isolated from ``PYTHONPATH``
#: and user site-packages and writing no bytecode, that imports a fixed
#: set of standard-library modules and exits.  It runs none of the
#: program, so a change to the program cannot move it; the host's speed
#: moves it much as it moves the program (interpreter start, unmarshalling
#: and executing module code, allocating objects).
REFERENCE_ARGV = (
    sys.executable, "-I", "-B", "-c",
    "import argparse, asyncio, csv, dataclasses, decimal, email.parser, http.server,"
    " json, logging.handlers, sqlite3, typing, unittest, xml.dom.minidom",
)
#: Seconds the gated times are scaled to: each run's times are multiplied
#: by ``REFERENCE_S`` over the median time of its reference children.
REFERENCE_S = 0.2


def reference_s() -> float:
    """Wall seconds of one reference child, from spawn to exit."""
    start = time.monotonic()
    subprocess.run(REFERENCE_ARGV, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.monotonic() - start


def host_scale(references: List[float]) -> float:
    """Factor from host seconds to reference seconds for one run."""
    return REFERENCE_S / statistics.median(references)


def read_cpu_times() -> List[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (clock ticks)."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return [int(x) for x in fields[1:]]


def steal_frac(before: List[int], after: List[int]) -> float:
    """Share of host CPU time stolen by the hypervisor between two reads."""
    deltas = [b - a for a, b in zip(before, after)]
    total = sum(deltas[:8])  # user..steal; guest time is already in user
    return deltas[7] / total if total > 0 and len(deltas) > 7 else 0.0


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_env(root: Path) -> Dict[str, str]:
    """Environment for processes that import ``repro`` from ``root/src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("REPRO_NO_SKIP", None)  # measure the default (fast-forwarding) core
    return env


def spec_key(spec: str) -> str:
    return hashlib.sha256(spec.encode("utf-8")).hexdigest()[:16]


def stats_digest(results: Iterable[dict]) -> str:
    """SHA-256 over every returned SimStats, ordered by job spec.

    Jobs are ordered by their canonical spec without the code-version
    salt, so a salt change that leaves every statistic byte-identical
    leaves the digest alone.  A spec returned twice must carry identical
    statistics; the digest covers it once.
    """
    by_spec: Dict[str, str] = {}
    for result in results:
        body = json.dumps(result["stats"], sort_keys=True, separators=(",", ":"))
        if by_spec.setdefault(result["spec"], body) != body:
            return "inconsistent:" + spec_key(result["spec"])
    digest = hashlib.sha256()
    for spec in sorted(by_spec):
        digest.update(spec.encode("utf-8"))
        digest.update(b"\0")
        digest.update(by_spec[spec].encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def check_root(root: Path) -> Optional[str]:
    """Why ``root`` cannot be benchmarked, or ``None`` when it can."""
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return f"no repro source tree under {root / 'src'}"
    if not (root / "BENCHMARK.json").is_file():
        return "missing BENCHMARK.json"
    if not REFERENCE_PATH.is_file():
        return f"missing {REFERENCE_PATH.name}"
    return None
