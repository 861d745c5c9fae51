"""The ``serve-warm`` workload: one closed-loop client against ``repro serve``.

Set-up fills one sqlite store with a small cold campaign (its own
``repro campaign`` process, trace seed = the benchmark seed) and reads
what every reply must equal.  The run is then split into segments; each
starts ``repro serve --backend sqlite`` as its own process over that
store, so client and server never share an interpreter lock.  The client
sends a seeded request mix, one request at a time, each waiting for the
previous reply (the way CI scripts and the HTTP store backend call the
server):

* ``GET /result/<key>`` and ``POST /job`` make up most of it;
* ``GET /entries?workload=<app>`` and store-only ``GET /experiment/<id>``
  replays each keep a fixed share of every block of 20 requests.

Every reply is checked against the store read in-process during set-up:
documents byte for byte against ``backend.read_raw``, job keys, listing
counts, and experiment rows against an in-process store-only replay.
``/store/stats`` must report zero simulations executed.

The gated times are scaled to reference seconds by reference children
run after each fill and after every fourth batch (``common.host_scale``).
The request rate and the per-route latencies are printed beside the
gated metrics, as measured, and not gated (see the README).

The traced run adds a second segment with the server hosted in this
process (so the span wrappers see the handler's store, key and
experiment calls) and times ``read_raw`` and ``entries`` called directly.
"""

from __future__ import annotations

import http.client
import json
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from common import (
    child_env,
    host_scale,
    log,
    percentile,
    proc_cpu_s,
    proc_peak_rss_mb,
    reference_s,
)
from spans import SpanRecorder, install, layer_metrics

FILL_IDS = ("F5", "F6", "A2", "A7")
#: One block of the closed-loop mix; each block is shuffled by the seed.
BLOCK = ("result",) * 9 + ("job",) * 7 + ("entries",) * 2 + ("experiment",) * 2
BATCH = 500  # requests per wall_s / cpu_s sample
REFERENCE_EVERY = 4  # batches per reference child (common.reference_s)
FILLS = 3  # store fills per untraced run


@dataclass(frozen=True)
class ServeSpec:
    apps: Tuple[str, ...]
    n_insts: int
    segments: int  # server processes per untraced run


SPECS = {
    "full": ServeSpec(("gcc", "mcf", "art"), 1000, 4),
    "tiny": ServeSpec(("gcc",), 300, 1),
}


@dataclass
class Expected:
    """What every reply must equal, read in-process from the filled store."""

    raw: Dict[str, bytes]
    specs: Dict[str, dict]
    entries: Dict[str, int]
    rows: Dict[str, list]
    query: str


@dataclass
class Segment:
    start_s: float = 0.0  # server start until /healthz answers
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    batch_wall: List[float] = field(default_factory=list)
    batch_cpu: List[float] = field(default_factory=list)
    references: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    simulations: int = 0


def fill_store(root: Path, store_dir: Path, spec: ServeSpec, trace_seed: int) -> None:
    argv = [
        sys.executable, "-m", "repro", "campaign", *FILL_IDS,
        "--apps", ",".join(spec.apps), "--n", str(spec.n_insts),
        "--seed", str(trace_seed), "--jobs", "1", "--backend", "sqlite",
        "--store-dir", str(store_dir), "--quiet",
    ]
    subprocess.run(
        argv, cwd=root, env=child_env(root), check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )


def expected_from_store(store_dir: Path, spec: ServeSpec, trace_seed: int) -> Expected:
    from repro.campaign import campaign_context
    from repro.campaign.store import ResultStore
    from repro.experiments import get_experiment
    from repro.service.backends import open_backend

    store = ResultStore(backend=open_backend(str(store_dir), backend="sqlite"))
    raw = {key: store.backend.read_raw("result", key) for key in store.backend.keys("result")}
    specs = {key: json.loads(body)["spec"] for key, body in raw.items()}
    entries = {app: len(list(store.backend.entries("result", workload=app))) for app in spec.apps}
    rows = {}
    for exp_id in FILL_IDS:
        with campaign_context(store=store, store_only=True):
            result = get_experiment(exp_id).module.run(
                apps=spec.apps, n_insts=spec.n_insts, seed=trace_seed
            )
        rows[exp_id] = json.loads(json.dumps(result.rows(), sort_keys=True, default=str))
    query = f"apps={','.join(spec.apps)}&n={spec.n_insts}&seed={trace_seed}"
    return Expected(raw, specs, entries, rows, query)


def start_server(root: Path, store_dir: Path, err_path: Path) -> Tuple[subprocess.Popen, int]:
    """Spawn ``repro serve`` on a free port; return once it answers."""
    err = open(err_path, "w")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--backend", "sqlite",
            "--store-dir", str(store_dir), "--port", "0", "--quiet",
        ],
        cwd=root, env=child_env(root), stdout=subprocess.DEVNULL, stderr=err,
    )
    err.close()
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                raise RuntimeError(f"repro serve exited: {err_path.read_text()[-2000:]}")
            text = err_path.read_text()
            if " on http://" in text:
                port = int(text.split(" on http://", 1)[1].split()[0].rsplit(":", 1)[1])
                status, _ = request(port, "GET", "/healthz")
                if status == 200:
                    return proc, port
            time.sleep(0.002)
        raise RuntimeError("repro serve did not come up within 60 s")
    except BaseException:
        stop_server(proc)
        raise


def stop_server(proc: subprocess.Popen) -> None:
    """Stop ``repro serve`` the way its CLI expects (SIGINT), killing it
    if it has not exited after 15 s."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def request(port: int, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def make_mix(rng: random.Random, expected: Expected, count: int) -> List[Tuple[str, str, str, Optional[bytes]]]:
    """(route class, method, path, body) for ``count`` requests."""
    keys = sorted(expected.raw)
    apps = sorted(expected.entries)
    mix = []
    while len(mix) < count:
        block = list(BLOCK)
        rng.shuffle(block)
        for route in block:
            if route == "result":
                mix.append((route, "GET", f"/result/{rng.choice(keys)}", None))
            elif route == "job":
                key = rng.choice(keys)
                mix.append((route, "POST", "/job", json.dumps(expected.specs[key]).encode()))
            elif route == "entries":
                mix.append((route, "GET", f"/entries?workload={rng.choice(apps)}", None))
            else:
                exp_id = rng.choice(FILL_IDS)
                mix.append((route, "GET", f"/experiment/{exp_id}?{expected.query}", None))
    return mix[:count]


def reply_ok(route: str, path: str, body: Optional[bytes], status: int, data: bytes, expected: Expected) -> bool:
    if status != 200:
        return False
    if route == "result":
        return data == expected.raw[path.rsplit("/", 1)[1]]
    payload = json.loads(data)
    if route == "job":
        key = payload["key"]
        return payload["stored"] is True and expected.specs.get(key) == json.loads(body or b"")
    if route == "entries":
        return payload["count"] == expected.entries[path.rsplit("=", 1)[1]]
    exp_id = path.split("/")[2].split("?")[0]
    return payload["rows"] == expected.rows[exp_id]


def drive(
    port: int, expected: Expected, rng: random.Random, seconds: float,
    server_pid: Optional[int], segment: Segment,
) -> None:
    """Closed loop: batches of requests until ``seconds`` have passed.

    Untimed first: one request per document, listing and experiment, so
    the server's lazy imports, per-thread sqlite connections and the page
    cache are warm, as on a server that has been up for a while.
    """
    warm = [("GET", f"/result/{key}", None) for key in expected.raw]
    warm += [("GET", f"/entries?workload={app}", None) for app in expected.entries]
    warm += [("GET", f"/experiment/{exp_id}?{expected.query}", None) for exp_id in FILL_IDS]
    for method, path, body in warm:
        request(port, method, path, body)
    start = time.perf_counter()
    while not segment.batch_wall or time.perf_counter() - start < seconds:
        mix = make_mix(rng, expected, BATCH)
        cpu0 = time.process_time() + (proc_cpu_s(server_pid) if server_pid else 0.0)
        wall0 = time.perf_counter()
        for route, method, path, body in mix:
            t0 = time.perf_counter()
            status, data = request(port, method, path, body)
            segment.latencies.setdefault(route, []).append(time.perf_counter() - t0)
            segment.attempted += 1
            try:
                ok = reply_ok(route, path, body, status, data, expected)
            except (KeyError, TypeError, ValueError):  # malformed reply
                ok = False
            if not ok:
                segment.failed += 1
                log(f"serve-warm: bad reply {status} to {method} {path}")
        segment.batch_wall.append(time.perf_counter() - wall0)
        cpu1 = time.process_time() + (proc_cpu_s(server_pid) if server_pid else 0.0)
        segment.batch_cpu.append(cpu1 - cpu0)
        if server_pid and len(segment.batch_wall) % REFERENCE_EVERY == 0:
            segment.references.append(reference_s())


def check_simulations(port: int, segment: Segment) -> None:
    status, data = request(port, "GET", "/store/stats")
    segment.attempted += 1
    segment.simulations = json.loads(data)["simulations_executed"] if status == 200 else -1
    if segment.simulations != 0:
        segment.failed += 1
        log(f"serve-warm: /store/stats {status}, simulations_executed={segment.simulations}")


def process_segment(
    root: Path, work: Path, expected: Expected, rng: random.Random, seconds: float
) -> Segment:
    """Fresh server process over the filled store, one closed-loop stretch.

    ``seconds`` covers the whole segment, server start included.
    """
    segment = Segment()
    t0 = time.monotonic()
    proc, port = start_server(root, work / "serve_store", work / "serve_stderr.txt")
    segment.start_s = time.monotonic() - t0
    try:
        drive(port, expected, rng, seconds - segment.start_s, proc.pid, segment)
        segment.peak_rss_mb = proc_peak_rss_mb(proc.pid)
        check_simulations(port, segment)
    finally:
        stop_server(proc)
    return segment


def in_process_segment(
    work: Path, expected: Expected, rng: random.Random, seconds: float, recorder: SpanRecorder
) -> Segment:
    """The traced stretch: server hosted here, behind the span wrappers."""
    from repro.campaign.store import ResultStore
    from repro.service.backends import open_backend
    from repro.service.server import serve

    install(recorder)
    segment = Segment()
    store = ResultStore(backend=open_backend(str(work / "serve_store"), backend="sqlite"))
    server = serve(store, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        drive(server.server_address[1], expected, rng, seconds, None, segment)
        check_simulations(server.server_address[1], segment)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=15)
        recorder.restore()
    return segment


def direct_backend_times(work: Path, expected: Expected) -> Tuple[float, float]:
    """p50 of ``read_raw`` (us) and ``entries(workload=)`` (ms), called directly."""
    from repro.service.backends import open_backend

    backend = open_backend(str(work / "serve_store"), backend="sqlite")
    reads, listings = [], []
    for _ in range(5):
        for key in sorted(expected.raw):
            t0 = time.perf_counter()
            backend.read_raw("result", key)
            reads.append(time.perf_counter() - t0)
        for app in sorted(expected.entries):
            t0 = time.perf_counter()
            list(backend.entries("result", workload=app))
            listings.append(time.perf_counter() - t0)
    return 1e6 * median(reads), 1e3 * median(listings)


def latency_ms(segments: List[Segment], route: str, q: float) -> float:
    """Median over segments of each segment's ``q``-th percentile, in ms.

    A host stall that slows one segment's tail then moves one of the
    medianed values, not the percentile of the whole run.
    """
    return 1e3 * median([percentile(s.latencies[route], q) for s in segments])


def beyond(segments: List[Segment], route: str, q: float) -> int:
    """Fewest samples beyond the ``q``-th percentile in any segment."""
    return min(len(s.latencies[route]) - int(len(s.latencies[route]) * q / 100) for s in segments)


def run(root: Path, work: Path, size: str, seed: int, seconds: float, traced: bool) -> dict:
    spec = SPECS[size]
    start = time.monotonic()
    # The untraced run fills the store FILLS times over, each from scratch,
    # so the fill's share of setup_s is a median.
    fills, references = [], []
    for _ in range(1 if traced else FILLS):
        shutil.rmtree(work / "serve_store", ignore_errors=True)
        t0 = time.monotonic()
        fill_store(root, work / "serve_store", spec, seed)
        fills.append(time.monotonic() - t0)
        references.append(reference_s())
    expected = expected_from_store(work / "serve_store", spec, seed)
    rng = random.Random(f"serve-warm:{seed}")
    if traced:
        left = seconds - (time.monotonic() - start)
        base = process_segment(root, work, expected, rng, left / 2)
        recorder = SpanRecorder()
        traced_seg = in_process_segment(work, expected, rng, left / 2, recorder)
        segments = [base, traced_seg]
        read_raw_us, entries_ms = direct_backend_times(work, expected)
        metrics = layer_metrics(recorder.spans)
        doc_p50 = latency_ms([base], "result", 50)
        metrics.update(
            {
                "service.read_raw_us": read_raw_us,
                "service.entries_ms": entries_ms,
                "service.http_ms": doc_p50 - read_raw_us / 1e3,
                "service.job_p50_ms": latency_ms([base], "job", 50),
                "service.entries_p50_ms": latency_ms([base], "entries", 50),
                "service.simulations_executed": base.simulations + traced_seg.simulations,
                "trace.overhead_s": median(traced_seg.batch_wall) - median(base.batch_wall),
            }
        )
        samples: dict = {}
    else:
        segments = []
        for index in range(spec.segments):
            left = seconds - (time.monotonic() - start)
            segments.append(
                process_segment(root, work, expected, rng, left / (spec.segments - index))
            )
        wall = [w for s in segments for w in s.batch_wall]
        host = {
            "wall_s": median(wall),
            "cpu_s": median([c for s in segments for c in s.batch_cpu]),
            "setup_s": median(fills) + median([s.start_s for s in segments]),
        }
        references += [t for s in segments for t in s.references]
        scale = host_scale(references)
        metrics = {name: value * scale for name, value in host.items()}
        metrics["peak_rss_mb"] = median([s.peak_rss_mb for s in segments])
        # Reported beside the metrics, not gated (see the README).  The
        # document p99 lands on hypervisor stalls of a few milliseconds and
        # moved up to sevenfold between runs of the same code.
        samples = {
            "req_per_s": BATCH / median(wall),
            "doc_p50_ms": latency_ms(segments, "result", 50),
            "doc_p99_ms": latency_ms(segments, "result", 99),
            "experiment_p50_ms": latency_ms(segments, "experiment", 50),
            "experiment_p95_ms": latency_ms(segments, "experiment", 95),
            "host": host,
            "scale": scale,
            "reference_s": [round(t, 4) for t in references],
            "segments": len(segments),
            "batches": len(wall),
            "requests": sum(len(v) for s in segments for v in s.latencies.values()),
            "doc_beyond_p99_min": beyond(segments, "result", 99),
            "experiment_beyond_p95_min": beyond(segments, "experiment", 95),
            "fill_s": fills,
            "server_start_s": [s.start_s for s in segments],
            "doc_p99_ms_per_segment": [latency_ms([s], "result", 99) for s in segments],
        }
    return {
        "attempted": sum(s.attempted for s in segments),
        "failed": sum(s.failed for s in segments),
        "metrics": metrics,
        "samples": samples,
    }
