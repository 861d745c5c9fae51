"""Span recording around calls into ``repro``'s layers, from outside the program.

The traced benchmark run replaces a layer's public function at the name
its *caller* looks it up by (``repro`` modules use ``from ... import``,
so patching the defining module alone would miss those calls) with a
wrapper that records one span per call: name, start, end, parent span
and a few attributes read off the arguments or the result.  Spans stay
in memory and are aggregated (or written out) once the run ends.

The program itself is not modified; nothing here is installed unless a
run asks for tracing.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The cycle-level timing models, grouped by the package that owns them.
MODEL_LAYERS: Dict[str, str] = {
    "sie": "core",
    "die": "redundancy",
    "srt": "redundancy",
    "die-cluster-split": "redundancy",
    "die-cluster-repl": "redundancy",
    "die-irb": "reuse",
    "sie-irb": "reuse",
    "die-irb-fwd": "reuse",
    "die-vp": "reuse",
}

AttrFn = Callable[[tuple, dict, Any], Dict[str, Any]]


class SpanRecorder:
    """In-memory spans with a per-thread parent stack.

    A span is a dict: ``id``, ``parent`` (an id or ``None``), ``name``,
    ``start``, ``end`` (``time.perf_counter()``) and ``attrs``.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, attrs: Optional[AttrFn] = None) -> Callable:
        """``fn`` with a span recorded around every call."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            span = {
                "id": next(self._ids),
                "parent": stack[-1]["id"] if stack else None,
                "name": name,
                "start": time.perf_counter(),
                "end": 0.0,
                "attrs": {},
            }
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)
            if attrs is not None:
                span["attrs"] = attrs(args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner: object, attr: str, name: str, attrs: Optional[AttrFn] = None) -> None:
        """Replace ``owner.attr`` by its span-recording wrapper."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, attrs))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer call the campaign and serve paths make.

    Each patch names the module whose global the caller reads.
    """
    import repro.campaign.scheduler as scheduler
    import repro.campaign.store as store
    import repro.core.pipeline as pipeline
    import repro.experiments.common as common
    import repro.sampling as sampling
    import repro.sampling.extrapolate as extrapolate
    import repro.service.server as server
    import repro.workloads as workloads
    from repro.campaign.store import ResultStore
    from repro.experiments import EXPERIMENTS

    recorder.patch(workloads, "generate_program", "workloads.generate_program")
    recorder.patch(
        workloads,
        "execute_program",
        "workloads.execute_program",
        lambda a, k, trace: {"insts": len(trace.insts)},
    )
    for owner in (scheduler, pipeline):
        recorder.patch(owner, "decode_trace", "core.decode_trace")
    recorder.patch(scheduler, "simulate", "simulate", _simulate_attrs)

    seen_selections: set = set()

    def select_attrs(args: tuple, kwargs: dict, selection: Any) -> Dict[str, Any]:
        trace, plan = _trace_plan(args, kwargs)
        key = (id(trace), plan.selection_key())
        first = key not in seen_selections
        seen_selections.add(key)
        return {"first": first}

    for owner in (sampling, extrapolate):
        recorder.patch(owner, "select_regions", "sampling.select_regions", select_attrs)
    select_unwrapped = sampling.regions.select_regions

    def run_sampled_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
        trace, plan = _trace_plan(args, kwargs)
        selection = select_unwrapped(trace, plan)  # memoized: no work
        return {
            "site_insts": sum(site.length for site in selection.sites),
            "total_insts": selection.total_insts,
        }

    recorder.patch(sampling, "run_sampled", "sampling.run_sampled", run_sampled_attrs)
    recorder.patch(scheduler, "execute_job", "campaign.execute_job")
    recorder.patch(
        ResultStore, "get", "campaign.store_get", lambda a, k, found: {"hit": found is not None}
    )
    recorder.patch(ResultStore, "put", "campaign.store_put")
    for owner in (scheduler, store, server):
        recorder.patch(owner, "job_key", "campaign.job_key")
    recorder.patch(common, "run_campaign", "campaign.run_campaign")
    for module in {id(e.module): e.module for e in EXPERIMENTS.values()}.values():
        recorder.patch(module, "run", "experiments.run")


def _trace_plan(args: tuple, kwargs: dict) -> Tuple[Any, Any]:
    trace = args[0] if args else kwargs["trace"]
    plan = args[1] if len(args) > 1 else kwargs["plan"]
    return trace, plan


def _simulate_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    trace = args[0] if args else kwargs["trace"]
    model = args[1] if len(args) > 1 else kwargs.get("model", "sie")
    return {
        "model": model,
        "insts": len(trace.insts),
        "ff_cycles": result.pipeline.ff_cycles,
        "cycles": result.stats.cycles,
    }


def layer_metrics(spans: List[dict], repeats: int = 1) -> Dict[str, float]:
    """Per-layer figures from a run's spans (as ``SpanRecorder.spans``).

    Time totals (the ``_s`` metrics) are divided by ``repeats``, the
    number of campaigns the spans cover.  A metric whose calls the run
    never made is left out, not reported as 0.
    """
    children: Dict[Any, List[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def by(name: str) -> List[dict]:
        return [s for s in spans if s["name"] == name]

    def total(items: List[dict]) -> float:
        return sum(s["end"] - s["start"] for s in items)

    def self_total(items: List[dict], own: Tuple[str, ...] = ()) -> float:
        """Duration minus child spans, except children in ``own`` (same layer)."""
        return sum(
            s["end"] - s["start"]
            - total([c for c in children.get(s["id"], []) if c["name"] not in own])
            for s in items
        )

    def per(items: List[dict], count: float) -> float:
        return total(items) / count

    out: Dict[str, float] = {}
    if gens := by("workloads.generate_program"):
        out["workloads.gen_s"] = total(gens)
    if execs := by("workloads.execute_program"):
        out["workloads.exec_us_per_inst"] = 1e6 * per(
            execs, sum(s["attrs"]["insts"] for s in execs)
        )
    if decodes := by("core.decode_trace"):
        out["core.decode_s"] = total(decodes)
    if sims := by("simulate"):
        for model, layer in MODEL_LAYERS.items():
            if runs := [s for s in sims if s["attrs"]["model"] == model]:
                out[f"{layer}.{model}.us_per_inst"] = 1e6 * per(
                    runs, sum(s["attrs"]["insts"] for s in runs)
                )
        out["core.ff_skip_frac"] = sum(s["attrs"]["ff_cycles"] for s in sims) / sum(
            s["attrs"]["cycles"] for s in sims
        )
    if firsts := [s for s in by("sampling.select_regions") if s["attrs"]["first"]]:
        out["sampling.select_s"] = total(firsts)
    if sampled := by("sampling.run_sampled"):
        out["sampling.run_s"] = total(sampled)
        out["sampling.sim_frac"] = sum(s["attrs"]["site_insts"] for s in sampled) / sum(
            s["attrs"]["total_insts"] for s in sampled
        )
    if puts := by("campaign.store_put"):
        out["campaign.store_put_ms"] = 1e3 * per(puts, len(puts))
    if gets := by("campaign.store_get"):
        out["campaign.store_get_ms"] = 1e3 * per(gets, len(gets))
        out["campaign.store_hit_frac"] = sum(1 for s in gets if s["attrs"]["hit"]) / len(gets)
    if keys := by("campaign.job_key"):
        out["campaign.key_us"] = 1e6 * per(keys, len(keys))
    if campaigns := by("campaign.run_campaign"):
        out["campaign.overhead_s"] = self_total(campaigns, own=("campaign.job_key",))
    if experiments := by("experiments.run"):
        out["experiments.self_s"] = self_total(experiments)
    return {name: value / repeats if name.endswith("_s") else value for name, value in out.items()}
