"""Campaign execution: store lookups, trace-grouped parallel fan-out.

``run_campaign`` turns a list of :class:`~.jobs.Job` into a list of
:class:`~.jobs.JobResult` with three guarantees:

* **Determinism** — results are returned in submission order and are
  bit-identical whatever ``jobs_n`` is: workers only ever run the same
  seeded simulations the serial path would.
* **No repeated work** — jobs whose key is already in the store are
  answered without simulating; duplicate keys *within* one batch
  simulate once and fan the result out.
* **Trace sharing** — jobs are grouped by ``(workload, n_insts, seed)``
  and each group is dispatched as one task, so a worker generates each
  trace once (the runner's per-process trace cache covers re-dispatch of
  the same trace to the same pool worker).

Groups run in-process when ``jobs_n <= 1`` (or there is only one),
otherwise on a ``ProcessPoolExecutor``; either way every finished group
goes through the same drain loop, which persists its results before
anything else happens.  Hence:

* **Ctrl-C** cancels the queued groups and propagates
  ``KeyboardInterrupt``; everything drained so far is in the store, so
  an interrupted campaign resumes from where it stopped.
* **A lost worker** (killed, OOM, segfault) breaks the pool.  The loop
  keeps draining the groups that had already finished, then raises
  :class:`WorkerLostError`; a re-run simulates only the lost groups.

An ambient :class:`CampaignContext` (``with campaign_context(...):``)
lets high-level entry points — the experiment registry, the CLI — set
the parallelism and store once while inner layers keep calling
``run_campaign(jobs)`` with no extra plumbing.  ``store_only`` on the
context resolves from the store or raises :class:`StoreMissError` —
never simulates; this is how ``repro serve`` guarantees a warm query
executes zero simulations.
"""

from __future__ import annotations

from contextlib import closing, contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core import MachineConfig, SimStats
from ..core.decoded import decode_trace
from ..redundancy import FaultInjector
from ..sampling.plan import SamplingPlan
from ..simulation.runner import get_trace, simulate
from .jobs import SOURCE_RUN, SOURCE_STORE, Job, JobResult, Provenance
from .keys import CODE_VERSION, job_key
from .progress import wall_clock
from .store import ResultStore

ProgressFn = Callable[[int, int, JobResult], None]

#: One task for a worker: [(submission index, job), ...] sharing a trace.
_Group = List[Tuple[int, Job]]

#: What a group returns: [(submission index, stats, wall seconds), ...].
_GroupResult = List[Tuple[int, SimStats, float]]

if TYPE_CHECKING:
    import multiprocessing.context


class StoreMissError(LookupError):
    """A store-only campaign needed a result the store does not hold.

    ``missing`` counts the jobs that would have to simulate; the serve
    API maps this onto HTTP 409 with that count in the body.
    """

    def __init__(self, missing: int, total: int):
        super().__init__(
            f"{missing} of {total} job(s) not in the store "
            "(store-only campaign refuses to simulate)"
        )
        self.missing = missing
        self.total = total


class WorkerLostError(RuntimeError):
    """A pool worker died mid-campaign (killed, OOM, segfault).

    Everything completed before the loss is already in the store —
    re-running the campaign resumes from there.
    """


def execute_job(job: Job) -> SimStats:
    """Run one job to completion in this process and return its statistics."""
    trace = get_trace(job.workload, job.n_insts, job.seed)
    if job.sampling is not None:
        from ..sampling import run_sampled

        sampled = run_sampled(
            trace,
            job.sampling,
            model=job.model,
            config=job.config,
            irb_config=job.irb_config,
            max_cycles=job.max_cycles,
            warmup=job.warmup,
        )
        return sampled.stats
    injector = FaultInjector(list(job.faults)) if job.faults else None
    result = simulate(
        trace,
        model=job.model,
        config=job.config,
        irb_config=job.irb_config,
        fault_injector=injector,
        max_cycles=job.max_cycles,
        warmup=job.warmup,
    )
    return result.stats


def _prewarm_group(group: _Group) -> None:
    """Build the group's shared trace and decoded side-structure up front.

    Everything here is memoized (``get_trace``'s LRU, ``Trace.derived``),
    so paying for it now keeps one-time construction out of the first
    job's reported wall time.  For sampled jobs the same applies one
    level down: site selection is resolved per distinct plan and every
    site's re-sequenced slice is decoded per line size — so two sampled
    jobs differing only in model or machine configuration share one
    selection pass, one slice ``Trace`` per site, and one
    ``DecodedTrace`` per (slice, line size).
    """
    first = group[0][1]
    trace = get_trace(*first.trace_key)
    line_bytes = {
        (job.config or MachineConfig.baseline()).hierarchy.l1i.line_bytes
        for _, job in group
    }
    for lb in line_bytes:
        decode_trace(trace, lb)
    plans = {job.sampling for _, job in group if job.sampling is not None}
    if plans:
        from ..sampling import select_regions, site_trace

        for plan in plans:
            selection = select_regions(trace, plan)
            for site in selection.sites:
                slice_trace = site_trace(trace, site)
                for lb in line_bytes:
                    decode_trace(slice_trace, lb)


def _run_group(group: _Group) -> _GroupResult:
    """Worker entry point: simulate one trace-sharing group of jobs."""
    _prewarm_group(group)
    out = []
    for index, job in group:
        start = wall_clock()
        stats = execute_job(job)
        out.append((index, stats, wall_clock() - start))
    return out


def _group_by_trace(indexed_jobs: Sequence[Tuple[int, Job]]) -> List[_Group]:
    """Partition jobs by trace key, preserving submission order within each."""
    groups: Dict[Tuple[str, int, int], _Group] = {}
    for index, job in indexed_jobs:
        groups.setdefault(job.trace_key, []).append((index, job))
    return list(groups.values())


@dataclass
class CampaignOutcome:
    """Everything one ``run_campaign`` call produced."""

    results: List[JobResult]  # submission order
    executed: int = 0  # simulations actually run
    store_hits: int = 0  # jobs answered from the store
    deduped: int = 0  # duplicate-key jobs answered by a sibling
    wall_time_s: float = 0.0


@dataclass
class CampaignContext:
    """Ambient campaign settings plus cross-call counters.

    ``sampling`` is a request, not a mandate: job builders that go
    through the context (``experiments.common.run_apps``) apply the plan
    to their plain cycle-simulation jobs, while jobs that sampling
    cannot express (fault injection) ignore it.

    ``store_only`` turns misses into :class:`StoreMissError` instead of
    simulations — the serving tier's zero-simulation guarantee.
    """

    jobs_n: int = 1
    store: Optional[ResultStore] = None
    progress: Optional[ProgressFn] = None
    sampling: Optional[SamplingPlan] = None
    store_only: bool = False
    executed: int = 0
    store_hits: int = 0

    def absorb(self, outcome: CampaignOutcome) -> None:
        self.executed += outcome.executed
        self.store_hits += outcome.store_hits


_ACTIVE_CONTEXT: Optional[CampaignContext] = None


def current_context() -> Optional[CampaignContext]:
    """The innermost active campaign context, if any."""
    return _ACTIVE_CONTEXT


@contextmanager
def campaign_context(
    jobs_n: int = 1,
    store: Optional[ResultStore] = None,
    progress: Optional[ProgressFn] = None,
    sampling: Optional[SamplingPlan] = None,
    store_only: bool = False,
) -> Iterator[CampaignContext]:
    """Install an ambient context for nested ``run_campaign`` calls."""
    global _ACTIVE_CONTEXT
    context = CampaignContext(
        jobs_n=jobs_n,
        store=store,
        progress=progress,
        sampling=sampling,
        store_only=store_only,
    )
    previous = _ACTIVE_CONTEXT
    _ACTIVE_CONTEXT = context
    try:
        yield context
    finally:
        _ACTIVE_CONTEXT = previous


def _pool_context() -> "multiprocessing.context.BaseContext":
    # fork keeps the parent's (already warm) trace cache and sys.path;
    # fall back to spawn where fork is unavailable.
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _finished_groups(groups: List[_Group], jobs_n: int) -> Iterator[_GroupResult]:
    """Run the groups and yield each one's results as it finishes.

    Serially in-process for ``jobs_n <= 1`` or at most one group (no
    executor is built); otherwise on a process pool, in completion
    order.  A broken pool does not stop the yield of groups that already
    finished; :class:`WorkerLostError` follows them.  Closing the
    generator early (Ctrl-C, an error in the consumer) cancels the
    groups still queued.
    """
    if jobs_n <= 1 or len(groups) <= 1:
        for group in groups:
            yield _run_group(group)
        return

    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    executor = ProcessPoolExecutor(
        max_workers=min(jobs_n, len(groups)), mp_context=_pool_context()
    )
    lost: Optional[BrokenProcessPool] = None
    try:
        futures = [executor.submit(_run_group, group) for group in groups]
        for future in as_completed(futures):
            try:
                group_result = future.result()
            except BrokenProcessPool as error:
                lost = error
                continue
            yield group_result
    except BaseException:
        executor.shutdown(wait=False, cancel_futures=True)
        raise
    executor.shutdown()
    if lost is not None:
        raise WorkerLostError(
            "a campaign worker died; completed groups are persisted — "
            "re-run to resume from the store"
        ) from lost


def run_campaign(
    jobs: Sequence[Job],
    jobs_n: Optional[int] = None,
    store: Optional[ResultStore] = None,
    progress: Optional[ProgressFn] = None,
) -> CampaignOutcome:
    """Resolve every job — from the store where possible, else simulate.

    Args:
        jobs: the batch, in the order results should come back.
        jobs_n: worker processes; ``None`` defers to the ambient context
            (default 1 = run serially in-process, no pool).
        store: result store; ``None`` defers to the ambient context
            (which may itself have none — then nothing persists).
        progress: per-job callback ``(done, total, result)``; ``None``
            defers to the ambient context.  Store hits are reported
            first, then simulated jobs as their groups finish.

    Raises:
        StoreMissError: the ambient context is ``store_only`` and at
            least one job is not in the store.
        WorkerLostError: a worker process died; groups that finished
            before the loss are persisted.
    """
    context = current_context()
    if jobs_n is None:
        jobs_n = context.jobs_n if context else 1
    if store is None and context is not None:
        store = context.store
    if progress is None and context is not None:
        progress = context.progress

    total = len(jobs)
    start = wall_clock()
    outcome = CampaignOutcome(results=[])
    slots: List[Optional[JobResult]] = [None] * total
    done = 0

    def finish(index: int, result: JobResult) -> None:
        nonlocal done
        slots[index] = result
        done += 1
        if progress is not None:
            progress(done, total, result)

    # 1. Store lookups + intra-batch dedup: only unique misses simulate.
    first_index_for_key: Dict[str, int] = {}
    duplicates: Dict[int, List[int]] = {}  # first index -> followers
    pending: List[Tuple[int, Job]] = []
    for index, job in enumerate(jobs):
        key = job_key(job)
        if store is not None:
            found = store.get(key)
            if found is not None:
                stats, provenance = found
                outcome.store_hits += 1
                finish(index, JobResult(job, stats, provenance))
                continue
        first = first_index_for_key.setdefault(key, index)
        if first != index:
            duplicates.setdefault(first, []).append(index)
            outcome.deduped += 1
        else:
            pending.append((index, job))

    if pending and context is not None and context.store_only:
        raise StoreMissError(missing=len(pending) + outcome.deduped, total=total)

    # 2. Execute the misses, grouped so each trace is generated once; the
    #    one drain loop persists every result the moment its group lands
    #    and fans it out to duplicate jobs.
    with closing(_finished_groups(_group_by_trace(pending), jobs_n)) as finished:
        for group_result in finished:
            for index, stats, wall in group_result:
                job = jobs[index]
                provenance = Provenance(SOURCE_RUN, wall, CODE_VERSION)
                if store is not None:
                    store.put(job, stats, provenance)
                outcome.executed += 1
                finish(index, JobResult(job, stats, provenance))
                shared = Provenance(SOURCE_STORE, wall, CODE_VERSION)
                for follower in duplicates.get(index, ()):
                    finish(follower, JobResult(jobs[follower], stats, shared))

    # 3. Submission order, whatever order the groups finished in.
    outcome.results = [r for r in slots if r is not None]
    if len(outcome.results) != total:
        raise RuntimeError("campaign lost results (scheduler bug)")
    outcome.wall_time_s = wall_clock() - start
    if context is not None:
        context.absorb(outcome)
    return outcome
