"""One timed campaign repeat, in a fresh interpreter.

Run by ``perfbench/campaign.py`` as
``python3 perfbench/child.py <spec.json> <out.json>``.  Nothing memoized
in-process (the runner's trace cache, ``Trace.derived`` decodes and
region selections) and nothing in the store survives from an earlier
repeat, as for a user who runs ``repro campaign`` once.

The spec holds the ``repro campaign`` argument list (``null`` to stop
once set-up is done) and a ``trace`` flag.
The child imports ``repro``, marks the end of set-up, runs the CLI's
``main`` in-process, marks the end of the timed part and writes the
marks, its CPU time, the returned statistics and (when traced) its spans
to ``out.json``.  Timestamps are ``time.monotonic()``, which is
system-wide on Linux, so the parent compares them with its own.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def main() -> int:
    spec_path, out_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as handle:
        spec = json.load(handle)

    import repro.experiments.common as common
    from repro.campaign import job_spec
    from repro.campaign.store import stats_to_dict
    from repro.cli import main as repro_main

    recorder = None
    if spec["trace"]:
        from spans import SpanRecorder, install

        recorder = SpanRecorder()
        install(recorder)

    # Wraps the traced run_campaign (when tracing), so keeping the
    # returned results stays outside its span.
    returned = []
    run_campaign = common.run_campaign

    def capture(jobs, *args, **kwargs):
        outcome = run_campaign(jobs, *args, **kwargs)
        returned.extend(outcome.results)
        return outcome

    common.run_campaign = capture

    ready = time.monotonic()
    if spec["argv"] is None:  # set-up only: interpreter start and imports
        with open(out_path, "w") as handle:
            json.dump({"status": 0, "ready": ready}, handle)
        return 0
    cpu_ready = time.process_time()
    with contextlib.redirect_stdout(io.StringIO()):
        status = repro_main(spec["argv"])
    done = time.monotonic()
    cpu_done = time.process_time()

    results = []
    for result in returned:
        job_doc = job_spec(result.job)
        job_doc.pop("__code_version__", None)
        results.append(
            {
                "spec": json.dumps(job_doc, sort_keys=True, separators=(",", ":")),
                "n_insts": result.job.n_insts,
                "stats": stats_to_dict(result.stats),
            }
        )
    with open(out_path, "w") as handle:
        json.dump(
            {
                "status": status,
                "ready": ready,
                "done": done,
                "cpu_s": cpu_done - cpu_ready,
                "results": results,
                "spans": recorder.spans if recorder else [],
            },
            handle,
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
