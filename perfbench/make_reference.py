"""Record ``perfbench/reference.json`` for the current tree.

Usage, from the root of a source checkout::

    python3 perfbench/make_reference.py

For every campaign workload, size and pool trace seed it runs one
untraced repeat and records the statistics digest the benchmark checks.
For the sampled workload it also runs the same cells with full
simulation and records their IPCs, against which ``ipc_err_pct`` is
measured.  Rerun it only when a change is meant to alter simulated
statistics.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import campaign
from common import REFERENCE_PATH, log, spec_key


def main() -> int:
    root = Path.cwd()
    work = root / ".perfbench_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    reference: dict = {}
    try:
        for workload, sizes in campaign.SPECS.items():
            for size, spec in sizes.items():
                entries = reference.setdefault(workload, {}).setdefault(size, {})
                for trace_seed in spec.pool:
                    log(f"{workload}/{size}: trace seed {trace_seed}")
                    repeat = campaign.run_repeat(root, work, spec, trace_seed, False, spec.sample)
                    if not repeat.ok:
                        return 1
                    entry = {"digest": repeat.digest}
                    if spec.sample:
                        full = campaign.run_repeat(root, work, spec, trace_seed, False, False)
                        if not full.ok:
                            return 1
                        entry["full_ipc"] = {
                            spec_key(r["spec"]): r["stats"]["committed"] / r["stats"]["cycles"]
                            for r in full.results or []
                        }
                    entries[str(trace_seed)] = entry
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
