"""SIE-IRB: classic dynamic instruction reuse on a single stream [29].

This is the prior-work baseline the paper departs from.  Every instruction
probes the IRB; a reuse hit bypasses the functional units but — unlike
DIE-IRB — the IRB behaves as a functional unit: hits are *selected* (they
consume issue bandwidth) and their results are broadcast to the issue
window, which is exactly the wakeup/bypass complexity the paper's design
avoids.  Citron's observation [12] that reuse helps a balanced SIE core
only modestly (it is not ALU-bound) is reproducible with this model.
"""

from __future__ import annotations

from typing import List

from ..core import OOOPipeline
from ..core.decoded import OP_META
from ..core.dyninst import DynInst
from ..isa import TraceInst
from ..telemetry.events import IRB_REUSE_HIT, IRB_WRITE, NULL_TRACER, IRBEvent
from .frontend import IRBFrontEnd


class SIEIRBPipeline(IRBFrontEnd, OOOPipeline):
    """Single-stream out-of-order core with a Sodani/Sohi-style IRB."""

    name = "SIE-IRB"

    # ------------------------------------------------------------------

    def _hook_make_entries(self, inst: TraceInst, mispredicted: bool) -> List[DynInst]:
        entries = super()._hook_make_entries(inst, mispredicted)
        if entries[0].dec.reusable:
            entry = self._probe_pc(inst.pc, inst.opcode)
            if entry is not None:
                entries[0].irb_entry = entry
                entries[0].irb_ready_cycle = self.cycle + self._lookup_residual
        return entries

    def _hook_dispatch_blocked(self, inst: TraceInst, mispredicted: bool) -> None:
        # A rejected dispatch attempt still probes the IRB (stats and
        # port accounting), exactly as the discarded construction did.
        if OP_META[inst.opcode].reusable:
            self._probe_pc(inst.pc, inst.opcode)

    # ------------------------------------------------------------------

    def _hook_on_ready(self, inst: DynInst, cycle: int) -> None:
        entry = inst.irb_entry
        if entry is not None and not inst.reuse_hit:
            if cycle < inst.irb_ready_cycle:
                self._schedule(inst.irb_ready_cycle, "reready", inst)
                return
            trace = inst.trace
            if entry.matches_values(trace.src1_val, trace.src2_val):
                # The hit is known, but in the classic scheme the
                # instruction still goes through select (the IRB acts as an
                # FU with its own result ports).
                inst.reuse_hit = True
                self.irb.touch(entry)
                self.stats.irb_reuse_hits += 1
                tracer = self.tracer
                if tracer is not NULL_TRACER:
                    tracer.emit(
                        IRBEvent(IRB_REUSE_HIT, cycle, trace.pc, trace.opcode)
                    )
        super()._hook_on_ready(inst, cycle)

    def _try_issue(self, inst: DynInst, cycle: int) -> bool:
        if not inst.reuse_hit:
            return super()._try_issue(inst, cycle)
        # Reuse hit: consumes an issue slot but no ALU.
        inst.issued = True
        self.stats.issued += 1
        if inst.dec.load:
            # Only the address calculation is reused; the access proceeds.
            self._schedule(cycle + 1, "addr_done", inst)
        else:
            self._schedule(cycle + 1, "complete", inst)
        return True

    # ------------------------------------------------------------------

    def _hook_post_commit(self, insts: List[DynInst]) -> None:
        tracer = self.tracer
        for inst in insts:
            trace = inst.trace
            if inst.dec.reusable and not inst.reuse_hit:
                result = trace.mem_addr if inst.dec.mem else trace.result
                self.irb.enqueue_write(
                    trace.pc, trace.src1_val, trace.src2_val, result
                )
                if tracer is not NULL_TRACER:
                    tracer.emit(
                        IRBEvent(IRB_WRITE, self.cycle, trace.pc, trace.opcode)
                    )
