"""The IRB front end shared by the SIE-IRB and DIE-IRB pipelines.

Both models attach the same machinery to their core: an IRB behind a
port arbiter, a pipelined lookup that lands ``lookup_latency -
frontend_latency`` cycles past dispatch, a commit-side write queue that
drains through the ports every cycle, and the IRB's own write counters
handed to :class:`~repro.core.SimStats` at the end of a run.  What each
model *does* with a probed entry (select it like an FU, or bypass
execution) stays in its own class.
"""

from __future__ import annotations

from typing import Any, Optional

from ..core import MachineConfig, SimStats
from ..telemetry.events import (
    IRB_LOOKUP,
    IRB_PC_HIT,
    IRB_PORT_STARVED,
    NULL_TRACER,
    IRBEvent,
)
from ..workloads import Trace
from .entry import IRBEntry
from .irb import IRB, IRBConfig
from .ports import PortArbiter


class IRBFrontEnd:
    """Mixin: IRB, ports and probe accounting for an out-of-order core.

    List it before the core class (``class P(IRBFrontEnd, OOOPipeline)``)
    so its hooks and ``run`` wrap the core's.
    """

    def __init__(
        self,
        trace: Trace,
        config: Optional[MachineConfig] = None,
        irb_config: Optional[IRBConfig] = None,
        **kwargs: Any,
    ):
        super().__init__(trace, config, **kwargs)
        self.irb = IRB(irb_config)
        self.ports = PortArbiter(
            self.irb.config.read_ports,
            self.irb.config.write_ports,
            self.irb.config.rw_ports,
        )
        # How far past dispatch the pipelined lookup lands.
        self._lookup_residual = max(
            0, self.irb.config.lookup_latency - self.config.frontend_latency
        )

    def _probe_pc(self, pc: int, opcode: object) -> Optional[IRBEntry]:
        """One probe's accounting (stats, ports, lookup, telemetry)."""
        stats = self.stats
        stats.irb_lookups += 1
        tracer = self.tracer
        tracing = tracer is not NULL_TRACER
        if tracing:
            tracer.emit(IRBEvent(IRB_LOOKUP, self.cycle, pc, opcode))
        if not self.ports.try_read(self.cycle):
            # All read ports busy this cycle: the probe is abandoned and
            # the instruction will execute on the FUs (counted, rare).
            stats.irb_port_starved += 1
            if tracing:
                tracer.emit(IRBEvent(IRB_PORT_STARVED, self.cycle, pc))
            return None
        entry = self.irb.lookup(pc)
        if entry is not None:
            stats.irb_pc_hits += 1
            if tracing:
                tracer.emit(IRBEvent(IRB_PC_HIT, self.cycle, pc, opcode))
        return entry

    def _hook_tick(self) -> None:
        self.irb.drain(self.ports, self.cycle)

    def _tick_quiescent(self) -> bool:
        # Fast-forward must not jump over cycles where the write queue is
        # still draining into the IRB through the port arbiter.
        return not self.irb.pending_writes

    def run(self, max_cycles: Optional[int] = None) -> SimStats:
        stats: SimStats = super().run(max_cycles)
        stats.irb_writes = self.irb.stats.writes
        stats.irb_write_drops = self.irb.stats.write_drops
        return stats
