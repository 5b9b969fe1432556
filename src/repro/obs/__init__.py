"""Observability: pipeline tracing, CPI stall stacks and the fleet
dashboard.

Three layers, documented in docs/ARCHITECTURE.md ("Observability"):

* :mod:`repro.obs.trace` -- per-instruction lifecycle event tracing
  (JSON-lines and Konata pipetrace output) behind ``repro trace``;
* :mod:`repro.obs.cpi` -- the per-cycle top-of-ROB blame taxonomy that
  fills ``SimStats.cpi_stack``;
* :mod:`repro.obs.dashboard` -- the ``repro status --watch`` live fleet
  dashboard, rendered from the queue's worker stats files.

:mod:`repro.obs.cpi` is imported by the core engine and must stay
dependency-free; the other modules sit above the core and may import it.
"""

from repro.obs.cpi import CPI_BUCKETS, classify_stall
from repro.obs.trace import PipelineTracer

__all__ = ["CPI_BUCKETS", "classify_stall", "PipelineTracer"]
