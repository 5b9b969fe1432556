"""Register integration: the paper's primary contribution.

The integration machinery lives entirely around the rename stage:

* :class:`IntegrationLogic` -- the rename-time operational-equivalence test
  over its integration table (IT), a set-associative table of
  :class:`ITEntry` tuples ``<operation, input physical registers
  (+generations), output physical register (+generation)>`` describing
  recently renamed operations.  Three index schemes are provided: PC (the
  original squash-reuse scheme), opcode+immediate, and the paper's enhanced
  opcode+immediate+call-depth scheme (extension 2).  Entry creation
  includes, under operation indexing, *reverse* entries for stack stores
  and stack-pointer adjustments (extension 3, speculative memory
  bypassing).
* :class:`NullIntegrationLogic` -- what a disabled configuration builds:
  it never integrates and keeps no table.
* :class:`LoadIntegrationSuppressionPredictor` (LISP) -- a PC-indexed tag
  cache that learns load mis-integrations detected by DIVA and suppresses
  the offending loads in the future.
* :class:`IntegrationConfig` -- one knob per extension plus the table
  geometries, with presets matching the paper's Figure 4 configurations.
"""

from repro.integration.config import IntegrationConfig, IndexScheme, LispMode
from repro.integration.lisp import LoadIntegrationSuppressionPredictor
from repro.integration.logic import (
    IntegrationDecision,
    IntegrationLogic,
    ITEntry,
    NullIntegrationLogic,
)

__all__ = [
    "IntegrationConfig",
    "IndexScheme",
    "LispMode",
    "ITEntry",
    "LoadIntegrationSuppressionPredictor",
    "IntegrationLogic",
    "IntegrationDecision",
    "NullIntegrationLogic",
]
