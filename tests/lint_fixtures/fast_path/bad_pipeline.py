"""Fast-path fixture: a guard reads an attribute no class declares."""

from repro.core.support import PipelineState


class Processor:
    def __init__(self):
        self.state = PipelineState()

    def _elide_target(self, cycle):
        return cycle

    def _run_phase(self, budget):
        state = self.state
        if state.rs._missing_ready:
            return
