"""Fast-path fixture: every guard attribute exists (no findings)."""

from repro.core.support import PipelineState


class Processor:
    def __init__(self):
        self.state = PipelineState()

    def _elide_target(self, cycle):
        if self.state.rs._waiting:
            return cycle
        return cycle + 1

    def _run_phase(self, budget):
        state = self.state
        arch = state.arch
        stats = state.stats
        while not arch.halted:
            if budget is not None and stats.retired >= budget:
                break
            if state.rs._ready:
                break
