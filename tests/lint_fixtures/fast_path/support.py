"""Fast-path fixture: the engine-state classes the driver's guards read."""


class ArchState:
    def __init__(self):
        self.halted = False


class SimStats:
    def __init__(self):
        self.retired = 0


class ReservationStations:
    def __init__(self):
        self._ready = {}
        self._waiting = {}


class PipelineState:
    def __init__(self):
        self.arch = ArchState()
        self.stats = SimStats()
        self.rs = ReservationStations()
