"""The host's current speed, from a fixed reference loop.

The CPU this benchmark was tuned on drifts between speed states -- about
0.8x, 1x and 1.3-1.45x of its usual time per operation -- for seconds to
minutes at a time, which moves raw host timings by 11-22% (IQR over
median) between runs of the same code.  Every timing the benchmark reports
is therefore divided by a *host factor*: the time :func:`reference` took
around that moment over :data:`NOMINAL_S`.

The reference is interpreter-bound work like the simulator's, in three
parts of about equal time: a small hot dictionary, random probes into a
~9 MB table (a working set past the caches, like the simulator's object
graph), and allocation of small slotted objects.  Of the loops tried, the
three together tracked the simulator best: over six 20 s runs the spread
of ``sim_kips`` fell from 11% to 2% on ``spec_integration`` and from 14% to
5% on ``memory_wall``, where any one part alone left 4-8%.  No simulator
code runs in it, and it must never change: changing it or
:data:`NOMINAL_S` rescales every reported time.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

#: Seconds one :func:`reference` call takes on the tuning host, about the
#: median of its 3.4-6.1 ms range (a scale constant: reported times are in
#: these host-seconds).
NOMINAL_S = 0.0045

#: Samples on each side of a job that make up its local host factor.
WINDOW = 1

_TABLE_KEYS = 1 << 16
#: Ints only, so the garbage collector does not track the table and the
#: measured code's collections do not scan it.
_table: Dict[int, int] = {}


class _Node:
    __slots__ = ("a", "b", "link")

    def __init__(self, a: int, link: Optional["_Node"]) -> None:
        self.a = a
        self.b = a + 1
        self.link = link


def _ensure_table() -> None:
    if not _table:
        _table.update({k * 7919: k for k in range(_TABLE_KEYS)})


def reference() -> int:
    _ensure_table()
    acc = 0
    hot: Dict[int, int] = {}
    for i in range(6200):
        key = i & 1023
        hot[key] = hot.get(key, 0) + i
        acc += len(hot) ^ key
    x = 12345
    for i in range(2600):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x & (_TABLE_KEYS - 1)) * 7919
        value = _table[key]
        _table[key] = value + 1
        acc += value ^ i
    node = None
    for i in range(4400):
        node = _Node(i, node if i & 15 else None)
        acc += node.b ^ (node.a & 255)
    return acc


class HostSpeed:
    """Reference timings taken through one pass, in order."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        _ensure_table()     # built here, not inside the first timed sample

    def sample(self) -> int:
        """Time one :func:`reference` call; returns the sample's index."""
        began = time.perf_counter()
        reference()
        self.samples.append(time.perf_counter() - began)
        return len(self.samples) - 1

    @property
    def total(self) -> float:
        return sum(self.samples)

    def factor(self, around: Optional[int] = None) -> float:
        """Measured reference time over nominal: over the samples within
        :data:`WINDOW` of sample ``around``, or all of them (1.0 when there
        are none)."""
        window = self.samples
        if around is not None:
            window = window[max(0, around - WINDOW):around + WINDOW + 1]
        return sum(window) / len(window) / NOMINAL_S if window else 1.0
