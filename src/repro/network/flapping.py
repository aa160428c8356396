"""Link flaps (§3.6, §6.3): the flap record and its downtime in a window.

A flapping link goes down for a few seconds, dropping all in-flight
packets, then comes back.  The paper's lessons: (1) NCCL's retransmit
timeout must exceed the flap duration or the job dies with a completion
error; (2) the NIC's ``adap_retrans`` feature retries on a short interval
and recovers quickly when the flap is brief.  :mod:`repro.network.transport`
prices those retransmit policies; a :class:`FlapEvent` is what the
second-level monitor reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass
class FlapEvent:
    down_at: float
    up_at: float


def flap_downtime_in_window(events: List[FlapEvent], start: float, end: float) -> float:
    """Total link-down seconds overlapping [start, end]."""
    if end < start:
        raise ValueError("window end before start")
    total = 0.0
    for ev in events:
        lo = max(start, ev.down_at)
        hi = min(end, ev.up_at)
        total += max(0.0, hi - lo)
    return total
