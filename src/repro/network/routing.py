"""Deterministic ECMP hashing.

Real switches hash the packet 5-tuple onto the set of equal-cost next
hops.  We model a flow's 5-tuple with an integer ``flow_id`` and hash it
together with the hop identity, so the same flow takes a consistent path
while different flows spread (imperfectly — hash conflicts are the point
of §3.6).
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np


def ecmp_choice(flow_id: int, src: str, dst: str, n_choices: int) -> int:
    """Index of the next-hop a flow hashes onto (stable across calls)."""
    if n_choices < 1:
        raise ValueError("need at least one next-hop choice")
    if n_choices == 1:
        return 0
    digest = hashlib.md5(f"{flow_id}:{src}:{dst}".encode()).digest()
    return int.from_bytes(digest[:4], "little") % n_choices


def ecmp_choices(flow_ids: Iterable[int], src: str, dst: str, n_choices: int) -> np.ndarray:
    """:func:`ecmp_choice` of every flow id, as one uint32 array.

    Each key is hashed once and the first four digest bytes of all of
    them are read as little-endian words in one ``np.frombuffer``.
    ``n_choices`` must fit in a uint32.
    """
    if n_choices < 1:
        raise ValueError("need at least one next-hop choice")
    words = b"".join([hashlib.md5(f"{flow_id}:{src}:{dst}".encode()).digest()[:4] for flow_id in flow_ids])
    return np.frombuffer(words, dtype="<u4") % n_choices
