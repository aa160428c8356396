"""Deterministic ECMP hashing.

Real switches hash the packet 5-tuple onto the set of equal-cost next
hops.  We model a flow's 5-tuple with an integer ``flow_id`` and hash it
together with the hop identity, so the same flow takes a consistent path
while different flows spread (imperfectly — hash conflicts are the point
of §3.6).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence


def ecmp_choice(flow_id: int, src: str, dst: str, n_choices: int) -> int:
    """Index of the next-hop a flow hashes onto (stable across calls)."""
    if n_choices < 1:
        raise ValueError("need at least one next-hop choice")
    if n_choices == 1:
        return 0
    digest = hashlib.md5(f"{flow_id}:{src}:{dst}".encode()).digest()
    return int.from_bytes(digest[:4], "little") % n_choices


def hash_flows_onto_uplinks(flow_ids: Sequence[int], src: str, dst: str, n_uplinks: int) -> Dict[int, List[int]]:
    """Map uplink index -> flows hashed onto it."""
    buckets: Dict[int, List[int]] = {i: [] for i in range(n_uplinks)}
    for fid in flow_ids:
        buckets[ecmp_choice(fid, src, dst, n_uplinks)].append(fid)
    return buckets
