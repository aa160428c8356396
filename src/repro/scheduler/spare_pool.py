"""Spare-pool arbitration: who gets the last spare when a rack dies.

A correlated incident (one rack-PSU blast radius) can injure several
co-located jobs at once; each files a claim for replacement hosts against
the *same* finite pool.  The broker resolves every claim batch
deterministically:

* ``policy="priority"`` — claims are served in (priority desc, weight
  desc, submission order) order: the arbitrating scheduler's policy.
* ``policy="fifo"`` — claims are served strictly in submission order,
  blind to priority and weight: the naive baseline the multi-tenant
  chaos scenario measures against.

The broker never blocks and never round-robins nondeterministically —
given the same claim batch it always produces the same grants, so a seed
fully determines the arbitration history.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Dict, List, Sequence

ARBITRATION_POLICIES = ("priority", "fifo")


@dataclass(frozen=True)
class SpareClaim:
    """One job's demand for replacement hosts in one incident."""

    job: str
    needed: int
    priority: int = 0
    weight: float = 1.0
    seq: int = 0  # submission order within the batch (FIFO key)

    def __post_init__(self) -> None:
        if self.needed < 1:
            raise ValueError("a claim must ask for at least one node")
        if self.weight <= 0:
            raise ValueError("claim weight must be positive")


@dataclass(frozen=True)
class SpareGrant:
    """The broker's answer to one claim (possibly partial)."""

    claim: SpareClaim
    granted: int

    @property
    def shortfall(self) -> int:
        return self.claim.needed - self.granted

    @property
    def denied(self) -> bool:
        return self.granted < self.claim.needed


@dataclass
class SparePool:
    """Deterministic broker over a finite standby pool of ``spares`` hosts.

    The pool is a count, and this broker holds it: it decides *who*
    consumes the standby hosts and keeps the per-job ledger that the
    goodput report and the contention tests audit.  :meth:`record` is the
    one writer of ``available``, so ``sum(consumed_by) + available``
    always equals ``initial``.
    """

    spares: InitVar[int]
    policy: str = "priority"
    consumed_by: Dict[str, int] = field(default_factory=dict)
    ledger: List[SpareGrant] = field(default_factory=list)
    initial: int = field(init=False)
    available: int = field(init=False)

    def __post_init__(self, spares: int) -> None:
        if self.policy not in ARBITRATION_POLICIES:
            raise ValueError(
                f"unknown arbitration policy {self.policy!r}; "
                f"expected one of {ARBITRATION_POLICIES}"
            )
        if spares < 0:
            raise ValueError("spares must be non-negative")
        self.initial = self.available = spares

    def order(self, claims: Sequence[SpareClaim]) -> List[SpareClaim]:
        """The deterministic service order for one claim batch."""
        if self.policy == "fifo":
            return sorted(claims, key=lambda c: c.seq)
        return sorted(claims, key=lambda c: (-c.priority, -c.weight, c.seq))

    def arbitrate(self, claims: Sequence[SpareClaim]) -> List[SpareGrant]:
        """Split the available pool over a batch of concurrent claims.

        Pure decision — nothing is consumed here.  Grants come back in
        service order; partial grants happen when the pool runs dry
        mid-claim (the loser's shortfall goes down the preempt/shrink
        ladder, never to a blocking wait).
        """
        grants: List[SpareGrant] = []
        remaining = self.available
        for claim in self.order(claims):
            granted = min(remaining, claim.needed)
            remaining -= granted
            grant = SpareGrant(claim=claim, granted=granted)
            grants.append(grant)
            self.ledger.append(grant)
        return grants

    def record(self, job: str, consumed: int) -> None:
        """Take ``consumed`` standby hosts from the pool for ``job``."""
        if consumed < 0:
            raise ValueError("cannot consume a negative number of spares")
        if consumed > self.available:
            raise ValueError(
                f"{job!r} takes {consumed} spares; only {self.available} left"
            )
        if consumed:
            self.consumed_by[job] = self.consumed_by.get(job, 0) + consumed
            self.available -= consumed

    def consumed(self) -> int:
        return sum(self.consumed_by.values())

    def consistent(self) -> bool:
        """Ledger invariant: initial == consumed + still available."""
        return self.initial == self.consumed() + self.available
