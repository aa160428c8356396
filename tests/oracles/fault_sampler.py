"""The per-event fault sampler oracle.

One Python draw per event, in the canonical count-first phase order the
production sampler batches into numpy arrays: the node stream (Poisson
count, then every time, every kind, every victim), then each domain
stream of a :class:`~repro.fault.domains.CorrelatedFaultInjector` in
declaration order (count, times, domain indices).  Both consume the same
generator stream, so they return the same events.

:func:`sample` has the signature of
:meth:`repro.fault.faults.FaultInjector.sample`, so a test can swap it
in with ``monkeypatch.setattr(FaultInjector, "sample", sample)``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.fault.faults import FaultEvent, FaultInjector, event_order


def sample(injector: FaultInjector, horizon: float) -> List[FaultEvent]:
    """Poisson arrivals over ``[0, horizon)`` seconds, drawn event by event."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    events: List[FaultEvent] = []
    # The node stream's count is drawn at cluster_rate_per_second(), which
    # the correlated injector overrides to include its domain rates.
    rate = injector.cluster_rate_per_second()
    if rate > 0:
        n = int(injector.rng.poisson(rate * horizon))
        cdf = injector._kind_cdf()
        last = len(injector.catalog) - 1
        times = [horizon * float(injector.rng.random()) for _ in range(n)]
        kinds = [
            min(int(np.searchsorted(cdf, injector.rng.random(), side="right")), last)
            for _ in range(n)
        ]
        nodes = [int(injector.rng.integers(0, injector.n_nodes)) for _ in range(n)]
        events.extend(
            FaultEvent(time=times[i], kind=injector.catalog[kinds[i]], node_index=nodes[i])
            for i in range(n)
        )
    for domain in getattr(injector, "domains", ()):
        rate = injector.domain_rate_per_second(domain)
        if rate <= 0:
            continue
        n_domains = injector.topology.n_domains(domain.scope)
        n = int(injector.rng.poisson(rate * horizon))
        times = [horizon * float(injector.rng.random()) for _ in range(n)]
        indices = [int(injector.rng.integers(0, n_domains)) for _ in range(n)]
        events.extend(
            injector._domain_event(domain, times[i], indices[i]) for i in range(n)
        )
    events.sort(key=event_order)
    return events
