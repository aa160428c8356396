"""The pessimistic upper bound on one iteration: the ceiling that the
admissible floor :meth:`repro.training.iteration.IterationEngine.analytic_bounds`
is checked against.

The plan search reads only the floor.  The tests in
``tests/parallel/test_search.py`` also need a ceiling: the bracket test
holds ``floor <= simulate <= ceiling`` on every grid candidate, and the
dominance property counts, for each candidate the search prices, the
rivals whose ceiling lies below its floor.

At any instant before the pipeline phase ends, some stage is computing
or a p2p transfer is in flight, so the makespan never exceeds every
stage's serial work, plus the sender-side block of every actual send,
plus every dependency edge's transfer time.  DP exposure is capped at
the total collective time (everything spills).  The rest of the step
(data stall, optimizer) is priced exactly, as in the floor.  A routed
price has no closed-form ceiling, so on the fabric backend the bound
is ``math.inf``.
"""

from __future__ import annotations

import math

from repro.training.iteration import IterationEngine


def upper_bound(engine: IterationEngine, global_batch: int) -> float:
    """Seconds that ``engine.simulate(global_batch)`` cannot exceed, at
    uniform stage speeds and no perturbation."""
    if engine.backend == "fabric":
        return math.inf
    plan = engine.plan
    m = plan.n_microbatches(global_batch)
    p, v = plan.pp, plan.vpp
    p2p = engine.p2p_time if p > 1 else 0.0
    sends = sum(engine.pp_send_counts(m)) if p > 1 else 0
    logits = engine.logits_fwd + engine.logits_bwd
    stage_work = m * v * (engine.f_chunk + engine.b_chunk)
    total_busy = p * stage_work + m * engine.embed_extra + m * logits + sends * p2p
    pipeline = total_busy + 2.0 * m * v * p * p2p
    data, dp, optimizer = engine._dp_phase_times(global_batch)
    return data.exposed_stall + optimizer + pipeline + dp.total_comm
