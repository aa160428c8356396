"""Test oracles: the original, obviously-correct implementations that the
optimized production paths are held to.

* :mod:`tests.oracles.flow` — the per-flow max-min water-fill (§3.6
  bandwidth sharing) behind :func:`repro.network.flow.max_min_fair_rates`.
* :mod:`tests.oracles.ecmp` — the per-trial ECMP conflict model (§3.6
  hash conflicts: a dict of uplink buckets per trial) behind
  :func:`repro.network.ecmp.expected_conflict_stats`'s array pass.
* :mod:`tests.oracles.fabric` — the ``Link``-list ring router and
  ``Link``-keyed step pricer behind
  :func:`repro.collectives.fabric.ring_route` and
  :func:`~repro.collectives.fabric.price_route`.
* :mod:`tests.oracles.fault_sampler` — the per-event fault sampler (§4
  failure model) behind :meth:`repro.fault.faults.FaultInjector.sample`.
* :mod:`tests.oracles.groups` — the per-pair ring scan behind
  :meth:`repro.collectives.groups.GroupCommModel.ring_bandwidth`.
* :mod:`tests.oracles.pipeline` — the stage-polling task loop (§3.1
  interleaved 1F1B) behind
  :meth:`repro.training.iteration.IterationEngine.pipeline_makespan`.
* :mod:`tests.oracles.elastic` — the shrink-plan enumeration and
  whole-host walk (§4 elastic recovery) behind
  :func:`repro.fault.elastic.shrunk_dp`.
* :mod:`tests.oracles.live_driver` — the event-level heartbeat
  mechanism (§4.1–4.3 daemons, detector rules, self-check battery,
  eviction to spares) behind :func:`repro.fault.detection_latency`.
* :mod:`tests.oracles.zero2` — single-process ADAM training and the
  replica checks behind :class:`repro.optim.distributed.Zero2Trainer`.
* :mod:`tests.oracles.gates` — the smoke job's scenario gates over
  :func:`repro.scheduler.run_policy` and
  :func:`repro.observability.diagnosis.run_scenario`.
* :mod:`tests.oracles.placement` — the scan-based placement queries
  (pods of a job, pod load, contention, alive and claimable hosts)
  behind :class:`repro.scheduler.placement.PlacementMap`'s maintained
  counts.
* :mod:`tests.oracles.bounds` — the pessimistic upper bound on one
  iteration, the ceiling that the plan search's admissible floor
  :meth:`repro.training.iteration.IterationEngine.analytic_bounds` is
  bracketed and dominance-checked against.
* :mod:`tests.oracles.search` — the eager plan-search ladder (every
  candidate floored in full up front, then sorted) behind
  :func:`repro.parallel.search.search_plans`'s lazily filled heap.
"""
