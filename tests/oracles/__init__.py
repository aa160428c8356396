"""Test oracles: the original, obviously-correct implementations that the
optimized production paths are held to.

* :mod:`tests.oracles.flow` — the per-flow max-min water-fill (§3.6
  bandwidth sharing) behind :func:`repro.network.flow.max_min_fair_rates`.
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
"""
