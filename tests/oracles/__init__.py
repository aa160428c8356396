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
"""
