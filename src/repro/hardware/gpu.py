"""GPU compute model.

A :class:`GpuSpec` captures the datasheet characteristics that matter for
training-time estimation (peak tensor FLOP/s, HBM size and bandwidth, and
kernel-launch overhead), plus an *efficiency curve* for dense GEMMs.

Real GEMM efficiency depends on problem size: small, skinny GEMMs (as
produced by tensor-parallel sharding) achieve a lower fraction of peak
than large square ones.  We model this with a saturating curve

    eff(f) = eff_max * f / (f + f_half)

where ``f`` is the FLOPs of a single kernel on one GPU and ``f_half`` the
work at which half of ``eff_max`` is reached.  The catalog constants below
are hand-anchored to the paper's 256-GPU baseline (provenance table in
``docs/calibration.md``); :mod:`repro.calibration` fits them against the
published Megatron-LM and MegaScale profiles and can override them per
run via a :class:`~repro.calibration.CalibratedProfile` without editing
this file (see docs/api.md, "Calibration & validation").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from ..core.units import GFLOPS, GiB, MICROSECOND, TB, TFLOPS


@dataclass(frozen=True)
class GpuSpec:
    """Datasheet + calibration constants for one GPU model."""

    name: str
    peak_flops: float  # dense bf16 tensor-core FLOP/s
    memory_bytes: float  # HBM capacity
    memory_bandwidth: float  # HBM bytes/s
    gemm_eff_max: float  # asymptotic GEMM efficiency (fraction of peak)
    gemm_flops_half: float  # kernel FLOPs at which eff = eff_max / 2
    kernel_launch_overhead: float  # seconds per kernel launch
    nvlink_bandwidth: float  # per-direction NVLink bytes/s per GPU
    pcie_bandwidth: float  # host <-> device bytes/s

    def __post_init__(self) -> None:
        if self.peak_flops <= 0:
            raise ValueError("peak_flops must be positive")
        if not 0 < self.gemm_eff_max <= 1:
            raise ValueError("gemm_eff_max must be in (0, 1]")

    def gemm_efficiency(self, kernel_flops: float) -> float:
        """Fraction of peak achieved by one dense GEMM of ``kernel_flops``."""
        if kernel_flops <= 0:
            return 0.0
        return self.gemm_eff_max * kernel_flops / (kernel_flops + self.gemm_flops_half)

    def gemm_compute_time(self, kernel_flops: float) -> float:
        """Wall time of the compute portion of one dense GEMM kernel.

        Excludes the launch overhead, so degradation models can derate
        the two terms independently (a slow part executes FLOPs slower;
        it does not launch kernels slower).
        """
        if kernel_flops <= 0:
            return 0.0
        eff = self.gemm_efficiency(kernel_flops)
        if eff == 0.0:  # a tiny fitted ceiling underflows: the GEMM never ends
            return math.inf
        return kernel_flops / (self.peak_flops * eff)

    def gemm_time(self, kernel_flops: float) -> float:
        """Wall time for one dense GEMM kernel, including launch overhead."""
        if kernel_flops <= 0:
            return 0.0
        return self.gemm_compute_time(kernel_flops) + self.kernel_launch_overhead

    def memory_bound_time(self, bytes_moved: float, n_kernels: int = 1) -> float:
        """Wall time for memory-bandwidth-bound elementwise work."""
        if bytes_moved < 0:
            raise ValueError("bytes_moved must be non-negative")
        return bytes_moved / self.memory_bandwidth + n_kernels * self.kernel_launch_overhead


@dataclass
class Gpu:
    """A GPU instance in the cluster: a spec plus mutable health state.

    ``speed_factor`` < 1 models a degraded part (the paper's computational
    stragglers ran ~10% slow); ``healthy = False`` marks a device that
    fails NCCL operations (the probabilistic blocking GPUs of §5.2).
    """

    spec: GpuSpec
    index: int
    speed_factor: float = 1.0
    healthy: bool = True
    counters: Dict[str, float] = field(default_factory=dict)

    def degrade(self, speed_factor: float) -> None:
        if not 0 < speed_factor <= 1:
            raise ValueError("speed_factor must be in (0, 1]")
        self.speed_factor = speed_factor


# Catalog entries.  The Ampere entry approximates the paper's production
# part (A100-SXM-80G class); the Hopper entry models the newer clusters the
# paper mentions building.  gemm_eff_max / gemm_flops_half are calibration
# constants, not datasheet values — see DESIGN.md.
AMPERE: GpuSpec = GpuSpec(
    name="ampere-80g",
    peak_flops=312 * TFLOPS,
    memory_bytes=80 * GiB,
    memory_bandwidth=2.0 * TB,
    gemm_eff_max=0.78,
    gemm_flops_half=28 * GFLOPS,
    kernel_launch_overhead=4.5 * MICROSECOND,
    nvlink_bandwidth=250e9,  # effective per-direction collective bandwidth
    pcie_bandwidth=25e9,  # PCIe gen4 x16 effective
)

HOPPER: GpuSpec = GpuSpec(
    name="hopper-80g",
    peak_flops=989 * TFLOPS,
    memory_bytes=80 * GiB,
    memory_bandwidth=3.35 * TB,
    gemm_eff_max=0.75,
    gemm_flops_half=90 * GFLOPS,
    kernel_launch_overhead=4.0 * MICROSECOND,
    nvlink_bandwidth=420e9,
    pcie_bandwidth=55e9,
)

GPU_CATALOG: Dict[str, GpuSpec] = {spec.name: spec for spec in (AMPERE, HOPPER)}
