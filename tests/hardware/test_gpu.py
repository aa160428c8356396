"""Unit tests for the GPU compute model."""

import math
from dataclasses import replace

import pytest

from repro.hardware import AMPERE, GPU_CATALOG, HOPPER, Gpu, scaled_spec


def test_catalog_contains_both_generations():
    assert AMPERE.name in GPU_CATALOG
    assert HOPPER.name in GPU_CATALOG
    assert HOPPER.peak_flops > AMPERE.peak_flops


def test_gemm_efficiency_increases_with_size():
    small = AMPERE.gemm_efficiency(1e9)
    large = AMPERE.gemm_efficiency(1e12)
    assert 0 < small < large < AMPERE.gemm_eff_max


def test_gemm_efficiency_saturates_below_max():
    assert AMPERE.gemm_efficiency(1e18) < AMPERE.gemm_eff_max
    assert AMPERE.gemm_efficiency(1e18) == pytest.approx(AMPERE.gemm_eff_max, rel=1e-4)


def test_gemm_efficiency_half_point():
    assert AMPERE.gemm_efficiency(AMPERE.gemm_flops_half) == pytest.approx(
        AMPERE.gemm_eff_max / 2
    )


def test_gemm_time_zero_work():
    assert AMPERE.gemm_time(0) == 0.0
    assert AMPERE.gemm_efficiency(0) == 0.0


def test_gemm_time_is_infinite_when_efficiency_underflows():
    """A fitted efficiency ceiling of 5e-324 once raised ZeroDivisionError."""
    spec = replace(AMPERE, gemm_eff_max=5e-324)
    assert spec.gemm_efficiency(1e6) == 0.0
    assert spec.gemm_time(1e6) == math.inf


def test_gemm_time_includes_launch_overhead():
    tiny = AMPERE.gemm_time(1.0)
    assert tiny > AMPERE.kernel_launch_overhead


def test_gemm_time_monotone_in_work():
    times = [AMPERE.gemm_time(f) for f in (1e9, 1e10, 1e11, 1e12)]
    assert times == sorted(times)


def test_memory_bound_time():
    t = AMPERE.memory_bound_time(AMPERE.memory_bandwidth, n_kernels=1)
    assert t == pytest.approx(1.0 + AMPERE.kernel_launch_overhead)
    with pytest.raises(ValueError):
        AMPERE.memory_bound_time(-1.0)


def test_gpu_instance_degradation():
    gpu = Gpu(spec=AMPERE, index=0)
    base = gpu.compute_time(1e12)
    gpu.degrade(0.9)
    # Only the compute term is derated; launch overhead is charged at
    # the normal rate (a slow part does not launch kernels slower).
    expected = AMPERE.gemm_compute_time(1e12) / 0.9 + AMPERE.kernel_launch_overhead
    assert gpu.compute_time(1e12) == pytest.approx(expected)
    assert gpu.compute_time(1e12) < base / 0.9  # old formula inflated overhead
    assert gpu.effective_peak == pytest.approx(AMPERE.peak_flops * 0.9)


def test_gpu_compute_time_healthy_is_exact_gemm_time():
    """At speed_factor == 1.0 the degradation path is a no-op, bit for bit."""
    gpu = Gpu(spec=AMPERE, index=0)
    for flops in (0.0, 1.0, 1e9, 1e12, 3.7e13):
        assert gpu.compute_time(flops) == AMPERE.gemm_time(flops)


def test_gpu_degrade_validation():
    gpu = Gpu(spec=AMPERE, index=0)
    with pytest.raises(ValueError):
        gpu.degrade(0.0)
    with pytest.raises(ValueError):
        gpu.degrade(1.5)


def test_scaled_spec():
    slow = scaled_spec(AMPERE, 0.5)
    assert slow.peak_flops == pytest.approx(AMPERE.peak_flops * 0.5)
    assert slow.name != AMPERE.name


def test_scaled_spec_keeps_efficiency_knee_invariant():
    """Pure clock derating must not move the efficiency curve's knee.

    In ideal-time units (kernel_flops / peak_flops) the saturating curve
    is invariant: a kernel taking the same ideal time on the derated part
    achieves the same efficiency fraction.
    """
    for s in (0.25, 0.5, 0.9):
        slow = scaled_spec(AMPERE, s)
        # Knee stays at the same fraction of peak.
        assert slow.gemm_flops_half / slow.peak_flops == pytest.approx(
            AMPERE.gemm_flops_half / AMPERE.peak_flops
        )
        for f in (1e9, 28e9, 1e12):
            assert slow.gemm_efficiency(s * f) == pytest.approx(
                AMPERE.gemm_efficiency(f)
            )
            # Consequence: compute time scales exactly by 1/s at matched
            # ideal-time workloads.
            assert slow.gemm_compute_time(s * f) == pytest.approx(
                AMPERE.gemm_compute_time(f)
            )
    with pytest.raises(ValueError):
        scaled_spec(AMPERE, 0.0)


def test_spec_validation():
    import dataclasses

    with pytest.raises(ValueError):
        dataclasses.replace(AMPERE, peak_flops=-1)
    with pytest.raises(ValueError):
        dataclasses.replace(AMPERE, gemm_eff_max=1.5)
