"""Unit tests for the GPU compute model."""

import math
from dataclasses import replace

import pytest

from repro.hardware import AMPERE, GPU_CATALOG, HOPPER, Gpu


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
    assert gpu.speed_factor == 1.0
    gpu.degrade(0.9)
    assert gpu.speed_factor == 0.9


def test_gpu_degrade_validation():
    gpu = Gpu(spec=AMPERE, index=0)
    with pytest.raises(ValueError):
        gpu.degrade(0.0)
    with pytest.raises(ValueError):
        gpu.degrade(1.5)


def test_spec_validation():
    import dataclasses

    with pytest.raises(ValueError):
        dataclasses.replace(AMPERE, peak_flops=-1)
    with pytest.raises(ValueError):
        dataclasses.replace(AMPERE, gemm_eff_max=1.5)
