"""Tests for congestion control, PFC, link flapping and retransmission."""

import pytest

from repro.network import (
    ADAPTIVE_NIC,
    DEFAULT_NCCL,
    TUNED_NCCL,
    CommunicationError,
    PfcState,
    RetransmitPolicy,
    flap_downtime_in_window,
    flap_statistics,
    simulate_bottleneck,
)
from repro.network.flapping import reduced_flap_rate


# -- PFC -----------------------------------------------------------------


def test_pfc_hysteresis():
    pfc = PfcState(xoff_threshold=100.0, xon_threshold=50.0)
    assert not pfc.update(80.0, now=0.0)
    assert pfc.update(150.0, now=1.0)  # crossed XOFF
    assert pfc.update(70.0, now=2.0)  # still above XON -> stays paused
    assert not pfc.update(40.0, now=3.0)  # below XON -> resume
    assert pfc.total_pause_time() == pytest.approx(2.0)
    assert pfc.pause_fraction(10.0) == pytest.approx(0.2)


def test_pfc_finish_closes_open_interval():
    pfc = PfcState(xoff_threshold=10.0, xon_threshold=5.0)
    pfc.update(20.0, now=1.0)
    pfc.finish(now=4.0)
    assert pfc.total_pause_time() == pytest.approx(3.0)


def test_pfc_validation():
    with pytest.raises(ValueError):
        PfcState(xoff_threshold=10.0, xon_threshold=10.0)
    pfc = PfcState(xoff_threshold=10.0, xon_threshold=1.0)
    with pytest.raises(ValueError):
        pfc.pause_fraction(0.0)


# -- congestion control ----------------------------------------------------


def test_all_algorithms_achieve_reasonable_goodput_uncongested():
    for algo in ("dcqcn", "swift", "megascale"):
        result = simulate_bottleneck(algo, n_flows=2, capacity=100e9, line_rate=25e9)
        assert result.goodput_fraction > 0.4, algo


def test_megascale_beats_dcqcn_under_incast():
    # §3.6: the hybrid algorithm sustains higher throughput with less PFC
    # under heavy incast than default DCQCN.
    dcqcn = simulate_bottleneck("dcqcn", n_flows=16)
    mega = simulate_bottleneck("megascale", n_flows=16)
    assert mega.goodput_fraction >= dcqcn.goodput_fraction
    assert mega.pfc_pause_fraction <= dcqcn.pfc_pause_fraction
    assert mega.mean_queue_bytes < dcqcn.mean_queue_bytes


def test_megascale_protects_hol_victims():
    dcqcn = simulate_bottleneck("dcqcn", n_flows=16)
    mega = simulate_bottleneck("megascale", n_flows=16)
    assert mega.hol_victim_throughput >= dcqcn.hol_victim_throughput


def test_megascale_keeps_queue_below_pfc():
    result = simulate_bottleneck("megascale", n_flows=16)
    assert result.pfc_pause_fraction == pytest.approx(0.0, abs=0.01)


def test_swift_bounds_queue_depth():
    swift = simulate_bottleneck("swift", n_flows=16)
    dcqcn = simulate_bottleneck("dcqcn", n_flows=16)
    assert swift.mean_queue_bytes < dcqcn.mean_queue_bytes


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        simulate_bottleneck("bbr", n_flows=4)
    with pytest.raises(ValueError):
        simulate_bottleneck("dcqcn", n_flows=0)


# -- link flapping -----------------------------------------------------------


def test_flap_downtime_window():
    from repro.network import FlapEvent

    events = [FlapEvent(1.0, 3.0), FlapEvent(10.0, 11.0)]
    assert flap_downtime_in_window(events, 0.0, 20.0) == pytest.approx(3.0)
    assert flap_downtime_in_window(events, 2.0, 10.5) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        flap_downtime_in_window(events, 5.0, 1.0)


def test_flap_statistics_empty():
    assert flap_statistics([]) == (0, 0.0)


def test_quality_hardening_reduces_flap_rate():
    assert reduced_flap_rate(60.0, 10.0) == pytest.approx(600.0)
    with pytest.raises(ValueError):
        reduced_flap_rate(60.0, 0.5)


# -- retransmission --------------------------------------------------------


def test_default_nccl_dies_on_multi_second_flap():
    # §6.3 lesson 1: default timeout errors out before the link is back.
    assert not DEFAULT_NCCL.survives(5.0)
    with pytest.raises(CommunicationError):
        DEFAULT_NCCL.recovery_time(5.0)


def test_tuned_timeout_survives_flap():
    assert TUNED_NCCL.survives(5.0)
    assert TUNED_NCCL.recovery_time(5.0) >= 5.0


def test_adaptive_retransmission_recovers_faster():
    # §3.6: adap_retrans retries on a short interval for brief flaps.
    flap = 0.4
    assert ADAPTIVE_NIC.recovery_time(flap) < TUNED_NCCL.recovery_time(flap)


def test_recovery_time_is_first_retry_after_link_up():
    policy = RetransmitPolicy(timeout=1.0, retries=5)
    # Retries at 1, 3, 7, 15, 23 (capped backoff); flap of 4s -> recover at 7.
    assert policy.recovery_time(4.0) == pytest.approx(7.0)
    assert policy.recovery_time(0.0) == pytest.approx(1.0)


def test_policy_validation():
    with pytest.raises(ValueError):
        RetransmitPolicy(timeout=0, retries=1)
    with pytest.raises(ValueError):
        RetransmitPolicy(timeout=1.0, retries=0)
    with pytest.raises(ValueError):
        RetransmitPolicy(timeout=1.0, retries=1, adaptive_interval=0)
    with pytest.raises(ValueError):
        RetransmitPolicy(timeout=1.0, retries=1).recovery_time(-1.0)
