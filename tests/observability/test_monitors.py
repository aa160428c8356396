"""Tests for two-tier monitoring and hierarchical collectives."""

import pytest

from repro.collectives.hierarchical import hierarchical_all_reduce
from repro.network import FlapEvent, simulate_bottleneck
from repro.observability.monitors import MillisecondMonitor, SecondLevelMonitor


# -- second-level monitor ------------------------------------------------------


def test_flap_monitor_quiet_link_ok():
    monitor = SecondLevelMonitor()
    finding = monitor.check_flapping([], window_hours=1.0, now=3600.0)
    assert finding.severity == "ok"


def test_flap_monitor_warns_then_escalates():
    monitor = SecondLevelMonitor(flap_warning_per_hour=2.0)
    one = [FlapEvent(3500.0, 3502.0)]
    assert monitor.check_flapping(one, 1.0, now=3600.0).severity == "warning"
    storm = [FlapEvent(3000.0 + i * 100, 3001.0 + i * 100) for i in range(5)]
    finding = monitor.check_flapping(storm, 1.0, now=3600.0)
    assert finding.severity == "critical"
    assert "AOC" in finding.message


def test_flap_monitor_validation():
    with pytest.raises(ValueError):
        SecondLevelMonitor().check_flapping([], window_hours=0)


# -- millisecond monitor --------------------------------------------------------


def test_ms_monitor_at_physical_limit():
    monitor = MillisecondMonitor(link_rate=25e9)
    for t in range(10):
        monitor.record(t * 1e-3, 24e9)
    assert monitor.at_physical_limit()
    assert not monitor.congested()
    assert monitor.verdict().severity == "ok"


def test_ms_monitor_detects_congestion():
    monitor = MillisecondMonitor(link_rate=25e9)
    for t in range(10):
        monitor.record(t * 1e-3, 10e9)  # 40% of line rate
    assert monitor.congested()
    assert "congestion" in monitor.verdict().message


def test_ms_monitor_windowing():
    monitor = MillisecondMonitor(link_rate=10e9)
    for t in range(10):
        monitor.record(t * 1e-3, 1e9)
    for t in range(10, 20):
        monitor.record(t * 1e-3, 9.5e9)
    assert monitor.at_physical_limit(window=10)
    assert not monitor.at_physical_limit()


def test_ms_monitor_utilization_window_zero_means_all_samples():
    # Regression: window=0 used to slice samples[-0:] on an implicit
    # truthiness check and silently behave like "all", while negative
    # windows sliced from the wrong end.  Both are now explicit.
    monitor = MillisecondMonitor(link_rate=10e9)
    for t in range(10):
        monitor.record(t * 1e-3, 5e9)
    for t in range(10, 20):
        monitor.record(t * 1e-3, 10e9)
    assert monitor.utilization(window=0) == monitor.utilization()
    assert monitor.utilization(window=0) == pytest.approx(0.75)
    assert monitor.utilization(window=10) == pytest.approx(1.0)


def test_ms_monitor_utilization_rejects_negative_window():
    monitor = MillisecondMonitor(link_rate=10e9)
    monitor.record(0.0, 5e9)
    with pytest.raises(ValueError, match="window"):
        monitor.utilization(window=-1)
    with pytest.raises(ValueError, match="window"):
        monitor.at_physical_limit(window=-5)


def test_ms_monitor_validation():
    with pytest.raises(ValueError):
        MillisecondMonitor(link_rate=0)
    monitor = MillisecondMonitor(link_rate=1e9)
    with pytest.raises(ValueError):
        monitor.record(0.0, -1.0)
    assert monitor.verdict().severity == "warning"  # no samples


# -- hierarchical collectives -----------------------------------------------------


def test_hierarchical_breakdown_sums():
    cost = hierarchical_all_reduce(1e9, n_nodes=16, gpus_per_node=8,
                                   intra_bandwidth=250e9, inter_bandwidth=22.5e9)
    assert cost.total == pytest.approx(
        cost.intra_reduce + cost.inter_phase + cost.intra_broadcast
    )
    assert cost.inter_phase > cost.intra_reduce  # network dominates


def test_single_node_degenerates_to_nvlink_only():
    cost = hierarchical_all_reduce(1e9, n_nodes=1, gpus_per_node=8,
                                   intra_bandwidth=250e9, inter_bandwidth=22.5e9)
    assert cost.inter_phase == 0.0
    assert cost.total > 0


def test_hierarchical_validation():
    with pytest.raises(ValueError):
        hierarchical_all_reduce(1e9, n_nodes=0, gpus_per_node=8,
                                intra_bandwidth=1e9, inter_bandwidth=1e9)
    with pytest.raises(ValueError):
        hierarchical_all_reduce(-1, n_nodes=1, gpus_per_node=8,
                                intra_bandwidth=1e9, inter_bandwidth=1e9)
