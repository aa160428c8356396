"""Tests for the fabric-vs-analytic validation report."""

import pytest

from repro.network import validation_report
from repro.network.validation import DEFAULT_CC_EFFICIENCY


def _report(**kw):
    kw.setdefault("n_nodes", 16)
    kw.setdefault("nodes_per_pod", 8)
    kw.setdefault("group_size", 4)
    kw.setdefault("trials", 50)
    return validation_report(**kw)


def test_report_deterministic_per_seed():
    assert _report(seed=0) == _report(seed=0)
    assert _report(seed=0) != _report(seed=1)


def test_alpha_beta_agreement_on_same_tor():
    # Same-ToR rings must reproduce the closed forms (the degeneration
    # property), so the analytic model is validated, not just compared.
    report = _report()
    assert report.alpha_beta_max_rel_error < 1e-9
    for delta in report.deltas:
        if delta.label == "same_tor":
            assert delta.fabric_ratio == pytest.approx(1.0)


def test_same_tor_speedup_and_port_split_benefit():
    report = _report()
    assert report.same_tor_speedup >= 1.0
    assert report.port_split_benefit > 1.0


def test_cross_pod_never_cheaper():
    report = _report()
    by_key = {(d.label, d.kind, d.size): d for d in report.deltas}
    for (label, kind, size), delta in by_key.items():
        if label == "cross_pod":
            near = by_key[("same_tor", kind, size)]
            assert delta.fabric_time >= near.fabric_time


def test_describe_mentions_key_numbers():
    text = _report().describe()
    assert "port-splitting benefit" in text.lower() or "port-splitting" in text
    assert "same-ToR" in text


def test_validation_rejects_degenerate_setups():
    with pytest.raises(ValueError):
        _report(group_size=1)
    with pytest.raises(ValueError):
        validation_report(n_nodes=8, nodes_per_pod=8)  # one pod: no cross-pod
    with pytest.raises(ValueError):
        _report(kinds=("broadcast",))
    with pytest.raises(ValueError):
        _report(n_nodes=9)  # cross-pod placement does not fit a 1-node second pod


def test_group_wider_than_a_pod_is_rejected_not_mislabelled():
    # Ranks 0..9 over pods of 8 would cross a pod yet be priced as the
    # "same_tor" placement, failing the alpha-beta agreement check.
    with pytest.raises(ValueError, match="same-ToR"):
        _report(group_size=10)


def test_cc_efficiency_constant_matches_collectives():
    from repro.collectives import DEFAULT_CC_EFFICIENCY as COLLECTIVES_CC

    assert DEFAULT_CC_EFFICIENCY == COLLECTIVES_CC
