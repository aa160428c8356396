"""Datacenter network substrate: CLOS fabric, ECMP, congestion, PFC, flaps."""

from .congestion import (
    CC_ALGORITHMS,
    CongestionResult,
    DcqcnControl,
    MegaScaleControl,
    SwiftControl,
    simulate_bottleneck,
)
from .ecmp import ConflictStats, conflict_stats, expected_conflict_stats, port_split_benefit
from .flapping import FlapEvent, flap_downtime_in_window
from .flow import Flow, max_min_fair_rates
from .link import Link
from .pfc import PfcState
from .routing import ecmp_choice, hash_flows_onto_uplinks
from .switch import TOMAHAWK4, Switch, SwitchSpec, agg_role, spine_role, tor_role
from .topology import ClosFabric, shared_fabric
from .transfers import Transfer, TransferEngine
from .transport import (
    ADAPTIVE_NIC,
    DEFAULT_NCCL,
    TUNED_NCCL,
    CommunicationError,
    RetransmitPolicy,
)
from .validation import PlacementDelta, ValidationReport, validation_report

__all__ = [
    "ADAPTIVE_NIC",
    "CC_ALGORITHMS",
    "ClosFabric",
    "CommunicationError",
    "ConflictStats",
    "CongestionResult",
    "DEFAULT_NCCL",
    "DcqcnControl",
    "FlapEvent",
    "Flow",
    "Link",
    "MegaScaleControl",
    "PfcState",
    "PlacementDelta",
    "RetransmitPolicy",
    "SwiftControl",
    "Switch",
    "SwitchSpec",
    "TOMAHAWK4",
    "TUNED_NCCL",
    "Transfer",
    "TransferEngine",
    "ValidationReport",
    "agg_role",
    "conflict_stats",
    "ecmp_choice",
    "expected_conflict_stats",
    "flap_downtime_in_window",
    "hash_flows_onto_uplinks",
    "max_min_fair_rates",
    "port_split_benefit",
    "shared_fabric",
    "simulate_bottleneck",
    "spine_role",
    "tor_role",
    "validation_report",
]
