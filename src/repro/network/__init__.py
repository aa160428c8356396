"""Datacenter network substrate: CLOS fabric, ECMP, congestion, PFC, flaps."""

from .congestion import (
    CC_ALGORITHMS,
    CongestionResult,
    DcqcnControl,
    MegaScaleControl,
    SwiftControl,
    simulate_bottleneck,
)
from .ecmp import ConflictStats, expected_conflict_stats, port_split_benefit
from .flapping import FlapEvent, flap_downtime_in_window
from .flow import Flow, max_min_fair_rates
from .link import Link
from .pfc import PfcState
from .routing import ecmp_choice, ecmp_choices
from .switch import TOMAHAWK4, SwitchSpec, agg_role, tor_role
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
    "SwitchSpec",
    "TOMAHAWK4",
    "TUNED_NCCL",
    "Transfer",
    "TransferEngine",
    "ValidationReport",
    "agg_role",
    "ecmp_choice",
    "ecmp_choices",
    "expected_conflict_stats",
    "flap_downtime_in_window",
    "max_min_fair_rates",
    "port_split_benefit",
    "shared_fabric",
    "simulate_bottleneck",
    "tor_role",
    "validation_report",
]
