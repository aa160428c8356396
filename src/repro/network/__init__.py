"""Datacenter network substrate: CLOS fabric, ECMP, congestion, PFC, flaps."""

from .. import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "congestion": ("simulate_bottleneck",),
    "ecmp": ("ConflictStats", "expected_conflict_stats", "port_split_benefit"),
    "flapping": ("FlapEvent", "flap_downtime_in_window"),
    "flow": ("Flow", "max_min_fair_rates"),
    "link": ("Link",),
    "pfc": ("PfcState",),
    "routing": ("ecmp_choice", "ecmp_choices"),
    "switch": ("TOMAHAWK4", "agg_role", "tor_role"),
    "topology": ("ClosFabric", "shared_fabric"),
    "transfers": ("TransferEngine",),
    "transport": (
        "ADAPTIVE_NIC", "DEFAULT_NCCL", "TUNED_NCCL", "CommunicationError", "RetransmitPolicy",
    ),
    "validation": ("validation_report",),
})
