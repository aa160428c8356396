"""Collective communication: cost primitives, fabric-aware groups, init."""

from .. import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "fabric": (
        "DEFAULT_PFC_PENALTY",
        "FabricCostModel",
        "PfcPenaltyModel",
        "RoutedStepCost",
        "fabric_collective_cost",
        "ring_steps",
        "route_step",
    ),
    "groups": ("DEFAULT_CC_EFFICIENCY", "GroupCommModel", "build_comm_model"),
    "hierarchical": ("HierarchicalCost", "hierarchical_all_reduce"),
    "init": ("count_groups", "group_init_time", "paper_sequence"),
    "kvstore": (
        "REDIS_STORE",
        "TCP_STORE",
        "SimulatedKvServer",
        "StoreModel",
        "simulated_barrier_time",
    ),
    "primitives": (
        "COST_BACKENDS",
        "point_to_point",
        "ring_all_gather",
        "ring_all_reduce",
        "ring_reduce_scatter",
        "tree_broadcast",
        "validate_backend",
    ),
})
