"""Collective communication: cost primitives, fabric-aware groups, init."""

from .fabric import (
    DEFAULT_PFC_PENALTY,
    FabricCollectiveCost,
    FabricCostModel,
    PfcPenaltyModel,
    RoutedStepCost,
    fabric_collective_cost,
    ring_flows,
    ring_steps,
    routed_step_cost,
)
from .groups import DEFAULT_CC_EFFICIENCY, GroupCommModel, build_comm_model
from .hierarchical import HierarchicalCost, hierarchical_all_reduce
from .init import (
    InitBreakdown,
    count_groups,
    group_init_time,
    paper_sequence,
)
from .kvstore import (
    REDIS_STORE,
    TCP_STORE,
    SimulatedKvServer,
    StoreModel,
    simulated_barrier_time,
)
from .primitives import (
    COST_BACKENDS,
    INTER_NODE_LATENCY,
    point_to_point,
    ring_all_gather,
    ring_all_reduce,
    ring_reduce_scatter,
    tree_broadcast,
    validate_backend,
)

__all__ = [
    "COST_BACKENDS",
    "DEFAULT_CC_EFFICIENCY",
    "DEFAULT_PFC_PENALTY",
    "FabricCollectiveCost",
    "FabricCostModel",
    "GroupCommModel",
    "INTER_NODE_LATENCY",
    "PfcPenaltyModel",
    "RoutedStepCost",
    "fabric_collective_cost",
    "ring_flows",
    "ring_steps",
    "routed_step_cost",
    "validate_backend",
    "HierarchicalCost",
    "hierarchical_all_reduce",
    "InitBreakdown",
    "REDIS_STORE",
    "SimulatedKvServer",
    "StoreModel",
    "TCP_STORE",
    "build_comm_model",
    "count_groups",
    "group_init_time",
    "paper_sequence",
    "point_to_point",
    "ring_all_gather",
    "ring_all_reduce",
    "ring_reduce_scatter",
    "simulated_barrier_time",
    "tree_broadcast",
]
