"""3D parallelism plan: DP x PP x TP (+ sequence parallelism, ZeRO).

Rank layout follows the paper's §2: tensor parallelism varies fastest (so
TP groups stay inside one 8-GPU node), then **data parallelism before
pipeline parallelism** — building DP groups over nearby nodes mitigates
cross-minipod traffic for the bandwidth-hungry DP collectives:

    rank = pp_rank * (dp * tp) + dp_rank * tp + tp_rank
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple


@dataclass(frozen=True)
class ParallelPlan:
    """A complete parallelization strategy for one training job."""

    dp: int  # data-parallel ways
    tp: int  # tensor-parallel ways
    pp: int  # pipeline stages
    vpp: int = 1  # virtual pipeline (interleaving) chunks per stage
    micro_batch: int = 1  # sequences per micro-batch
    sequence_parallel: bool = True
    zero_stage: int = 2
    dp_before_pp: bool = True  # the paper's placement priority
    # Activation recomputation: "none" stores everything, "selective"
    # (Megatron's default, assumed by the paper) stores all but the
    # attention internals, "full" stores only layer inputs and re-runs
    # the forward during backward.
    recompute: str = "selective"

    def __post_init__(self) -> None:
        for name in ("dp", "tp", "pp", "vpp", "micro_batch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.zero_stage not in (0, 1, 2, 3):
            raise ValueError(f"invalid ZeRO stage {self.zero_stage}")
        if self.pp == 1 and self.vpp > 1:
            raise ValueError("interleaving (vpp > 1) requires pp > 1")
        if self.recompute not in ("none", "selective", "full"):
            raise ValueError(f"unknown recompute mode {self.recompute!r}")

    @property
    def world_size(self) -> int:
        return self.dp * self.tp * self.pp

    # -- rank decomposition ------------------------------------------------

    def coords(self, rank: int) -> Tuple[int, int, int]:
        """Return (pp_rank, dp_rank, tp_rank) of a global rank."""
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} outside world of {self.world_size}")
        tp_rank = rank % self.tp
        rest = rank // self.tp
        if self.dp_before_pp:
            dp_rank = rest % self.dp
            pp_rank = rest // self.dp
        else:
            pp_rank = rest % self.pp
            dp_rank = rest // self.pp
        return pp_rank, dp_rank, tp_rank

    def rank_of(self, pp_rank: int, dp_rank: int, tp_rank: int) -> int:
        if not (0 <= pp_rank < self.pp and 0 <= dp_rank < self.dp and 0 <= tp_rank < self.tp):
            raise ValueError("coordinate out of range")
        if self.dp_before_pp:
            return (pp_rank * self.dp + dp_rank) * self.tp + tp_rank
        return (dp_rank * self.pp + pp_rank) * self.tp + tp_rank

    # -- communication groups -----------------------------------------------

    def tp_group(self, rank: int) -> List[int]:
        pp_rank, dp_rank, _ = self.coords(rank)
        return [self.rank_of(pp_rank, dp_rank, t) for t in range(self.tp)]

    def dp_group(self, rank: int) -> range:
        """Ranks of ``rank``'s DP group, ascending.

        The layout puts DP peers a fixed stride apart (``tp``, or
        ``pp * tp`` with pp before dp), so the group is a ``range``:
        O(1) to build, and its ends are its lowest and highest rank.
        """
        pp_rank, _, tp_rank = self.coords(rank)
        stride = self.tp if self.dp_before_pp else self.pp * self.tp
        start = self.rank_of(pp_rank, 0, tp_rank)
        return range(start, start + self.dp * stride, stride)

    def pp_group(self, rank: int) -> List[int]:
        _, dp_rank, tp_rank = self.coords(rank)
        return [self.rank_of(p, dp_rank, tp_rank) for p in range(self.pp)]

    def all_tp_groups(self) -> List[List[int]]:
        return [
            [self.rank_of(p, d, t) for t in range(self.tp)]
            for p in range(self.pp)
            for d in range(self.dp)
        ]

    def all_dp_groups(self) -> List[List[int]]:
        return [
            [self.rank_of(p, d, t) for d in range(self.dp)]
            for p in range(self.pp)
            for t in range(self.tp)
        ]

    def all_pp_groups(self) -> List[List[int]]:
        return [
            [self.rank_of(p, d, t) for p in range(self.pp)]
            for d in range(self.dp)
            for t in range(self.tp)
        ]

    # -- pipeline neighbours -------------------------------------------------

    def next_pp_rank(self, rank: int) -> int:
        """Global rank of the next pipeline stage (wraps around)."""
        pp_rank, dp_rank, tp_rank = self.coords(rank)
        return self.rank_of((pp_rank + 1) % self.pp, dp_rank, tp_rank)

    def prev_pp_rank(self, rank: int) -> int:
        pp_rank, dp_rank, tp_rank = self.coords(rank)
        return self.rank_of((pp_rank - 1) % self.pp, dp_rank, tp_rank)

    # -- batch decomposition ---------------------------------------------------

    def n_microbatches(self, global_batch: int) -> int:
        """Micro-batches each pipeline executes per iteration."""
        per_replica = global_batch / self.dp
        m = per_replica / self.micro_batch
        if m != int(m) or m < 1:
            raise ValueError(
                f"global batch {global_batch} not divisible into micro-batches "
                f"of {self.micro_batch} over dp={self.dp}"
            )
        return int(m)

    def layers_per_chunk(self, n_layers: int) -> int:
        chunks = self.pp * self.vpp
        if n_layers % chunks != 0:
            raise ValueError(f"{n_layers} layers not divisible into {chunks} chunks")
        return n_layers // chunks

    def with_options(self, **changes) -> "ParallelPlan":
        return replace(self, **changes)

    def describe(self) -> str:
        return (
            f"dp={self.dp} tp={self.tp} pp={self.pp} vpp={self.vpp} "
            f"mbs={self.micro_batch} sp={self.sequence_parallel} zero={self.zero_stage} "
            f"world={self.world_size}"
        )


def plan_for_gpus(
    n_gpus: int,
    tp: int,
    pp: int,
    vpp: int = 1,
    micro_batch: int = 1,
    **kwargs,
) -> ParallelPlan:
    """Derive the DP degree from a GPU count and model-parallel sizes."""
    model_parallel = tp * pp
    if n_gpus % model_parallel != 0:
        raise ValueError(f"{n_gpus} GPUs not divisible by tp*pp={model_parallel}")
    return ParallelPlan(
        dp=n_gpus // model_parallel, tp=tp, pp=pp, vpp=vpp, micro_batch=micro_batch, **kwargs
    )
