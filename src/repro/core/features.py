"""Feature flags: what separates MegaScale from the Megatron-LM baseline.

Each flag corresponds to one optimization described in §3 of the paper;
Table 3's ablation switches them on cumulatively.  The iteration engine
consumes a :class:`FeatureSet` and prices each mechanism separately, so
the ablation deltas are emergent rather than hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class FeatureSet:
    """Execution options for one training configuration."""

    name: str
    # §3.1 algorithmic techniques
    parallel_block: bool = False
    sliding_window: Optional[int] = None  # attention window; None = full
    lamb: bool = False  # enables large-batch training
    # §3.2 communication overlap
    tp_overlap: bool = False
    pp_overlap: bool = False
    dp_overlap: bool = False
    # §3.3 efficient operators
    flash_attention: bool = False
    fused_kernels: bool = False
    # §3.4 data pipeline
    async_data_pipeline: bool = False
    tree_based_loading: bool = False
    # §6.3 problematic-code elimination (GC, slow PyTorch ops)
    clean_codepath: bool = False

    def with_options(self, **changes) -> "FeatureSet":
        return replace(self, **changes)


# The paper's default sliding window (window << seq_len = 2048).
DEFAULT_SWA_WINDOW = 1024

MEGATRON_LM = FeatureSet(name="megatron-lm")

MEGASCALE = FeatureSet(
    name="megascale",
    parallel_block=True,
    sliding_window=DEFAULT_SWA_WINDOW,
    lamb=True,
    tp_overlap=True,
    pp_overlap=True,
    dp_overlap=True,
    flash_attention=True,
    fused_kernels=True,
    async_data_pipeline=True,
    tree_based_loading=True,
    clean_codepath=True,
)

# MegaScale without the batch-size change, for iso-batch comparisons
# (Table 2 uses the same batch size for both systems).
MEGASCALE_ISO_BATCH = MEGASCALE.with_options(name="megascale-iso-batch", lamb=False)


def ablation_sequence() -> List[Tuple[str, FeatureSet, int]]:
    """Table 3's cumulative optimization ladder.

    Returns ``(row label, features, batch-size multiplier)`` triples;
    the final LAMB row scales the batch 3x (256 -> 768 in the paper).
    """
    steps: List[Tuple[str, FeatureSet, int]] = []
    fs = MEGATRON_LM.with_options(name="ablation")
    steps.append(("baseline", fs, 1))
    fs = fs.with_options(parallel_block=True)
    steps.append(("(1) with PTB", fs, 1))
    fs = fs.with_options(sliding_window=DEFAULT_SWA_WINDOW)
    steps.append(("(2) with SWA", fs, 1))
    fs = fs.with_options(tp_overlap=True)
    steps.append(("(3) with TP overlap", fs, 1))
    fs = fs.with_options(pp_overlap=True)
    steps.append(("(4) with PP overlap", fs, 1))
    fs = fs.with_options(dp_overlap=True)
    steps.append(("(5) with DP overlap", fs, 1))
    fs = fs.with_options(flash_attention=True, fused_kernels=True)
    steps.append(("(6) with efficient operators", fs, 1))
    fs = fs.with_options(
        async_data_pipeline=True, tree_based_loading=True, clean_codepath=True
    )
    steps.append(("(7) with misc optimizations", fs, 1))
    fs = fs.with_options(lamb=True)
    steps.append(("(8) with LAMB (BS x 3)", fs, 3))
    return steps
