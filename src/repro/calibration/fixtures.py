"""Published-profile fixtures: the anchors the cost models are fit against.

Each fixture file under ``data/calibration/`` transcribes one published
source (provenance fields included) into a list of *anchors*: a fully
specified (model, plan, scale, system) point plus the published scalar
the simulator's prediction is compared to.  Two metric conventions are
supported:

* ``"mfu"`` — model-FLOPs utilization in percent, the MegaScale (NSDI
  '24) convention and the simulator's native one.
* ``"tflops_per_gpu"`` — achieved TFLOP/s per GPU *including*
  activation-recomputation FLOPs, the Megatron-LM (SC '21) convention.
  The anchor carries the SC21 hardware-FLOPs count so predictions
  compare apples-to-apples on wall time:
  ``F = 96*B*s*l*h^2 * (1 + s/(6h) + V/(16*l*h))``.
* ``"iteration_time"`` — seconds per optimizer step.  Fixture rows with
  ``derive_iteration_time`` emit this as a second residual row derived
  from the published MFU (same datapoint, engine-native units).

Anchors are frozen dataclasses (hashable, picklable) so prediction fans
out through :func:`repro.exec.run_tasks` and profiles key memo caches.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..model.flops import iteration_model_flops
from ..model.transformer import MODEL_CATALOG, ModelSpec
from ..parallel.plan import ParallelPlan

METRICS = ("mfu", "tflops_per_gpu", "iteration_time")
SYSTEMS = ("plain", "megascale", "megatron-lm")


def default_fixture_dir() -> str:
    """``data/calibration/`` at the repository root (next to ``src/``)."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return os.path.join(root, "data", "calibration")


def sc21_hardware_flops(
    n_layers: int,
    hidden_size: int,
    vocab_size: int,
    seq_len: int,
    global_batch: int,
) -> float:
    """Per-iteration hardware FLOPs under the SC21 convention.

    Includes the activation-recomputation forward pass (the 4/3 factor
    folded into the leading 96); this is the denominator-side count the
    SC21 "achieved TFLOP/s" rows divide wall time into.
    """
    b, s, l, h, v = global_batch, seq_len, n_layers, hidden_size, vocab_size
    return 96.0 * b * s * l * h * h * (1.0 + s / (6.0 * h) + v / (16.0 * l * h))


@dataclass(frozen=True)
class Anchor:
    """One published datapoint: a priced configuration and its target."""

    id: str  # "<source>/<name>/<metric>"
    source: str
    system: str  # "plain" | "megascale" | "megatron-lm"
    model: ModelSpec
    plan: ParallelPlan
    n_gpus: int
    global_batch: int
    metric: str
    published: float
    tolerance: float  # relative |pred - pub| / pub allowed for a "match"
    fit: bool  # participates in the fitting objective
    must_match: bool  # report/CI fails when outside tolerance
    provenance: str

    def __post_init__(self) -> None:
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r} (have {METRICS})")
        if self.system not in SYSTEMS:
            raise ValueError(f"unknown system {self.system!r} (have {SYSTEMS})")
        if self.published <= 0:
            raise ValueError("published value must be positive")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.plan.world_size != self.n_gpus:
            raise ValueError(
                f"anchor {self.id}: plan world size {self.plan.world_size} "
                f"!= n_gpus {self.n_gpus}"
            )

    @property
    def hardware_flops(self) -> float:
        """SC21-convention FLOPs per iteration (tflops_per_gpu anchors)."""
        m = self.model
        return sc21_hardware_flops(
            m.n_layers, m.hidden_size, m.vocab_size, m.seq_len, self.global_batch
        )


def _row_value(row: dict, defaults: dict, key: str, fallback=None):
    if key in row:
        return row[key]
    return defaults.get(key, fallback)


def _model_for_row(row: dict, defaults: dict) -> ModelSpec:
    name = _row_value(row, defaults, "model")
    if name is not None:
        if name not in MODEL_CATALOG:
            raise ValueError(f"unknown model {name!r}")
        return MODEL_CATALOG[name]
    return ModelSpec(
        name=f"sc21-{row['name']}",
        n_layers=row["n_layers"],
        hidden_size=row["hidden_size"],
        n_heads=row["n_heads"],
        vocab_size=_row_value(row, defaults, "vocab_size", 51200),
        seq_len=_row_value(row, defaults, "seq_len", 2048),
    )


_ROW_FIELDS = ("name", "n_gpus", "global_batch", "published")
_SHAPE_FIELDS = ("n_layers", "hidden_size", "n_heads")  # rows naming no model


def _check_fixture(payload: object) -> None:
    """Raise ValueError unless ``payload`` has a fixture's shape."""
    if not (isinstance(payload, dict) and isinstance(payload.get("source"), str)):
        raise ValueError("not a fixture (need an object with a string 'source')")
    for key in ("defaults", "provenance"):
        if not isinstance(payload.get(key, {}), dict):
            raise ValueError(f"{key!r} must be an object")
    rows = payload.get("anchors")
    if not (isinstance(rows, list) and all(isinstance(row, dict) for row in rows)):
        raise ValueError("'anchors' must be a list of objects")
    defaults = payload.get("defaults", {})
    for i, row in enumerate(rows):
        named = _row_value(row, defaults, "model") is not None
        required = _ROW_FIELDS + (() if named else _SHAPE_FIELDS)
        missing = [key for key in required if key not in row]
        if missing:
            raise ValueError(f"anchor row {i} lacks {', '.join(missing)}")


def _anchors_from_fixture(payload: dict) -> List[Anchor]:
    _check_fixture(payload)
    defaults = payload.get("defaults", {})
    source = payload["source"]
    provenance = payload.get("provenance", {})
    prov_line = f"{provenance.get('paper', source)} — {provenance.get('table', '')}"
    anchors: List[Anchor] = []
    for row in payload["anchors"]:
        model = _model_for_row(row, defaults)
        tp = _row_value(row, defaults, "tp", 1)
        pp = _row_value(row, defaults, "pp", 1)
        n_gpus = row["n_gpus"]
        plan = ParallelPlan(
            dp=n_gpus // (tp * pp),
            tp=tp,
            pp=pp,
            vpp=_row_value(row, defaults, "vpp", 1),
            micro_batch=_row_value(row, defaults, "micro_batch", 1),
            recompute=_row_value(row, defaults, "recompute", "selective"),
        )
        metric = _row_value(row, defaults, "metric", "mfu")
        common = dict(
            source=source,
            system=_row_value(row, defaults, "system", "plain"),
            model=model,
            plan=plan,
            n_gpus=n_gpus,
            global_batch=row["global_batch"],
            tolerance=_row_value(row, defaults, "tolerance", 0.15),
            fit=bool(_row_value(row, defaults, "fit", True)),
            must_match=bool(_row_value(row, defaults, "must_match", False)),
            provenance=prov_line,
        )
        anchors.append(
            Anchor(
                id=f"{source}/{row['name']}/{metric}",
                metric=metric,
                published=float(row["published"]),
                **common,
            )
        )
        if row.get("derive_iteration_time") and metric == "mfu":
            # Same datapoint re-expressed in seconds: the engine's native
            # output unit, so the residual is directly a wall-time error.
            from ..hardware.gpu import AMPERE

            flops = iteration_model_flops(model, row["global_batch"])
            seconds = flops / (
                float(row["published"]) / 100.0 * n_gpus * AMPERE.peak_flops
            )
            derived = dict(common)
            derived["fit"] = False  # never double-count a datapoint in the fit
            anchors.append(
                Anchor(
                    id=f"{source}/{row['name']}/iteration_time",
                    metric="iteration_time",
                    published=seconds,
                    **derived,
                )
            )
    return anchors


def load_fixture(path: str) -> List[Anchor]:
    """Anchors of one fixture JSON file, in file order.

    The file is outside input: a ValueError names it when it is not a
    fixture, a row lacks a required field or a field has the wrong type.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return _anchors_from_fixture(json.load(fh))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"fixture {path}: {exc}") from None


def load_anchors(
    fixture_dir: Optional[str] = None,
    sources: Optional[Sequence[str]] = None,
) -> List[Anchor]:
    """All anchors from ``fixture_dir`` (default ``data/calibration/``).

    Files are read in sorted name order so the anchor list — and
    everything downstream (fit objective, report rows) — is
    deterministic.  ``sources`` filters by fixture ``source`` id.
    """
    directory = fixture_dir or default_fixture_dir()
    anchors: List[Anchor] = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json") or name in ("profile.json", "baseline_report.json"):
            continue
        anchors.extend(load_fixture(os.path.join(directory, name)))
    if sources is not None:
        wanted = set(sources)
        anchors = [a for a in anchors if a.source in wanted]
    seen: Dict[str, str] = {}
    for anchor in anchors:
        if anchor.id in seen:
            raise ValueError(f"duplicate anchor id {anchor.id!r}")
        seen[anchor.id] = anchor.source
    return anchors


def fit_anchors(anchors: Sequence[Anchor]) -> Tuple[Anchor, ...]:
    """The subset that participates in the fitting objective."""
    return tuple(a for a in anchors if a.fit)
