"""Cut-layer bound sets: dataset envelopes and static interval bounds."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import intervals
from .errors import EmptyDatasetError, ParseError, ShapeError
from .network import Dataset, Network, forward_batch

_BATCH = 4096  # chunk size for dataset scans (row-exact: no bit depends on it)


@dataclass(frozen=True)
class InputBox:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ShapeError("input box lo/hi must be vectors of equal length")
        if (lo > hi).any():
            raise ShapeError("input box has lo > hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]


def _refuse_nan(**vectors: np.ndarray) -> None:
    """ParseError naming the first NaN entry; a NaN bound compares false both
    ways, so it would silently contain everything.  Infinities are bounds."""
    for name, v in vectors.items():
        nan = np.flatnonzero(np.isnan(v))
        if nan.size:
            raise ParseError(f"bounds {name}[{nan[0]}] is NaN")


@dataclass(frozen=True)
class ActivationBounds:
    layer: int
    lo: np.ndarray
    hi: np.ndarray
    diff_lo: Optional[np.ndarray] = None
    diff_hi: Optional[np.ndarray] = None
    provenance: str = "dataset"  # "static" | "dataset"
    sample_count: int = 0

    def __post_init__(self) -> None:
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ShapeError("bounds lo/hi must be vectors of equal length")
        _refuse_nan(lo=lo, hi=hi)
        if (lo > hi).any():
            raise ShapeError("bounds have lo > hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if (self.diff_lo is None) != (self.diff_hi is None):
            raise ShapeError("diff_lo and diff_hi must be present together")
        if self.diff_lo is not None:
            dlo = np.asarray(self.diff_lo, dtype=np.float64)
            dhi = np.asarray(self.diff_hi, dtype=np.float64)
            if dlo.shape != dhi.shape or dlo.shape != (lo.shape[0] - 1,):
                raise ShapeError("diff bounds must have length d_l - 1")
            _refuse_nan(diff_lo=dlo, diff_hi=dhi)
            if (dlo > dhi).any():
                raise ShapeError("diff bounds have lo > hi")
            object.__setattr__(self, "diff_lo", dlo)
            object.__setattr__(self, "diff_hi", dhi)
        if self.provenance not in ("static", "dataset"):
            raise ParseError(f"unknown provenance {self.provenance!r}")

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def has_diffs(self) -> bool:
        return self.diff_lo is not None


def dataset_bounds(
    net: Network, data: Dataset, layer: int, with_diffs: bool = True
) -> ActivationBounds:
    """Envelope of cut-layer activations over the dataset (streaming min/max)."""
    if len(data) == 0:
        raise EmptyDatasetError("dataset_bounds needs at least one sample")
    if not 1 <= layer < net.depth:
        raise ShapeError(f"cut position {layer} outside [1, {net.depth})")
    d = net.dim_at(layer)
    lo = np.full(d, np.inf)
    hi = np.full(d, -np.inf)
    want_diffs = with_diffs and d >= 2
    dlo = np.full(d - 1, np.inf) if want_diffs else None
    dhi = np.full(d - 1, -np.inf) if want_diffs else None

    for start in range(0, len(data), _BATCH):
        acts = forward_batch(net, data.inputs[start : start + _BATCH], 0, layer)
        np.minimum(lo, acts.min(axis=0), out=lo)
        np.maximum(hi, acts.max(axis=0), out=hi)
        if want_diffs:
            diffs = np.diff(acts, axis=1)
            np.minimum(dlo, diffs.min(axis=0), out=dlo)
            np.maximum(dhi, diffs.max(axis=0), out=dhi)

    return ActivationBounds(
        layer=layer,
        lo=lo,
        hi=hi,
        diff_lo=dlo,
        diff_hi=dhi,
        provenance="dataset",
        sample_count=len(data),
    )


def static_bounds(net: Network, box: InputBox, layer: int) -> ActivationBounds:
    """Sound interval propagation of the input box to the cut position."""
    if not 1 <= layer < net.depth:
        raise ShapeError(f"cut position {layer} outside [1, {net.depth})")
    if box.dim != net.input_dim:
        raise ShapeError(
            f"input box dim {box.dim} does not match network input dim {net.input_dim}"
        )
    lo, hi = intervals.propagate(net, box.lo, box.hi, 0, layer)
    return ActivationBounds(
        layer=layer, lo=lo, hi=hi, provenance="static", sample_count=0
    )


def widen(bounds: ActivationBounds, margin: float) -> ActivationBounds:
    """Relative-absolute hybrid widening: pad by margin * max(1, |endpoint|)."""
    if margin < 0:
        raise ValueError("widen margin must be >= 0")

    def pad_lo(v: np.ndarray) -> np.ndarray:
        return v - margin * np.maximum(1.0, np.abs(v))

    def pad_hi(v: np.ndarray) -> np.ndarray:
        return v + margin * np.maximum(1.0, np.abs(v))

    return ActivationBounds(
        layer=bounds.layer,
        lo=pad_lo(bounds.lo),
        hi=pad_hi(bounds.hi),
        diff_lo=pad_lo(bounds.diff_lo) if bounds.has_diffs else None,
        diff_hi=pad_hi(bounds.diff_hi) if bounds.has_diffs else None,
        provenance=bounds.provenance,
        sample_count=bounds.sample_count,
    )


def violation_masks(bounds: ActivationBounds, acts: np.ndarray, tol: float = 0.0) -> tuple:
    """The containment test, on a batch of activations (n, d_l).

    Returns ``(box, diff)``: ``box[r, i]`` marks ``acts[r, i]`` outside
    ``[lo[i] - tol, hi[i] + tol]``, and ``diff[r, i]`` marks the adjacent
    difference ``acts[r, i+1] - acts[r, i]`` outside the diff bounds widened
    by ``tol`` (``diff`` is None for bounds without diffs).
    """
    if acts.ndim != 2 or acts.shape[1:] != bounds.lo.shape:
        raise ShapeError(
            f"activation batch shape {acts.shape} does not match bounds dim {bounds.lo.shape}"
        )
    box = (acts < bounds.lo - tol) | (acts > bounds.hi + tol)
    if not bounds.has_diffs:
        return box, None
    d = np.diff(acts, axis=1)
    return box, (d < bounds.diff_lo - tol) | (d > bounds.diff_hi + tol)


def as_activation(bounds: ActivationBounds, activation) -> np.ndarray:
    """`activation` as a float vector of the bounds' dimension, or ShapeError."""
    v = np.asarray(activation, dtype=np.float64)
    if v.shape != bounds.lo.shape:
        raise ShapeError(
            f"activation dim {v.shape} does not match bounds dim {bounds.lo.shape}"
        )
    return v


def contains(bounds: ActivationBounds, activation: np.ndarray, tol: float = 0.0) -> bool:
    """Membership test used by the monitor; tol allows a numeric skin."""
    box, diff = violation_masks(bounds, as_activation(bounds, activation)[None, :], tol)
    return not (box.any() or (diff is not None and diff.any()))


# ---------------------------------------------------------------------------
# serialization


def bounds_to_obj(b: ActivationBounds) -> dict:
    return {
        "layer": b.layer,
        "lo": b.lo.tolist(),
        "hi": b.hi.tolist(),
        "diff_lo": b.diff_lo.tolist() if b.has_diffs else None,
        "diff_hi": b.diff_hi.tolist() if b.has_diffs else None,
        "provenance": b.provenance,
        "sample_count": b.sample_count,
    }


def bounds_from_obj(obj: dict) -> ActivationBounds:
    if not isinstance(obj, dict):
        raise ParseError("bounds file must contain a JSON object")
    try:
        return ActivationBounds(
            layer=int(obj["layer"]),
            lo=np.array(obj["lo"], dtype=np.float64),
            hi=np.array(obj["hi"], dtype=np.float64),
            diff_lo=None if obj.get("diff_lo") is None else np.array(obj["diff_lo"], dtype=np.float64),
            diff_hi=None if obj.get("diff_hi") is None else np.array(obj["diff_hi"], dtype=np.float64),
            provenance=str(obj["provenance"]),
            sample_count=int(obj["sample_count"]),
        )
    except KeyError as exc:
        raise ParseError(f"bounds object missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bounds object malformed: {exc}") from None


def save_bounds(b: ActivationBounds, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bounds_to_obj(b), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_bounds(path: str) -> ActivationBounds:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from None
    return bounds_from_obj(obj)
