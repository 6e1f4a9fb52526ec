"""Cut-layer bound sets: dataset envelopes and static interval bounds.

The containment test against a bound set is `monitor.violations`, which the
runtime monitor and the verifier's witness replay share.  It checks exactly
the bounds in the file; any slack is added when the file is built
(`widen`), so the verifier proves the envelope the monitor checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EmptyDatasetError, ParseError, ShapeError
from .jsonio import integer, read_json, write_json
from .network import Dataset, Network, forward


@dataclass(frozen=True)
class InputBox:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ShapeError("input box lo/hi must be vectors of equal length")
        _refuse_bad_endpoints("input box", lo=lo, hi=hi)
        if (lo > hi).any():
            raise ShapeError("input box has lo > hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]


def _refuse_bad_endpoints(what: str, **vectors: np.ndarray) -> None:
    """ParseError naming the first NaN entry, or the first infinity on the
    wrong side (+inf in a vector named "*lo", -inf in one named "*hi").  A NaN
    bound compares false both ways, so it would silently contain everything.
    An infinity on its own side is a bound."""
    for name, v in vectors.items():
        wrong = np.inf if name.endswith("lo") else -np.inf
        bad = np.flatnonzero(np.isnan(v) | (v == wrong))
        if bad.size:
            x = v[bad[0]]
            text = "NaN" if np.isnan(x) else f"{x:+}"
            raise ParseError(f"{what} {name}[{bad[0]}] is {text}")


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
        _refuse_bad_endpoints("bounds", lo=lo, hi=hi)
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
            _refuse_bad_endpoints("bounds", diff_lo=dlo, diff_hi=dhi)
            if (dlo > dhi).any():
                raise ShapeError("diff bounds have lo > hi")
            object.__setattr__(self, "diff_lo", dlo)
            object.__setattr__(self, "diff_hi", dhi)
        if self.provenance not in ("static", "dataset"):
            raise ParseError(f"unknown provenance {self.provenance!r}")
        if self.sample_count < 0:
            raise ParseError(f"'sample_count' must be >= 0, got {self.sample_count}")

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def has_diffs(self) -> bool:
        return self.diff_lo is not None

    def check_fits(self, net: Network) -> None:
        """ShapeError unless `net` has a cut at `layer` of dimension `dim`."""
        d = net.cut_dim(self.layer)
        if self.dim != d:
            raise ShapeError(f"bounds dim {self.dim} does not match cut-layer dim {d}")


def dataset_bounds(
    net: Network, data: Dataset, layer: int, with_diffs: bool = True
) -> ActivationBounds:
    """Envelope of cut-layer activations over the dataset: one row-exact
    forward pass, then each coordinate's exact min and max."""
    if len(data) == 0:
        raise EmptyDatasetError("dataset_bounds needs at least one sample")
    d = net.cut_dim(layer)
    acts = forward(net, data.inputs, 0, layer)
    dlo = dhi = None
    if with_diffs and d >= 2:
        diffs = np.diff(acts, axis=1)
        dlo, dhi = diffs.min(axis=0), diffs.max(axis=0)
    return ActivationBounds(
        layer=layer,
        lo=acts.min(axis=0),
        hi=acts.max(axis=0),
        diff_lo=dlo,
        diff_hi=dhi,
        provenance="dataset",
        sample_count=len(data),
    )


def static_bounds(net: Network, box: InputBox, layer: int) -> ActivationBounds:
    """Interval propagation of the input box to the cut position."""
    net.cut_dim(layer)
    if box.dim != net.input_dim:
        raise ShapeError(
            f"input box dim {box.dim} does not match network input dim {net.input_dim}"
        )
    lo, hi = box.lo, box.hi
    for step in net.layers[:layer]:
        lo, hi = step.propagate(lo, hi)
    return ActivationBounds(
        layer=layer, lo=lo, hi=hi, provenance="static", sample_count=0
    )


def widen(bounds: ActivationBounds, margin: float) -> ActivationBounds:
    """Relative-absolute hybrid widening: pad by margin * max(1, |endpoint|).

    A padded bound that overflows is the infinity on its own side, silently:
    only looser, so still sound.  A zero margin returns `bounds` itself.
    """
    if not margin >= 0:
        raise ValueError("widen margin must be >= 0")
    if margin == 0:
        return bounds  # margin * inf would be NaN

    def pad_lo(v: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return v - margin * np.maximum(1.0, np.abs(v))

    def pad_hi(v: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
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
    return ActivationBounds(
        layer=integer(obj, "layer"),
        lo=np.array(obj["lo"], dtype=np.float64),
        hi=np.array(obj["hi"], dtype=np.float64),
        diff_lo=None if obj.get("diff_lo") is None else np.array(obj["diff_lo"], dtype=np.float64),
        diff_hi=None if obj.get("diff_hi") is None else np.array(obj["diff_hi"], dtype=np.float64),
        provenance=str(obj["provenance"]),
        sample_count=integer(obj, "sample_count"),
    )


def save_bounds(b: ActivationBounds, path: str) -> None:
    write_json(bounds_to_obj(b), path)


def load_bounds(path: str) -> ActivationBounds:
    return read_json(path, bounds_from_obj)
