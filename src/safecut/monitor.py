"""Runtime assume-guarantee monitor over cut-layer activations.

Proofs done under a dataset envelope hold only while every runtime
activation stays inside it.  `violations` is the one containment test: it
takes a batch of activations (n, d_l), masks box and adjacent-difference
violations for all rows at once (`bounds.violation_masks`), and builds
`Violation` records only for the rows outside.  `check` is that test on one
activation; `monitor_stream` drives it over a stream of network inputs one
row at a time (so it never waits on a live iterator), surviving malformed
rows; `safecut monitor` runs it over stdin a chunk of rows at a time.
Activations come from the row-exact forward pass, so a row of the dataset
an envelope was built from is contained at tolerance 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .bounds import ActivationBounds, as_activation, violation_masks
from .errors import ShapeError
from .network import Network, forward


@dataclass(frozen=True)
class Violation:
    kind: str  # "box" | "diff"
    index: int
    value: float
    bound_lo: float
    bound_hi: float


@dataclass(frozen=True)
class MonitorReport:
    contained: bool
    violations: tuple
    sample_id: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "violations", tuple(self.violations))
        if self.contained != (len(self.violations) == 0):
            raise ValueError("contained must hold exactly when violations is empty")


@dataclass(frozen=True)
class StreamError:
    sample_id: str
    message: str


def violations(
    bounds: ActivationBounds, acts: np.ndarray, tolerance: float = 0.0
) -> Dict[int, tuple]:
    """Every box/diff violation beyond `tolerance` of each row of `acts` (n, d_l).

    Maps each row outside the envelope to its violations (box by index, then
    diff by index); contained rows are absent.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    box, diff = violation_masks(bounds, acts, tolerance)
    bad = box.any(axis=1)
    if diff is not None:
        bad |= diff.any(axis=1)
    out = {}
    for r in np.flatnonzero(bad).tolist():
        v = acts[r]
        found = [
            Violation("box", i, float(v[i]), float(bounds.lo[i]), float(bounds.hi[i]))
            for i in np.flatnonzero(box[r]).tolist()
        ]
        if diff is not None:
            found += [
                Violation(
                    "diff", i, float(v[i + 1] - v[i]),
                    float(bounds.diff_lo[i]), float(bounds.diff_hi[i]),
                )
                for i in np.flatnonzero(diff[r]).tolist()
            ]
        out[r] = tuple(found)
    return out


def check(
    bounds: ActivationBounds,
    activation: Sequence[float],
    tolerance: float = 0.0,
    sample_id: str = "",
) -> MonitorReport:
    """List every box/diff violation beyond `tolerance` (all, not just first)."""
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    v = as_activation(bounds, activation)
    found = violations(bounds, v[None, :], tolerance).get(0, ())
    return MonitorReport(contained=not found, violations=found, sample_id=sample_id)


# check_containment is the boolean convenience used by the public API
def check_containment(
    bounds: ActivationBounds, activation: Sequence[float], tolerance: float = 0.0
) -> bool:
    return check(bounds, activation, tolerance).contained


def monitor_stream(
    net: Optional[Network],
    bounds: ActivationBounds,
    rows: Iterable[Sequence[float]],
    tolerance: float = 0.0,
    precomputed: bool = False,
) -> Iterator[Union[MonitorReport, StreamError]]:
    """One report per row, in order; malformed rows yield StreamError.

    So is a row with a non-finite cell or cut activation, whose report would
    print NaN or Infinity, which strict JSON refuses.

    Rows are network inputs run through f^(l) unless `precomputed` marks them
    as cut-layer activations already.
    """
    for idx, row in enumerate(rows):
        sid = str(idx)
        try:
            v = np.asarray(row, dtype=np.float64)
            if not np.isfinite(v).all():
                raise ValueError("row has a non-finite value")
            if precomputed:
                act = v
            else:
                if net is None:
                    raise ShapeError("a network is required to map inputs to the cut")
                with np.errstate(over="ignore", invalid="ignore"):
                    act = forward(net, v, 0, bounds.layer)
                if not np.isfinite(act).all():
                    raise ValueError("cut activation is not finite")
            yield check(bounds, act, tolerance, sample_id=sid)
        except (ShapeError, ValueError) as exc:
            yield StreamError(sample_id=sid, message=str(exc))


def report_to_obj(report: Union[MonitorReport, StreamError]) -> dict:
    if isinstance(report, StreamError):
        return {"sample_id": report.sample_id, "error": report.message}
    return {
        "sample_id": report.sample_id,
        "contained": report.contained,
        "violations": [
            {
                "kind": v.kind,
                "index": v.index,
                "value": v.value,
                "bound_lo": v.bound_lo,
                "bound_hi": v.bound_hi,
            }
            for v in report.violations
        ],
    }
