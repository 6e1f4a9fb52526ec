"""Runtime assume-guarantee monitor over cut-layer activations.

Proofs done under a dataset envelope hold only while every runtime
activation stays inside it.  `violations` is the one containment test: it
takes a batch of activations (n, d_l), masks box and adjacent-difference
violations for all rows at once, and builds `Violation` records only for
the rows outside.  `check` is that test on one activation and
`check_containment` its boolean, which the verifier's witness replay uses;
`monitor_stream` drives `check` over a stream of network inputs one row at a
time (so it never waits on a live iterator), surviving malformed rows;
`safecut monitor` runs `violations` over stdin a chunk of rows at a time.
Activations come from the row-exact forward pass, so a row of the dataset
an envelope was built from is contained at tolerance 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .bounds import ActivationBounds
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
    violations: tuple
    sample_id: str = ""

    @property
    def contained(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class StreamError:
    sample_id: str
    message: str


def violations(
    bounds: ActivationBounds, acts: np.ndarray, tolerance: float = 0.0
) -> Dict[int, tuple]:
    """Every box/diff violation beyond `tolerance` of each row of `acts` (n, d_l).

    Maps each row outside the envelope to its violations (box by index, then
    diff by index); contained rows are absent.  A row is outside when an
    entry leaves ``[lo - tolerance, hi + tolerance]`` or an adjacent
    difference ``acts[r, i+1] - acts[r, i]`` leaves the diff bounds widened
    the same way; NaN is outside every interval.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    if acts.shape[1:] != bounds.lo.shape:
        raise ShapeError(
            f"activation dim {acts.shape[1:]} does not match bounds dim {bounds.lo.shape}"
        )
    # a widened bound that overflows is the infinity on its own side
    with np.errstate(over="ignore"):
        lo, hi = bounds.lo - tolerance, bounds.hi + tolerance
        if bounds.has_diffs:
            dlo, dhi = bounds.diff_lo - tolerance, bounds.diff_hi + tolerance
    box = ~((acts >= lo) & (acts <= hi))
    bad = box.any(axis=1)
    diff = None
    if bounds.has_diffs:
        d = np.diff(acts, axis=1)
        diff = ~((d >= dlo) & (d <= dhi))
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
    found = violations(bounds, np.asarray(activation, dtype=np.float64)[None], tolerance)
    return MonitorReport(found.get(0, ()), sample_id)


def check_containment(
    bounds: ActivationBounds, activation: Sequence[float], tolerance: float = 0.0
) -> bool:
    """`violations` on one row, as a bool; not through `check`, so that a
    witness replay does not count as a monitored row."""
    return not violations(bounds, np.asarray(activation, dtype=np.float64)[None], tolerance)


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
