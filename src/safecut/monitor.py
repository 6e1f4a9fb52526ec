"""Runtime assume-guarantee monitor over cut-layer activations.

Proofs done under a dataset envelope hold only while every runtime
activation stays inside it.  `violations` is the one containment test: it
takes a batch of activations (n, d_l), masks box and adjacent-difference
violations for all rows at once, and builds `Violation` records only for
the rows outside.  It checks exactly the bounds file, so the monitor
accepts only what a verdict over that file covers; slack belongs in the
file (`bounds --widen`), where the verifier proves it.  `check` is that
test on one activation and `check_containment` its boolean, which the
verifier's witness replay uses; `monitor_stream` drives `check` over a
stream of network inputs one row at a time (so it never waits on a live
iterator), surviving malformed rows; `safecut monitor` runs `violations`
over stdin a chunk of rows at a time.
Activations come from the one forward pass that built the envelope, whose
dense layers give a row the same bits alone as in a batch, so a row of the
dataset an envelope was built from is contained.
"""

from __future__ import annotations

import math
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


def violations(bounds: ActivationBounds, acts: np.ndarray) -> Dict[int, tuple]:
    """Every box/diff violation of each row of `acts` (n, d_l).

    Maps each row outside the envelope to its violations (box by index, then
    diff by index); contained rows are absent.  A row is outside when an
    entry leaves ``[lo, hi]`` or an adjacent difference
    ``acts[r, i+1] - acts[r, i]`` leaves ``[diff_lo, diff_hi]``; NaN is
    outside every interval, and a difference that overflows is the infinity
    on its own side.
    """
    if acts.shape[1:] != bounds.lo.shape:
        raise ShapeError(
            f"activation dim {acts.shape[1:]} does not match bounds dim {bounds.lo.shape}"
        )
    box = ~((acts >= bounds.lo) & (acts <= bounds.hi))
    bad = box.any(axis=1)
    diff = None
    if bounds.has_diffs:
        with np.errstate(over="ignore"):
            d = np.diff(acts, axis=1)
        diff = ~((d >= bounds.diff_lo) & (d <= bounds.diff_hi))
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
                    "diff", i, float(d[r, i]),
                    float(bounds.diff_lo[i]), float(bounds.diff_hi[i]),
                )
                for i in np.flatnonzero(diff[r]).tolist()
            ]
        out[r] = tuple(found)
    return out


def check(
    bounds: ActivationBounds, activation: Sequence[float], sample_id: str = ""
) -> MonitorReport:
    """List every box/diff violation (all, not just first)."""
    found = violations(bounds, np.asarray(activation, dtype=np.float64)[None])
    return MonitorReport(found.get(0, ()), sample_id)


def check_containment(bounds: ActivationBounds, activation: Sequence[float]) -> bool:
    """`violations` on one row, as a bool; not through `check`, so that a
    witness replay does not count as a monitored row."""
    return not violations(bounds, np.asarray(activation, dtype=np.float64)[None])


def monitor_stream(
    net: Optional[Network],
    bounds: ActivationBounds,
    rows: Iterable[Sequence[float]],
    precomputed: bool = False,
) -> Iterator[Union[MonitorReport, StreamError]]:
    """One report per row, in order; malformed rows yield StreamError.

    So is a row whose report would print NaN or Infinity, which strict JSON
    refuses: one with a non-finite cell or cut activation, or one outside
    the envelope on an adjacent difference that overflows.

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
            report = check(bounds, act, sample_id=sid)
            # the activation is finite here: only an overflowed difference is not
            if not all(math.isfinite(x.value) for x in report.violations):
                raise ValueError("adjacent difference of the cut activation is not finite")
            yield report
        except (ShapeError, ValueError) as exc:
            yield StreamError(sample_id=sid, message=str(exc))


def report_to_obj(report: Union[MonitorReport, StreamError]) -> dict:
    if isinstance(report, StreamError):
        return {"sample_id": report.sample_id, "error": report.message}
    return {
        "sample_id": report.sample_id,
        "contained": report.contained,
        # kind, index, value, bound_lo, bound_hi
        "violations": [dict(vars(v)) for v in report.violations],
    }
