"""Table-1 confusion estimates and the (1-gamma) statistical guarantee.

Cells are indexed (ground truth, characterizer decision): n11 alpha,
n10 gamma (missed analyses — the dangerous cell), n01 beta (false alarms),
n00 the remainder.  The point guarantee is 1 - gamma-hat; a Clopper-Pearson
exact upper bound on gamma is reported alongside it so small evaluation
sets cannot overstate the claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characterizer import Characterizer
from .errors import EmptyDatasetError, InvalidDeltaError, UnlabeledDataError
from .milp import RiskCondition
from .network import Dataset, Network, forward_batch


@dataclass(frozen=True)
class ConfusionEstimate:
    n11: int
    n10: int
    n01: int
    n00: int

    def __post_init__(self) -> None:
        if min(self.n11, self.n10, self.n01, self.n00) < 0:
            raise ValueError("confusion counts must be nonnegative")
        if self.n == 0:
            raise EmptyDatasetError("confusion estimate needs at least one sample")

    @property
    def n(self) -> int:
        return self.n11 + self.n10 + self.n01 + self.n00

    @property
    def alpha(self) -> float:
        return self.n11 / self.n

    @property
    def gamma(self) -> float:
        return self.n10 / self.n

    @property
    def beta(self) -> float:
        return self.n01 / self.n


@dataclass(frozen=True)
class StatisticalGuarantee:
    point_guarantee: float
    conservative_guarantee: float
    confidence: float
    premise_checked: bool


def head_logits(
    net: Network, h: Characterizer, layer: int, data: Dataset
) -> tuple[np.ndarray, np.ndarray]:
    """(f^(l)(in), head logit) of every sample: the one pass over the data
    that `estimate_confusion` and `check_premise` share."""
    net.cut_dim(layer)
    feats = forward_batch(net, data.inputs, 0, layer)
    return feats, forward_batch(h.head, feats)[:, 0]


def estimate_confusion(
    net: Network, h: Characterizer, layer: int, eval_data: Dataset, cut=None
) -> ConfusionEstimate:
    """Fill the four cells from (label, decide(h, f^(l)(in))) per sample.

    `cut` is `head_logits` of the same arguments, computed here if omitted.
    """
    if eval_data.labels is None:
        raise UnlabeledDataError("confusion estimation needs labeled data")
    if len(eval_data) == 0:
        raise EmptyDatasetError("confusion estimation needs at least one sample")
    _, logits = head_logits(net, h, layer, eval_data) if cut is None else cut
    pred = (logits >= 0.0).astype(np.int64)
    truth = eval_data.labels
    return ConfusionEstimate(
        n11=int(((truth == 1) & (pred == 1)).sum()),
        n10=int(((truth == 1) & (pred == 0)).sum()),
        n01=int(((truth == 0) & (pred == 1)).sum()),
        n00=int(((truth == 0) & (pred == 0)).sum()),
    )


def gamma_upper_bound(n10: int, n: int, delta: float) -> float:
    """Clopper-Pearson exact one-sided upper bound on gamma at level 1-delta."""
    if not 0.0 < delta < 1.0:
        raise InvalidDeltaError(f"delta must lie in (0, 1), got {delta}")
    if n <= 0:
        raise EmptyDatasetError("upper bound needs n >= 1")
    if n10 >= n:
        return 1.0
    # the (1 - delta) quantile of Beta(n10 + 1, n - n10); imported here
    # because scipy's import costs every safecut process about a second
    from scipy.special import betaincinv

    return float(betaincinv(n10 + 1, n - n10, 1.0 - delta))


def guarantee(
    estimate: ConfusionEstimate, delta: float, premise: bool = False
) -> StatisticalGuarantee:
    """Point (1 - gamma-hat) and conservative (1 - gamma_upper) guarantees."""
    upper = gamma_upper_bound(estimate.n10, estimate.n, delta)
    return StatisticalGuarantee(
        point_guarantee=1.0 - estimate.gamma,
        conservative_guarantee=1.0 - upper,
        confidence=1.0 - delta,
        premise_checked=premise,
    )


def check_premise(
    net: Network, h: Characterizer, layer: int, data: Dataset, risk: RiskCondition, cut=None
) -> bool:
    """The footnote premise: every omitted in-phi sample is itself output-safe.

    Samples with label 1 but h=0 slip past the verification envelope; the
    conditional claim needs each of them to avoid the risk set exactly.
    `cut` is `head_logits` of the same arguments, computed here if omitted;
    the omitted samples run on from their cut features (row-exact, so the
    outputs are those of a whole forward pass).
    """
    if data.labels is None:
        raise UnlabeledDataError("premise check needs labeled data")
    feats, logits = head_logits(net, h, layer, data) if cut is None else cut
    omitted = (data.labels == 1) & (logits < 0.0)
    if not omitted.any():
        return True
    outputs = forward_batch(net, feats[omitted], layer)
    return not any(risk.holds_exact(out) for out in outputs)


def stats_report_obj(
    estimate: ConfusionEstimate, g: StatisticalGuarantee
) -> dict:
    return {
        "counts": {
            "n11": estimate.n11,
            "n10": estimate.n10,
            "n01": estimate.n01,
            "n00": estimate.n00,
        },
        "alpha": estimate.alpha,
        "beta": estimate.beta,
        "gamma": estimate.gamma,
        "point_guarantee": g.point_guarantee,
        "conservative_guarantee": g.conservative_guarantee,
        "confidence": g.confidence,
        "premise_checked": g.premise_checked,
    }
