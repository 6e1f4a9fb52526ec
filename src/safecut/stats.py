"""Table-1 confusion estimates and the (1-gamma) statistical guarantee.

Cells are indexed (ground truth, characterizer decision): n11 alpha,
n10 gamma (missed analyses — the dangerous cell), n01 beta (false alarms),
n00 the remainder.  The point guarantee is 1 - gamma-hat; a Clopper-Pearson
exact upper bound on gamma is reported alongside it so small evaluation
sets cannot overstate the claim.  That bound is computed in-tree and
rounded outward: it is never below the exact Beta quantile.  The decisions
are `characterizer.decide` over the batch of cut features, the rule the
verifier's witness replay applies to one vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characterizer import Characterizer, decide
from .errors import EmptyDatasetError, InvalidDeltaError, UnlabeledDataError
from .milp import RiskCondition
from .network import Dataset, Network, forward


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


def head_pass(
    net: Network, h: Characterizer, layer: int, data: Dataset
) -> tuple[np.ndarray, np.ndarray]:
    """(f^(l)(in), decide(h, f^(l)(in))) of every sample: the one pass over
    the data that `estimate_confusion` and `check_premise` share."""
    net.cut_dim(layer)
    feats = forward(net, data.inputs, 0, layer)
    return feats, decide(h, feats)


def estimate_confusion(
    net: Network, h: Characterizer, layer: int, eval_data: Dataset, cut=None
) -> ConfusionEstimate:
    """Fill the four cells from (label, decide(h, f^(l)(in))) per sample.

    `cut` is `head_pass` of the same arguments, computed here if omitted.
    """
    if eval_data.labels is None:
        raise UnlabeledDataError("confusion estimation needs labeled data")
    if len(eval_data) == 0:
        raise EmptyDatasetError("confusion estimation needs at least one sample")
    _, pred = head_pass(net, h, layer, eval_data) if cut is None else cut
    truth = eval_data.labels
    return ConfusionEstimate(
        n11=int(((truth == 1) & (pred == 1)).sum()),
        n10=int(((truth == 1) & (pred == 0)).sum()),
        n01=int(((truth == 0) & (pred == 1)).sum()),
        n00=int(((truth == 0) & (pred == 0)).sum()),
    )


_EPS = math.ulp(1.0)


def _log_front(a: int, b: int, x: float) -> tuple[float, float]:
    """log(x^a (1-x)^b / B(a, b)) and a bound on its rounding error.

    Each term is allowed 4 ulps (CPython's lgamma is within about 3 at
    integers; log and log1p are within one, the product adds half) and
    each sum one ulp of the partial result.
    """
    terms = (
        math.lgamma(a + b), -math.lgamma(a), -math.lgamma(b),
        a * math.log(x), b * math.log1p(-x),
    )
    s = terms[0]
    err = 4.0 * math.ulp(s)
    for t in terms[1:]:
        s += t
        err += 4.0 * math.ulp(t) + math.ulp(s)
    return s, err


def _beta_cf(a: int, b: int, x: float):
    """(h, bound on the relative error of h) with I_x(a, b) = front * h / a.

    The continued fraction by the modified Lentz method (Numerical Recipes
    section 6.4), for x < (a + 1) / (a + b + 2).  A running first-order
    bound follows the rounding of every step, including the cancellation in
    1 + aa * d; x may itself be 1 - x' rounded.  None when a denominator
    vanishes or the fraction does not settle.
    """
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    ea = 4.0 * _EPS  # x, one product and one quotient in each coefficient
    t = -qab * x / qap
    if t == -1.0:
        return None
    d, c = 1.0 / (1.0 + t), 1.0
    ed, ec = abs(t) * ea * abs(d) + 2.0 * _EPS, 0.0
    h, eh = d, ed
    for m in range(1, 64 + 4 * math.isqrt(qab)):
        m2 = 2 * m
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            t, q = aa * d, aa / c
            c = 1.0 + q
            if t == -1.0 or c == 0.0:
                return None
            d = 1.0 / (1.0 + t)
            ed = abs(t) * (ea + ed + _EPS) * abs(d) + 2.0 * _EPS
            ec = abs(q) * (ea + ec + _EPS) / abs(c) + _EPS
            de = d * c
            h *= de
            eh += ed + ec + 2.0 * _EPS
        if abs(de - 1.0) <= 2.0 * _EPS:
            # the tail past this point stays under one eps; allow 16
            return h, eh + 16.0 * _EPS
    return None


def _covers(a: int, b: int, x: float, delta: float) -> bool:
    """Whether I_x(a, b) >= 1 - delta, decided on a certified lower bound.

    Below (a + 1) / (a + b + 2) the fraction gives I_x directly; above it
    gives 1 - I_x = I_{1-x}(b, a), which must be at most delta.
    """
    s, err = _log_front(a, b, x)
    upper = x >= (a + 1.0) / (a + b + 2.0)
    cf = _beta_cf(b, a, 1.0 - x) if upper else _beta_cf(a, b, x)
    if cf is None:
        return False
    h, eh = cf
    log_h = math.log(h / (b if upper else a))
    s += log_h
    # the sum, the final subtraction, exp and h / a each round by ~eps * (1 + |s|)
    err += eh + math.ulp(log_h) + 4.0 * _EPS * (1.0 + abs(s))
    if upper:
        return math.exp(s + err) <= delta
    return math.exp(s - err) >= math.nextafter(1.0 - delta, 2.0)


def _count(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer count, got {value!r}")
    return int(value)


def gamma_upper_bound(n10: int, n: int, delta: float) -> float:
    """Clopper-Pearson exact one-sided upper bound on gamma at level 1-delta.

    The (1 - delta) quantile u of Beta(n10 + 1, n - n10), rounded outward:
    bisection moves its upper end only to points where a lower bound on
    the regularized incomplete beta I_u(n10 + 1, n - n10) reaches 1 - delta,
    so P[Bin(n, u) <= n10] <= delta holds exactly and u is never below the
    exact quantile.
    """
    n10, n = _count("n10", n10), _count("n", n)
    if not 0.0 < delta < 1.0:
        raise InvalidDeltaError(f"delta must lie in (0, 1), got {delta}")
    if n == 0:
        raise EmptyDatasetError("upper bound needs n >= 1")
    if n10 >= n:
        return 1.0
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if _covers(n10 + 1, n - n10, mid, delta):
            hi = mid
        else:
            lo = mid


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
    `cut` is `head_pass` of the same arguments, computed here if omitted;
    the omitted samples run on from their cut features (row-exact, so the
    outputs are those of a whole forward pass).  A risk whose dimension is
    not the network's output dimension is a ShapeError, omitted samples or
    not.
    """
    if data.labels is None:
        raise UnlabeledDataError("premise check needs labeled data")
    risk.check_fits(net)
    feats, pred = head_pass(net, h, layer, data) if cut is None else cut
    omitted = (data.labels == 1) & (pred == 0)
    if not omitted.any():
        return True
    outputs = forward(net, feats[omitted], layer)
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
