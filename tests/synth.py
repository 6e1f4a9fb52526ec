"""Random problem generators shared by solver, verifier and acceptance tests."""

import numpy as np

from safecut.bounds import ActivationBounds
from safecut.characterizer import Characterizer
from safecut.milp import RiskClause, RiskCondition, SafetyQuery
from safecut.network import BatchNorm, Dense, Network, Relu

import oracles

_OPS = ("<=", ">=", "<", ">")


def random_lp(rng, n_max=4, m_max=6):
    """Integer-friendly LP with a finite box, mixed row relations."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    c = rng.integers(-5, 6, n).astype(np.float64)
    A = rng.integers(-5, 6, (m, n)).astype(np.float64)
    b = rng.integers(-6, 7, m).astype(np.float64)
    rels = rng.choice(np.array([-1, 0, 1], dtype=np.int8), m, p=[0.5, 0.2, 0.3])
    lo = rng.integers(-4, 1, n).astype(np.float64)
    hi = lo + rng.integers(0, 7, n).astype(np.float64)
    return c, A, rels, b, lo, hi


def _random_head(rng, d):
    if rng.random() < 0.8:
        head = Network(
            layers=(
                Dense(
                    weights=rng.integers(-2, 3, (1, d)).astype(np.float64),
                    bias=rng.integers(-1, 3, 1).astype(np.float64),
                ),
            ),
            input_dim=d,
        )
    else:
        hidden = 2
        head = Network(
            layers=(
                Dense(
                    weights=rng.integers(-2, 3, (hidden, d)).astype(np.float64),
                    bias=rng.integers(-1, 2, hidden).astype(np.float64),
                ),
                Relu(dimension=hidden),
                Dense(
                    weights=rng.integers(-2, 3, (1, hidden)).astype(np.float64),
                    bias=rng.integers(-1, 3, 1).astype(np.float64),
                ),
            ),
            input_dim=d,
        )
    return Characterizer(head=head, property_id="phi-synth", achieved_accuracy=1.0)


def _random_risk(rng, out_dim):
    clauses = []
    for _ in range(int(rng.integers(1, 3))):
        coeffs = rng.integers(-2, 3, out_dim).astype(np.float64)
        while not coeffs.any():
            coeffs = rng.integers(-2, 3, out_dim).astype(np.float64)
        clauses.append(
            RiskClause(
                coeffs=coeffs,
                op=str(rng.choice(_OPS)),
                rhs=float(rng.integers(-4, 5)),
            )
        )
    return RiskCondition(clauses=tuple(clauses))


def random_suffix_instance(rng, max_unstable=8):
    """(net, query) pair for the verifier sweep.

    The net is an identity stub followed by a random 1-2 block Dense/ReLU
    suffix; the query carries a box + adjacent-difference envelope anchored at
    a random interior point (so the cut region is never empty), a small random
    head, and 1-2 random linear risk clauses.  Regenerates until the unstable
    ReLU count (suffix + head) fits the budget.
    """
    while True:
        d = int(rng.integers(2, 7))
        lo = rng.integers(-3, 1, d).astype(np.float64)
        hi = lo + rng.integers(1, 5, d).astype(np.float64)

        layers = [Dense(weights=np.eye(d), bias=np.zeros(d))]
        prev = d
        for _ in range(int(rng.integers(1, 3))):
            width = int(rng.integers(2, 6))
            layers.append(
                Dense(
                    weights=rng.integers(-2, 3, (width, prev)).astype(np.float64),
                    bias=rng.integers(-2, 3, width).astype(np.float64),
                )
            )
            layers.append(Relu(dimension=width))
            prev = width
        out_dim = int(rng.integers(1, 4))
        layers.append(
            Dense(
                weights=rng.integers(-2, 3, (out_dim, prev)).astype(np.float64),
                bias=rng.integers(-2, 3, out_dim).astype(np.float64),
            )
        )
        net = Network(layers=tuple(layers), input_dim=d)
        head = _random_head(rng, d)

        unstable = oracles.count_unstable(net.layers[1:], lo, hi)
        unstable += oracles.count_unstable(head.head.layers, lo, hi)
        if unstable > max_unstable:
            continue

        anchor = rng.uniform(lo, hi)
        adj = np.diff(anchor)
        full_lo = lo[1:] - hi[:-1]
        full_hi = hi[1:] - lo[:-1]
        t_lo = rng.uniform(0.0, 1.0, d - 1) * (rng.random(d - 1) < 0.5)
        t_hi = rng.uniform(0.0, 1.0, d - 1) * (rng.random(d - 1) < 0.5)
        diff_lo = full_lo + t_lo * (adj - full_lo)
        diff_hi = full_hi - t_hi * (full_hi - adj)

        provenance = "dataset" if rng.random() < 0.5 else "static"
        bounds = ActivationBounds(
            layer=1,
            lo=lo,
            hi=hi,
            diff_lo=diff_lo,
            diff_hi=diff_hi,
            provenance=provenance,
            sample_count=64 if provenance == "dataset" else 0,
        )
        query = SafetyQuery(
            cut_layer=1,
            bounds=bounds,
            characterizer=head,
            risk=_random_risk(rng, out_dim),
        )
        return net, query


def random_full_network(rng):
    """Dense/ReLU/BatchNorm stack with float weights, for soundness tests."""
    in_dim = int(rng.integers(2, 6))
    layers = []
    prev = in_dim
    for _ in range(int(rng.integers(2, 5))):
        width = int(rng.integers(2, 6))
        layers.append(
            Dense(
                weights=rng.normal(0.0, 1.0, (width, prev)),
                bias=rng.normal(0.0, 0.5, width),
            )
        )
        roll = rng.random()
        if roll < 0.5:
            layers.append(Relu(dimension=width))
        elif roll < 0.7:
            layers.append(
                BatchNorm(
                    scale=rng.uniform(0.5, 1.5, width),
                    offset=rng.normal(0.0, 0.3, width),
                    mean=rng.normal(0.0, 0.3, width),
                    variance=rng.uniform(0.5, 2.0, width),
                    epsilon=1e-5,
                )
            )
        prev = width
    net = Network(layers=tuple(layers), input_dim=in_dim)
    box_lo = rng.uniform(-2.0, 0.0, in_dim)
    box_hi = box_lo + rng.uniform(0.5, 3.0, in_dim)
    return net, box_lo, box_hi


def random_batchnorm_network(rng):
    """A `random_full_network` draw that includes a BatchNorm layer."""
    while True:
        net, box_lo, box_hi = random_full_network(rng)
        if any(isinstance(layer, BatchNorm) for layer in net.layers):
            return net, box_lo, box_hi


WIDE_CUT = 3


def wide_network(rng):
    """64-128-64 dense/ReLU/BatchNorm stack cut at position WIDE_CUT.

    Wide enough that a matrix-matrix product over a batch rounds rows
    differently from one matrix-vector product per row.
    """
    layers = (
        Dense(weights=rng.normal(0.0, 0.125, (128, 64)), bias=rng.normal(0.0, 0.1, 128)),
        Relu(dimension=128),
        Dense(weights=rng.normal(0.0, 0.09, (64, 128)), bias=rng.normal(0.0, 0.1, 64)),
        BatchNorm(
            scale=rng.uniform(0.5, 1.5, 64),
            offset=rng.normal(0.0, 0.3, 64),
            mean=rng.normal(0.0, 0.3, 64),
            variance=rng.uniform(0.5, 2.0, 64),
            epsilon=1e-5,
        ),
        Relu(dimension=64),
        Dense(weights=rng.normal(0.0, 0.125, (2, 64)), bias=np.zeros(2)),
    )
    return Network(layers=layers, input_dim=64)


# ---------------------------------------------------------------------------
# pinned members of the branch-and-bound ladder: an 8-wide cut, two hidden
# ReLU layers and an exact number of unstable ReLUs, drawn in turn from one
# seed the way the benchmark's deep suite draws its members

LADDER_SEED = 7
LADDER_CUT = 8
# (hidden width, unstable ReLUs, threshold) per member, in drawing order; a
# threshold is 1e-3 past the member's true maximum of output[0] (0.80367...
# and 2.72277..., HiGHS), rounded up on a 1e-6 grid: each query is safe,
# with a thin margin
LADDER = ((12, 24, 0.804674), (16, 32, 2.725499))


def ladder_member(unstable=24):
    """(net, query) of the member with `unstable` unstable ReLUs: is
    output[0] >= its threshold reachable where the linear head accepts,
    inside the dataset envelope of 256 rows?"""
    rng = np.random.default_rng(LADDER_SEED)
    d = LADDER_CUT
    for h, count, threshold in LADDER:
        while True:
            P = rng.normal(0.0, 1.0 / np.sqrt(d), (d, d))
            pb = rng.normal(0.0, 0.1, d)
            acts = rng.uniform(-1.0, 1.0, (256, d)) @ P.T + pb
            lo, hi = acts.min(axis=0), acts.max(axis=0)
            suffix = (
                Dense(weights=rng.normal(0.0, 1.0 / np.sqrt(d), (h, d)), bias=rng.normal(0.0, 0.3, h)),
                Relu(dimension=h),
                Dense(weights=rng.normal(0.0, 1.0 / np.sqrt(h), (h, h)), bias=rng.normal(0.0, 0.3, h)),
                Relu(dimension=h),
                Dense(weights=rng.normal(0.0, 1.0 / np.sqrt(h), (2, h)), bias=np.zeros(2)),
            )
            if oracles.count_unstable(suffix, lo, hi) == count:
                break
        head = Network(
            layers=(Dense(weights=rng.normal(0.0, 1.0, (1, d)), bias=rng.normal(0.0, 0.2, 1)),),
            input_dim=d,
        )
        if count == unstable:
            break
    else:
        raise ValueError(f"no ladder member has {unstable} unstable ReLUs")
    diffs = np.diff(acts, axis=1)
    bounds = ActivationBounds(
        layer=1, lo=lo, hi=hi, diff_lo=diffs.min(axis=0), diff_hi=diffs.max(axis=0),
        provenance="dataset", sample_count=256,
    )
    query = SafetyQuery(
        cut_layer=1,
        bounds=bounds,
        characterizer=Characterizer(head=head, property_id="ladder", achieved_accuracy=1.0),
        risk=RiskCondition(
            clauses=(RiskClause(coeffs=np.array([1.0, 0.0]), op=">=", rhs=threshold),)
        ),
    )
    net = Network(layers=(Dense(weights=P, bias=pb),) + suffix, input_dim=d)
    return net, query


# ---------------------------------------------------------------------------
# the toy direct-perception scenario (synthetic "road curvature" regression)

ROAD_DIM = 8
# fixed mixing vector standing in for "how much each feature says the road
# bends right"; the scalar s = ROAD_MIX . x drives labels and targets
ROAD_MIX = np.array([0.35, 0.30, 0.25, 0.20, 0.15, 0.10, -0.10, -0.15])


def road_signal(X):
    return X @ ROAD_MIX


def make_road_data(rng, n):
    """Feature rows with a margin band removed, labeled bends-right."""
    rows = []
    while len(rows) < n:
        X = rng.uniform(-1.0, 1.0, (n, ROAD_DIM))
        s = road_signal(X)
        keep = np.abs(s) > 0.2
        rows.extend(X[keep])
    X = np.array(rows[:n])
    y = (road_signal(X) > 0.0).astype(np.int64)
    return X, y


def road_targets(X):
    """2-D waypoint target: lateral offset tracks the bend, speed eases off."""
    s = road_signal(X)
    return np.column_stack([s, 1.0 - 0.5 * s])


def init_regressor(rng, scale):
    w1 = rng.normal(0.0, scale, (6, ROAD_DIM))
    b1 = np.full(6, 0.5)
    w2 = rng.normal(0.0, scale, (4, 6))
    b2 = np.full(4, 0.5)
    w3 = rng.normal(0.0, scale, (2, 4))
    b3 = np.zeros(2)
    return [w1, b1, w2, b2, w3, b3]


def train_regressor(params, X, Y, epochs, lr):
    """Plain full-batch gradient descent on MSE, by-hand backprop."""
    w1, b1, w2, b2, w3, b3 = params
    n = X.shape[0]
    for _ in range(epochs):
        z1 = X @ w1.T + b1
        a1 = np.maximum(z1, 0.0)
        z2 = a1 @ w2.T + b2
        a2 = np.maximum(z2, 0.0)
        out = a2 @ w3.T + b3
        g = 2.0 * (out - Y) / n
        gw3 = g.T @ a2
        gb3 = g.sum(axis=0)
        ga2 = (g @ w3) * (z2 > 0.0)
        gw2 = ga2.T @ a1
        gb2 = ga2.sum(axis=0)
        ga1 = (ga2 @ w2) * (z1 > 0.0)
        gw1 = ga1.T @ X
        gb1 = ga1.sum(axis=0)
        w3 -= lr * gw3
        b3 -= lr * gb3
        w2 -= lr * gw2
        b2 -= lr * gb2
        w1 -= lr * gw1
        b1 -= lr * gb1
    return [w1, b1, w2, b2, w3, b3]


def regressor_network(params):
    w1, b1, w2, b2, w3, b3 = params
    return Network(
        layers=(
            Dense(weights=w1, bias=b1),
            Relu(dimension=w1.shape[0]),
            Dense(weights=w2, bias=b2),
            Relu(dimension=w2.shape[0]),
            Dense(weights=w3, bias=b3),
        ),
        input_dim=ROAD_DIM,
    )


def road_regressor(seed=7, undertrained=False):
    """The waypoint net for the end-to-end scenario; seeded, deterministic."""
    rng = np.random.default_rng(seed)
    X, _ = make_road_data(rng, 400)
    Y = road_targets(X)
    if undertrained:
        # two GD steps from a wild init: wrong enough to steer hard left
        params = init_regressor(rng, 1.2)
        params = train_regressor(params, X, Y, epochs=2, lr=0.01)
    else:
        params = init_regressor(rng, 0.4)
        params = train_regressor(params, X, Y, epochs=4000, lr=0.05)
    return regressor_network(params), X
