"""Seeded input generators for the three benchmark workloads.

Everything here is plain NumPy and writes the documented file formats
directly, so the bytes a workload feeds to safecut depend only on the seed,
never on safecut's own serializers.  A network is a list of layers, each
``("dense", W, b)`` or ``("relu",)``.
"""

from __future__ import annotations

import json
import os

import numpy as np

# ---------------------------------------------------------------------------
# networks, envelopes and file formats


def dense(W, b):
    return ("dense", np.asarray(W, dtype=np.float64), np.asarray(b, dtype=np.float64))


RELU = ("relu",)


def forward(layers, x):
    """Single-vector forward pass, written as ``W @ v + b`` per dense layer."""
    v = np.asarray(x, dtype=np.float64)
    for layer in layers:
        v = layer[1] @ v + layer[2] if layer[0] == "dense" else np.maximum(v, 0.0)
    return v


def forward_rows(layers, X):
    """Row-batched forward pass: X has shape (n, d_in)."""
    M = np.asarray(X, dtype=np.float64)
    for layer in layers:
        M = M @ layer[1].T + layer[2] if layer[0] == "dense" else np.maximum(M, 0.0)
    return M


def interval_trail(layers, lo, hi):
    """Pre-activation interval of every ReLU layer, in order, from a box."""
    trail = []
    for layer in layers:
        if layer[0] == "dense":
            wp, wn = np.maximum(layer[1], 0.0), np.minimum(layer[1], 0.0)
            lo, hi = wp @ lo + wn @ hi + layer[2], wp @ hi + wn @ lo + layer[2]
        else:
            trail.append((lo, hi))
            lo, hi = np.maximum(lo, 0.0), np.maximum(hi, 0.0)
    return trail


def count_unstable(layers, lo, hi):
    return sum(int(((l < 0.0) & (h > 0.0)).sum()) for l, h in interval_trail(layers, lo, hi))


def envelope(acts, with_diffs=True):
    """Box (and adjacent-difference) envelope of activation rows."""
    env = {"lo": acts.min(axis=0), "hi": acts.max(axis=0), "diff_lo": None, "diff_hi": None}
    if with_diffs:
        d = np.diff(acts, axis=1)
        env["diff_lo"], env["diff_hi"] = d.min(axis=0), d.max(axis=0)
    return env


def layers_from_obj(obj):
    """Layers of a network JSON object, in the form used here."""
    return [
        dense(l["weights"], l["bias"]) if l["type"] == "dense" else RELU for l in obj["layers"]
    ]


def network_obj(input_dim, layers):
    out = []
    for layer in layers:
        if layer[0] == "dense":
            out.append({"type": "dense", "weights": layer[1].tolist(), "bias": layer[2].tolist()})
        else:
            out.append({"type": "relu"})
    return {"input_dim": int(input_dim), "layers": out}


def bounds_obj(layer, env, provenance, sample_count):
    def opt(v):
        return None if v is None else np.asarray(v).tolist()

    return {
        "layer": int(layer),
        "lo": np.asarray(env["lo"]).tolist(),
        "hi": np.asarray(env["hi"]).tolist(),
        "diff_lo": opt(env["diff_lo"]),
        "diff_hi": opt(env["diff_hi"]),
        "provenance": provenance,
        "sample_count": int(sample_count),
    }


def head_obj(head_layers, in_dim):
    return {
        "property_id": "phi-bench",
        "decision_rule": "logit_ge_zero",
        "achieved_accuracy": 1.0,
        "network": network_obj(in_dim, head_layers),
    }


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_csv(path, X, header=True, labels=None):
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            cols = [f"x{i}" for i in range(X.shape[1])] + (["label"] if labels is not None else [])
            fh.write(",".join(cols) + "\n")
        for i, row in enumerate(X):
            cells = [repr(float(v)) for v in row]
            if labels is not None:
                cells.append(str(int(labels[i])))
            fh.write(",".join(cells) + "\n")


def write_instance(directory, inst):
    """net.json, bounds.json, head.json and query.json for one verification query."""
    os.makedirs(directory, exist_ok=True)
    write_json(os.path.join(directory, "net.json"), network_obj(inst["input_dim"], inst["net"]))
    write_json(
        os.path.join(directory, "bounds.json"),
        bounds_obj(inst["cut"], inst["env"], inst["provenance"], inst["sample_count"]),
    )
    write_json(os.path.join(directory, "head.json"), head_obj(inst["head"], len(inst["env"]["lo"])))
    write_json(
        os.path.join(directory, "query.json"),
        {
            "cut_layer": inst["cut"],
            "bounds": "bounds.json",
            "characterizer": "head.json",
            "risk": [
                {"coeffs": np.asarray(c).tolist(), "op": op, "rhs": float(rhs)}
                for c, op, rhs in inst["risk"]
            ],
        },
    )


# ---------------------------------------------------------------------------
# sweep: many small mixed queries (cut of 2-6, 1-2 ReLU blocks, <= 8 unstable)

SWEEP_MAX_UNSTABLE = 8
_OPS = ("<=", ">=", "<", ">")


def _ints(rng, lo, hi, shape):
    return rng.integers(lo, hi, shape).astype(np.float64)


def sweep_instance(rng):
    """One query in the shape of the test suite's random suffix instances.

    Identity stub to the cut, 1-2 Dense/ReLU blocks of width 2-5, a 1-3
    dimensional output, a linear or one-hidden-layer head, a box plus
    adjacent-difference envelope around a random interior anchor, and 1-2
    random linear risk clauses.  Redrawn until at most 8 ReLUs are unstable.
    """
    while True:
        d = int(rng.integers(2, 7))
        lo = _ints(rng, -3, 1, d)
        hi = lo + _ints(rng, 1, 5, d)
        suffix, prev = [], d
        for _ in range(int(rng.integers(1, 3))):
            width = int(rng.integers(2, 6))
            suffix += [dense(_ints(rng, -2, 3, (width, prev)), _ints(rng, -2, 3, width)), RELU]
            prev = width
        out_dim = int(rng.integers(1, 4))
        suffix.append(dense(_ints(rng, -2, 3, (out_dim, prev)), _ints(rng, -2, 3, out_dim)))
        if rng.random() < 0.8:
            head = [dense(_ints(rng, -2, 3, (1, d)), _ints(rng, -1, 3, 1))]
        else:
            head = [
                dense(_ints(rng, -2, 3, (2, d)), _ints(rng, -1, 2, 2)),
                RELU,
                dense(_ints(rng, -2, 3, (1, 2)), _ints(rng, -1, 3, 1)),
            ]
        if count_unstable(suffix, lo, hi) + count_unstable(head, lo, hi) > SWEEP_MAX_UNSTABLE:
            continue

        anchor = rng.uniform(lo, hi)
        adj = np.diff(anchor)
        full_lo, full_hi = lo[1:] - hi[:-1], hi[1:] - lo[:-1]
        t_lo = rng.uniform(0.0, 1.0, d - 1) * (rng.random(d - 1) < 0.5)
        t_hi = rng.uniform(0.0, 1.0, d - 1) * (rng.random(d - 1) < 0.5)
        env = {
            "lo": lo,
            "hi": hi,
            "diff_lo": full_lo + t_lo * (adj - full_lo),
            "diff_hi": full_hi - t_hi * (full_hi - adj),
        }
        risk = []
        for _ in range(int(rng.integers(1, 3))):
            coeffs = _ints(rng, -2, 3, out_dim)
            while not coeffs.any():
                coeffs = _ints(rng, -2, 3, out_dim)
            risk.append((coeffs, str(rng.choice(_OPS)), float(rng.integers(-4, 5))))
        provenance = "dataset" if rng.random() < 0.5 else "static"
        return {
            "input_dim": d,
            "cut": 1,
            "net": [dense(np.eye(d), np.zeros(d))] + suffix,
            "head": head,
            "env": env,
            "provenance": provenance,
            "sample_count": 64 if provenance == "dataset" else 0,
            "risk": risk,
        }


# ---------------------------------------------------------------------------
# deep: a pinned suite of hard safe proofs
#
# The suite is fixed, as a branch-and-bound benchmark suite has to be: which
# instances a seed drew would otherwise move the proof time by more than the
# changes this workload exists to measure.  Serial depth-first search makes
# each member's node count the same on every run; the seed orders the suite.

DEEP_SUITE_SEED = 20261017
DEEP_CUT = 8
DEEP_ENV_ROWS = 256
# (hidden widths, exact unstable-ReLU count) per suite member
DEEP_SHAPES = ((8, 8, 16), (8, 8, 16), (9, 9, 18), (9, 9, 18), (10, 10, 20))


def _deep_member(rng, h1, h2, unstable):
    """Prefix to an 8-wide cut, two hidden ReLU layers, a linear head."""
    while True:
        P = rng.normal(0.0, 1.0 / np.sqrt(DEEP_CUT), (DEEP_CUT, DEEP_CUT))
        pb = rng.normal(0.0, 0.1, DEEP_CUT)
        X = rng.uniform(-1.0, 1.0, (DEEP_ENV_ROWS, DEEP_CUT))
        env = envelope(X @ P.T + pb)
        suffix = [
            dense(rng.normal(0.0, 1.0 / np.sqrt(DEEP_CUT), (h1, DEEP_CUT)), rng.normal(0.0, 0.3, h1)),
            RELU,
            dense(rng.normal(0.0, 1.0 / np.sqrt(h1), (h2, h1)), rng.normal(0.0, 0.3, h2)),
            RELU,
            dense(rng.normal(0.0, 1.0 / np.sqrt(h2), (2, h2)), np.zeros(2)),
        ]
        if count_unstable(suffix, env["lo"], env["hi"]) == unstable:
            break
    head = [dense(rng.normal(0.0, 1.0, (1, DEEP_CUT)), rng.normal(0.0, 0.2, 1))]
    return {
        "input_dim": DEEP_CUT,
        "cut": 1,
        "net": [dense(P, pb)] + suffix,
        "head": head,
        "env": env,
        "provenance": "dataset",
        "sample_count": DEEP_ENV_ROWS,
        "risk": None,  # threshold set at set-up from the reference optimum
    }


def deep_suite():
    rng = np.random.default_rng(DEEP_SUITE_SEED)
    return [_deep_member(rng, h1, h2, u) for h1, h2, u in DEEP_SHAPES]


def deep_threshold(opt):
    """Risk threshold just past the true optimum, on a fixed 1e-6 grid."""
    return float(np.ceil((opt + 1e-3 * max(1.0, abs(opt))) * 1e6) / 1e6)


# ---------------------------------------------------------------------------
# cli: the road scenario plus a monitor stream

ROAD_DIM = 8
ROAD_ROWS = 400
ROAD_MIX = np.array([0.35, 0.30, 0.25, 0.20, 0.15, 0.10, -0.10, -0.15])
ROAD_CUT = 3
ROAD_RISK = [{"coeffs": [1.0, 0.0], "op": "<=", "rhs": -0.5}]  # steer far left
# The road scenario is pinned, like the deep suite: from this seed the
# reference finds the well-trained regressor safe and the undertrained one
# unsafe, the user's pair; from many others both come out unsafe, or the
# undertrained one safe.  The run's seed draws the monitor net and rows.
ROAD_SEED = 502

MON_DIMS = (64, 128, 64)
MON_CUT = 3
MON_ENV_ROWS = 6000
MON_FRESH_ROWS = 2000
MON_REPEATS = 4  # the stream replays the rows, long enough for a steady rate
MON_MARGIN = 1e-6  # fresh rows this close to the envelope boundary are redrawn


def road_data(rng):
    """Feature rows with a margin band removed, labelled bends-right."""
    rows = []
    while len(rows) < ROAD_ROWS:
        X = rng.uniform(-1.0, 1.0, (ROAD_ROWS, ROAD_DIM))
        rows.extend(X[np.abs(X @ ROAD_MIX) > 0.2])
    X = np.array(rows[:ROAD_ROWS])
    return X, (X @ ROAD_MIX > 0.0).astype(np.int64)


def road_regressor(rng, X, undertrained):
    """Waypoint regressor trained by full-batch GD on MSE (by-hand backprop)."""
    s = X @ ROAD_MIX
    Y = np.column_stack([s, 1.0 - 0.5 * s])
    scale, epochs, lr = (1.2, 2, 0.01) if undertrained else (0.4, 4000, 0.05)
    w1, b1 = rng.normal(0.0, scale, (6, ROAD_DIM)), np.full(6, 0.5)
    w2, b2 = rng.normal(0.0, scale, (4, 6)), np.full(4, 0.5)
    w3, b3 = rng.normal(0.0, scale, (2, 4)), np.zeros(2)
    n = X.shape[0]
    for _ in range(epochs):
        z1 = X @ w1.T + b1
        a1 = np.maximum(z1, 0.0)
        z2 = a1 @ w2.T + b2
        a2 = np.maximum(z2, 0.0)
        g = 2.0 * (a2 @ w3.T + b3 - Y) / n
        ga2 = (g @ w3) * (z2 > 0.0)
        ga1 = (ga2 @ w2) * (z1 > 0.0)
        w3 -= lr * (g.T @ a2)
        b3 -= lr * g.sum(axis=0)
        w2 -= lr * (ga2.T @ a1)
        b2 -= lr * ga2.sum(axis=0)
        w1 -= lr * (ga1.T @ X)
        b1 -= lr * ga1.sum(axis=0)
    return [dense(w1, b1), RELU, dense(w2, b2), RELU, dense(w3, b3)]


def monitor_net(rng):
    d_in, d_hid, d_cut = MON_DIMS
    return [
        dense(rng.normal(0.0, 1.0 / np.sqrt(d_in), (d_hid, d_in)), rng.normal(0.0, 0.1, d_hid)),
        RELU,
        dense(rng.normal(0.0, 1.0 / np.sqrt(d_hid), (d_cut, d_hid)), rng.normal(0.0, 0.1, d_cut)),
        RELU,
        dense(rng.normal(0.0, 1.0 / np.sqrt(d_cut), (2, d_cut)), np.zeros(2)),
    ]


def envelope_margin(env, acts):
    """Signed distance of each activation row to the envelope boundary.

    Positive inside, negative outside; the magnitude says how far a
    last-bit difference in the activation is from flipping the answer.
    """
    m = np.minimum(acts - env["lo"], env["hi"] - acts).min(axis=1)
    d = np.diff(acts, axis=1)
    return np.minimum(m, np.minimum(d - env["diff_lo"], env["diff_hi"] - d).min(axis=1))


def monitor_rows(rng, layers, env_X):
    """Envelope rows (expected inside by construction) plus fresh rows.

    Fresh rows come from the same distribution and from a wider one, so
    both answers occur; each one's expected answer comes from the
    benchmark's own forward pass, and rows within MON_MARGIN of the
    boundary are redrawn so that rounding cannot decide them.
    """
    env = envelope(forward_rows(layers[:MON_CUT], env_X))
    fresh = []
    while len(fresh) < MON_FRESH_ROWS:
        spread = 1.0 if len(fresh) % 2 == 0 else 1.15
        x = rng.uniform(-spread, spread, MON_DIMS[0])
        margin = envelope_margin(env, forward_rows(layers[:MON_CUT], x[None, :]))[0]
        if abs(margin) > MON_MARGIN:
            fresh.append((x, bool(margin > 0)))
    X = np.vstack([env_X, np.array([x for x, _ in fresh])])
    expected = np.concatenate([np.ones(len(env_X), dtype=bool), [c for _, c in fresh]])
    order = rng.permutation(len(X))
    return X[order], expected[order], env


# ---------------------------------------------------------------------------
# per-workload input trees


def make_sweep(workdir, seed, count):
    rng = np.random.default_rng(seed)
    insts = [sweep_instance(rng) for _ in range(count)]
    for i, inst in enumerate(insts):
        write_instance(os.path.join(workdir, f"q{i:04d}"), inst)
    return insts


def make_deep(workdir, seed, optimum):
    """Writes the suite in seeded order; `optimum(inst)` sets each risk threshold."""
    suite = deep_suite()
    insts = [suite[i] for i in np.random.default_rng(seed).permutation(len(suite))]
    for i, inst in enumerate(insts):
        inst["risk"] = [(np.array([1.0, 0.0]), ">=", deep_threshold(optimum(inst)))]
        write_instance(os.path.join(workdir, f"q{i:04d}"), inst)
    return insts


def make_cli(workdir, seed):
    """Road nets and data, and the monitor net, envelope data and stdin rows."""
    os.makedirs(workdir, exist_ok=True)
    road_rng = np.random.default_rng(ROAD_SEED)
    X, y = road_data(road_rng)
    write_csv(os.path.join(workdir, "road.csv"), X, labels=y)
    road = {}
    for tag, under in (("well", False), ("under", True)):
        road[tag] = road_regressor(road_rng, X, under)
        write_json(os.path.join(workdir, f"net_{tag}.json"), network_obj(ROAD_DIM, road[tag]))
        write_json(
            os.path.join(workdir, f"query_{tag}.json"),
            {
                "cut_layer": ROAD_CUT,
                "bounds": f"bounds_{tag}.json",
                "characterizer": f"head_{tag}.json",
                "risk": ROAD_RISK,
            },
        )
    rng = np.random.default_rng(seed)
    mon = monitor_net(rng)
    write_json(os.path.join(workdir, "mon_net.json"), network_obj(MON_DIMS[0], mon))
    env_X = rng.uniform(-1.0, 1.0, (MON_ENV_ROWS, MON_DIMS[0]))
    write_csv(os.path.join(workdir, "mon_env.csv"), env_X)
    rows, expected, env = monitor_rows(rng, mon, env_X)
    path = os.path.join(workdir, "mon_rows.csv")
    write_csv(path, rows, header=False)
    with open(path, "rb") as fh:
        text = fh.read()
    with open(path, "wb") as fh:
        fh.write(text * MON_REPEATS)
    rows, expected = np.tile(rows, (MON_REPEATS, 1)), np.tile(expected, MON_REPEATS)
    return {"road_X": X, "road_y": y, "road": road, "mon": mon, "mon_rows": rows,
            "mon_expected": expected, "mon_env": env}
