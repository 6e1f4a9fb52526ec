"""Input property characterizer: a binary head over cut-layer activations.

The head is a tiny network (logistic regression or one hidden ReLU layer)
that emits a single logit; the decision rule is logit >= 0 -> class 1, so
the class-1 region is a closed half-space in the head's final affine image.
Training is full-batch gradient descent on logistic loss — slow but exactly
reproducible, which matters more here than speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateLabelsError,
    ParseError,
    ShapeError,
    UnlabeledDataError,
)
from .jsonio import read_json, write_json
from .network import (
    Dataset,
    Dense,
    Network,
    Relu,
    forward,
    forward_batch,
    network_from_obj,
    network_to_obj,
)

DECISION_RULE = "logit_ge_zero"


@dataclass(frozen=True)
class TrainConfig:
    hidden_units: int = 0
    learning_rate: float = 0.5
    max_epochs: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.hidden_units < 0:
            raise ValueError("hidden_units must be >= 0")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be > 0")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")


@dataclass(frozen=True)
class Characterizer:
    head: Network
    property_id: str
    achieved_accuracy: float

    def __post_init__(self) -> None:
        if self.head.dim_at(self.head.depth) != 1:
            raise ShapeError("characterizer head must emit a single logit")
        # depth > 2 would mean more than one hidden layer; the MILP encoder
        # only handles {affine, relu} stacks so we gate the shape here too
        kinds = [type(layer).__name__ for layer in self.head.layers]
        if kinds not in (["Dense"], ["Dense", "Relu", "Dense"]):
            raise ShapeError(
                f"head must be Dense or Dense-Relu-Dense, got {'-'.join(kinds)}"
            )

    @property
    def in_dim(self) -> int:
        return self.head.input_dim


def decide(h: Characterizer, activation) -> int:
    """1 iff the head logit is >= 0 (boundary goes to class 1)."""
    logit = forward(h.head, activation)[0]
    return 1 if logit >= 0.0 else 0


def extract_features(net: Network, data: Dataset, layer: int) -> Dataset:
    """Map labeled inputs to (f^(layer)(in), label) pairs."""
    if data.labels is None:
        raise UnlabeledDataError("feature extraction needs labeled data")
    net.cut_dim(layer)
    feats = forward_batch(net, data.inputs, 0, layer)
    return Dataset(feats, data.labels)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # numerically stable two-sided form
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def train(features: Dataset, cfg: TrainConfig, property_id: str = "phi") -> Characterizer:
    """Full-batch GD on logistic loss; early stop at 100% training accuracy."""
    if features.labels is None:
        raise UnlabeledDataError("training needs labeled features")
    y = features.labels.astype(np.float64)
    if len(np.unique(features.labels)) < 2:
        raise DegenerateLabelsError("training data contains a single class")
    x = features.inputs
    n, d = x.shape
    rng = np.random.default_rng(cfg.seed)

    if cfg.hidden_units == 0:
        w = rng.normal(0.0, 0.1, size=d)
        b = 0.0
        for _ in range(cfg.max_epochs):
            z = x @ w + b
            if (((z >= 0).astype(np.float64)) == y).all():
                break
            p = _sigmoid(z)
            g = p - y  # dL/dz, summed below as mean
            w -= cfg.learning_rate * (x.T @ g) / n
            b -= cfg.learning_rate * g.mean()
        head = Network((Dense(w.reshape(1, d), np.array([b])),), d)
    else:
        h = cfg.hidden_units
        w1 = rng.normal(0.0, np.sqrt(2.0 / d), size=(h, d))
        b1 = np.zeros(h)
        w2 = rng.normal(0.0, np.sqrt(2.0 / h), size=(1, h))
        b2 = np.zeros(1)
        for _ in range(cfg.max_epochs):
            a1 = x @ w1.T + b1
            r1 = np.maximum(a1, 0.0)
            z = r1 @ w2.T + b2  # (n, 1)
            zf = z[:, 0]
            if (((zf >= 0).astype(np.float64)) == y).all():
                break
            p = _sigmoid(zf)
            gz = (p - y)[:, None] / n  # (n, 1)
            gw2 = gz.T @ r1
            gb2 = gz.sum(axis=0)
            gr1 = gz @ w2
            ga1 = gr1 * (a1 > 0)
            gw1 = ga1.T @ x
            gb1 = ga1.sum(axis=0)
            w1 -= cfg.learning_rate * gw1
            b1 -= cfg.learning_rate * gb1
            w2 -= cfg.learning_rate * gw2
            b2 -= cfg.learning_rate * gb2
        head = Network((Dense(w1, b1), Relu(h), Dense(w2, b2)), d)

    logits = forward_batch(head, x)[:, 0]
    acc = float(((logits >= 0).astype(np.float64) == y).mean())
    return Characterizer(head=head, property_id=property_id, achieved_accuracy=acc)


def train_characterizer(
    net: Network, data: Dataset, layer: int, cfg: TrainConfig, property_id: str = "phi"
) -> Characterizer:
    """Convenience wrapper: extract features at the cut, then train."""
    return train(extract_features(net, data, layer), cfg, property_id)


# ---------------------------------------------------------------------------
# serialization


def characterizer_to_obj(h: Characterizer) -> dict:
    return {
        "property_id": h.property_id,
        "decision_rule": DECISION_RULE,
        "achieved_accuracy": h.achieved_accuracy,
        "network": network_to_obj(h.head),
    }


def characterizer_from_obj(obj: dict) -> Characterizer:
    if not isinstance(obj, dict):
        raise ParseError("characterizer file must contain a JSON object")
    rule = obj["decision_rule"]
    if rule != DECISION_RULE:
        raise ParseError(f"unsupported decision rule {rule!r}")
    return Characterizer(
        head=network_from_obj(obj["network"]),
        property_id=str(obj["property_id"]),
        achieved_accuracy=float(obj["achieved_accuracy"]),
    )


def save_characterizer(h: Characterizer, path: str) -> None:
    write_json(characterizer_to_obj(h), path)


def load_characterizer(path: str) -> Characterizer:
    return read_json(path, characterizer_from_obj)
