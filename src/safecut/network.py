"""Feed-forward network representation, evaluation and interval steps.

Layer indexing convention: *position* l means "after layer l", so position 0
is the network input and position L the final output.  ``forward(net, x, a, b)``
evaluates layers a+1..b, i.e. g^(b) ∘ ... ∘ g^(a+1).

There is one forward pass, and it is row-exact: `forward` takes a vector or
a batch of rows, made C-contiguous, and a dense layer computes both with the
one expression ``(W @ x[..., None])[..., 0] + b``, a matrix-vector
product per row rather than one matrix-matrix product over the batch, whose
blocking would change the last bits of a row with the batch it arrives in.
A vector is a batch of one row to that expression, so a row's activation has
the same bits alone, in any chunk of a stream, and in the batch a dataset
envelope was built from.

A layer's concrete and interval semantics sit together: beside `apply`, each
layer's `propagate(lo, hi)` maps a box to the interval hull of its image.
Bounds are rounded to nearest, not outward.  An infinite endpoint gives an
infinite bound, never NaN: a zero weight or scale times it contributes 0.
A step that overflows warns nothing and stays sound: a lower bound that comes
out NaN or +inf becomes -inf, an upper one that comes out NaN or -inf becomes
+inf.  Every finite bound keeps its bits.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from .errors import ParseError, ShapeError
from .jsonio import integer, read_json, write_json


def _dot(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """w @ x, except that a zero weight times an infinite entry contributes 0."""
    if np.isfinite(x).all():
        return w @ x
    return (w * np.where(w == 0.0, 0.0, x)).sum(axis=1)


def _times(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a * x, except that a zero factor times an infinite entry gives 0."""
    if np.isfinite(x).all():
        return a * x
    return a * np.where(a == 0.0, 0.0, x)


def _loosen(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An overflowed bound (NaN, or infinite on the wrong side) made infinite
    on its own side: only looser, so still sound."""
    return (np.where(np.isnan(lo) | (lo == np.inf), -np.inf, lo),
            np.where(np.isnan(hi) | (hi == -np.inf), np.inf, hi))


@dataclass(frozen=True)
class Dense:
    weights: np.ndarray  # (d_out, d_in)
    bias: np.ndarray  # (d_out,)

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if w.ndim != 2 or b.ndim != 1:
            raise ShapeError("dense layer expects a 2-d weight matrix and 1-d bias")
        if w.shape[0] != b.shape[0]:
            raise ShapeError(
                f"dense bias length {b.shape[0]} != weight row count {w.shape[0]}"
            )
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError("dense layer contains non-finite parameters")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """W @ row + b for a vector or for each row of a batch, one gemv per row."""
        return (self.weights @ x[..., None])[..., 0] + self.bias

    @np.errstate(over="ignore", invalid="ignore")
    def propagate(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Interval image of [lo, hi] via sign-split weights: exact for boxes."""
        wp = np.maximum(self.weights, 0.0)
        wn = np.minimum(self.weights, 0.0)
        return _loosen(_dot(wp, lo) + _dot(wn, hi) + self.bias,
                       _dot(wp, hi) + _dot(wn, lo) + self.bias)


@dataclass(frozen=True)
class Relu:
    dimension: int

    def __post_init__(self) -> None:
        if self.dimension <= 0:
            raise ShapeError("relu dimension must be positive")

    @property
    def in_dim(self) -> int:
        return self.dimension

    @property
    def out_dim(self) -> int:
        return self.dimension

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)

    def propagate(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.maximum(lo, 0.0), np.maximum(hi, 0.0)


@dataclass(frozen=True)
class BatchNorm:
    scale: np.ndarray
    offset: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    epsilon: float

    def __post_init__(self) -> None:
        vecs = {}
        for name in ("scale", "offset", "mean", "variance"):
            v = np.asarray(getattr(self, name), dtype=np.float64)
            if v.ndim != 1:
                raise ShapeError(f"batchnorm {name} must be a vector")
            if not np.isfinite(v).all():
                raise ValueError(f"batchnorm {name} contains non-finite entries")
            vecs[name] = v
        lengths = {v.shape[0] for v in vecs.values()}
        if len(lengths) != 1:
            raise ShapeError("batchnorm parameter vectors have unequal lengths")
        if (vecs["variance"] < 0).any():
            raise ValueError("batchnorm variance entries must be >= 0")
        if not self.epsilon > 0:
            raise ValueError("batchnorm epsilon must be > 0")
        for name, v in vecs.items():
            object.__setattr__(self, name, v)
        object.__setattr__(self, "epsilon", float(self.epsilon))

    @property
    def in_dim(self) -> int:
        return self.scale.shape[0]

    @property
    def out_dim(self) -> int:
        return self.scale.shape[0]

    def affine(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (a, c) with apply(x) = a*x + c (inference-mode folding)."""
        a = self.scale / np.sqrt(self.variance + self.epsilon)
        c = self.offset - a * self.mean
        return a, c

    def apply(self, x: np.ndarray) -> np.ndarray:
        a, c = self.affine()
        return a * x + c

    @np.errstate(over="ignore", invalid="ignore")
    def propagate(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-channel affine map; the endpoint images bracket the output."""
        a, c = self.affine()
        lo_img = _times(a, lo) + c
        hi_img = _times(a, hi) + c
        return _loosen(np.minimum(lo_img, hi_img), np.maximum(lo_img, hi_img))


Layer = Union[Dense, Relu, BatchNorm]


@dataclass(frozen=True)
class Network:
    layers: tuple
    input_dim: int

    def __post_init__(self) -> None:
        layers = tuple(self.layers)
        if not layers:
            raise ShapeError("network needs at least one layer")
        if self.input_dim <= 0:
            raise ShapeError("input_dim must be positive")
        prev = self.input_dim
        for i, layer in enumerate(layers, start=1):
            if layer.in_dim != prev:
                raise ShapeError(
                    f"layer {i} expects input dim {layer.in_dim}, got {prev}"
                )
            prev = layer.out_dim
        object.__setattr__(self, "layers", layers)

    @property
    def depth(self) -> int:
        return len(self.layers)

    def dim_at(self, position: int) -> int:
        """Vector dimension at position l (0 = input, depth = output)."""
        if not 0 <= position <= self.depth:
            raise ShapeError(f"position {position} outside [0, {self.depth}]")
        if position == 0:
            return self.input_dim
        return self.layers[position - 1].out_dim

    def cut_dim(self, position: int) -> int:
        """Dimension at cut position l, which must lie in [1, depth): a cut
        splits the network into a nonempty prefix and a nonempty suffix."""
        if not 1 <= position < self.depth:
            raise ShapeError(f"cut position {position} outside [1, {self.depth})")
        return self.dim_at(position)


def _layer_range(net: Network, from_layer: int, to_layer: Optional[int]) -> tuple:
    if to_layer is None:
        to_layer = net.depth
    if not 0 <= from_layer < to_layer <= net.depth:
        raise ShapeError(
            f"invalid layer range [{from_layer}, {to_layer}] for depth {net.depth}"
        )
    return net.layers[from_layer:to_layer]


def forward(
    net: Network,
    x: Union[Sequence[float], np.ndarray],
    from_layer: int = 0,
    to_layer: Optional[int] = None,
) -> np.ndarray:
    """Evaluate layers from_layer+1 .. to_layer on a vector (d_from,) or on
    each row of a batch (n, d_from).

    Row-exact: a row's result does not depend on the other rows, nor on
    whether it arrives alone.
    """
    layers = _layer_range(net, from_layer, to_layer)
    m = np.asarray(x, dtype=np.float64, order="C")
    d = net.dim_at(from_layer)
    if m.ndim not in (1, 2) or m.shape[-1] != d:
        what = "input length" if m.ndim == 1 else "batch shape"
        raise ShapeError(f"{what} {m.shape} does not match dim {d} at position {from_layer}")
    for layer in layers:
        m = layer.apply(m)
    return m


# ---------------------------------------------------------------------------
# serialization


def _layer_from_obj(obj: dict, index: int, prev: int) -> Layer:
    """Layer `index` (1-based) of a network file; `prev` is its input dimension."""
    try:
        kind = obj["type"]
    except (TypeError, KeyError):
        raise ParseError(f"layer {index}: missing 'type'") from None
    if kind == "relu":
        return Relu(prev)
    try:
        if kind == "dense":
            return Dense(np.array(obj["weights"], dtype=np.float64),
                         np.array(obj["bias"], dtype=np.float64))
        if kind == "batchnorm":
            return BatchNorm(
                np.array(obj["scale"], dtype=np.float64),
                np.array(obj["offset"], dtype=np.float64),
                np.array(obj["mean"], dtype=np.float64),
                np.array(obj["variance"], dtype=np.float64),
                float(obj["epsilon"]),
            )
    except KeyError as exc:
        raise ParseError(f"layer {index} ({kind}): missing field {exc}") from None
    except (TypeError, ValueError, ShapeError) as exc:
        raise type(exc)(f"layer {index}: {exc}") from None
    raise ParseError(f"layer {index}: unknown layer type {kind!r}")


def network_from_obj(obj: dict) -> Network:
    if not isinstance(obj, dict):
        raise ParseError("network file must contain a JSON object")
    input_dim = integer(obj, "input_dim")
    layer_objs = obj["layers"]
    if not isinstance(layer_objs, list) or not layer_objs:
        raise ParseError("'layers' must be a nonempty list")

    layers: List[Layer] = []
    prev = input_dim
    for i, lobj in enumerate(layer_objs, start=1):
        layers.append(_layer_from_obj(lobj, i, prev))
        prev = layers[-1].out_dim
    return Network(tuple(layers), input_dim)


def load_network(path: str) -> Network:
    return read_json(path, network_from_obj)


def network_to_obj(net: Network) -> dict:
    layers = []
    for layer in net.layers:
        if isinstance(layer, Dense):
            layers.append({
                "type": "dense",
                "weights": layer.weights.tolist(),
                "bias": layer.bias.tolist(),
            })
        elif isinstance(layer, Relu):
            layers.append({"type": "relu"})
        else:
            layers.append({
                "type": "batchnorm",
                "scale": layer.scale.tolist(),
                "offset": layer.offset.tolist(),
                "mean": layer.mean.tolist(),
                "variance": layer.variance.tolist(),
                "epsilon": layer.epsilon,
            })
    return {"input_dim": net.input_dim, "layers": layers}


def save_network(net: Network, path: str) -> None:
    write_json(network_to_obj(net), path)


# ---------------------------------------------------------------------------
# datasets


@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray  # (n, d0)
    labels: Optional[np.ndarray] = None  # (n,) of {0,1}, or None

    def __post_init__(self) -> None:
        xs = np.asarray(self.inputs, dtype=np.float64)
        if xs.ndim != 2:
            raise ShapeError("dataset inputs must be a 2-d array")
        object.__setattr__(self, "inputs", xs)
        if self.labels is not None:
            ys = np.asarray(self.labels)
            if ys.shape != (xs.shape[0],):
                raise ShapeError("label count does not match sample count")
            if not np.isin(ys, (0, 1)).all():
                raise ValueError("labels must be in {0, 1}")
            object.__setattr__(self, "labels", ys.astype(np.int64))

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


def load_dataset(path: str, expected_dim: Optional[int] = None) -> Dataset:
    """Load a CSV dataset with required header x0..x{d-1}[,label]."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        has_label = bool(header) and header[-1] == "label"
        feature_cols = header[:-1] if has_label else header
        expected_header = [f"x{i}" for i in range(len(feature_cols))]
        if feature_cols != expected_header:
            raise ParseError(
                f"{path}: header must name columns x0..x{len(feature_cols)-1}"
                f"[,label]; got {header!r}"
            )
        if expected_dim is not None and len(feature_cols) != expected_dim:
            raise ShapeError(
                f"{path}: dataset has {len(feature_cols)} feature columns, "
                f"expected {expected_dim}"
            )

        rows: List[List[float]] = []
        linenos: List[int] = []
        labels: List[int] = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # tolerate blank lines
            if len(row) != len(header):
                raise ParseError(
                    f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}"
                )
            try:
                rows.append([float(c) for c in row[: len(feature_cols)]])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric feature value") from None
            linenos.append(lineno)
            if has_label:
                raw = row[-1].strip()
                if raw not in ("0", "1"):
                    raise ParseError(
                        f"{path}:{lineno}: label must be 0 or 1, got {raw!r}"
                    )
                labels.append(int(raw))

    if not rows:
        inputs = np.zeros((0, len(feature_cols)))
    else:
        inputs = np.array(rows, dtype=np.float64)
    # float() also takes nan, inf and 1e400, which no network input may be
    finite = np.isfinite(inputs).all(axis=1)
    if not finite.all():
        raise ParseError(f"{path}:{linenos[int(np.argmin(finite))]}: non-finite feature value")
    return Dataset(inputs, np.array(labels, dtype=np.int64) if has_label else None)
