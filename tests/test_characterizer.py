import numpy as np
import pytest

from safecut.characterizer import (
    Characterizer,
    TrainConfig,
    characterizer_to_obj,
    decide,
    load_characterizer,
    save_characterizer,
    train,
    train_characterizer,
)
from safecut.errors import DegenerateLabelsError, ShapeError, UnlabeledDataError
from safecut.network import Dataset, Dense, Network, Relu, forward

XOR = Dataset(
    inputs=np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
    labels=np.array([0, 1, 1, 0]),
)


def _separable(n=80, seed=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = (X @ np.array([1.0, -2.0, 0.5]) > 0.3).astype(np.int64)
    if y.min() == y.max():  # paranoid, not expected at this seed
        raise RuntimeError("degenerate draw")
    return Dataset(inputs=X, labels=y)


def test_linearly_separable_reaches_perfect_accuracy():
    ds = _separable()
    h = train(ds, TrainConfig(seed=0))
    assert h.achieved_accuracy == 1.0


def test_decision_rule_is_logit_ge_zero():
    # bias exactly at the boundary: logit 0 must decide class 1
    head = Network(
        layers=(Dense(weights=np.zeros((1, 2)), bias=np.zeros(1)),), input_dim=2
    )
    h = Characterizer(head=head, property_id="p", achieved_accuracy=1.0)
    assert forward(head, np.array([3.0, -4.0]))[0] == 0.0
    assert decide(h, np.array([3.0, -4.0])) == 1


def test_xor_linear_head_cannot_fit():
    h = train(XOR, TrainConfig(seed=0))
    assert h.achieved_accuracy < 1.0


def test_xor_hidden_layer_fits():
    h = train(XOR, TrainConfig(hidden_units=4, max_epochs=4000, seed=0))
    assert h.achieved_accuracy == 1.0
    for x, want in zip(XOR.inputs, XOR.labels):
        assert decide(h, x) == want


def test_training_is_deterministic():
    ds = _separable()
    a = train(ds, TrainConfig(hidden_units=4, seed=11))
    b = train(ds, TrainConfig(hidden_units=4, seed=11))
    for la, lb in zip(a.head.layers, b.head.layers):
        if isinstance(la, Dense):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.bias, lb.bias)


def test_single_class_rejected():
    ds = Dataset(inputs=np.zeros((4, 2)), labels=np.array([1, 1, 1, 1]))
    with pytest.raises(DegenerateLabelsError):
        train(ds, TrainConfig(seed=0))


def test_unlabeled_rejected():
    ds = Dataset(inputs=np.zeros((4, 2)))
    with pytest.raises(UnlabeledDataError):
        train(ds, TrainConfig(seed=0))


def test_train_at_cut_layer(tiny_net):
    rng = np.random.default_rng(12)
    X = rng.normal(size=(120, 2))
    y = (X[:, 0] > 0).astype(np.int64)
    ds = Dataset(inputs=X, labels=y)
    h = train_characterizer(tiny_net, ds, 2, TrainConfig(seed=0))
    assert h.in_dim == tiny_net.dim_at(2) == 3
    # feature x0 survives the cut (first neuron is relu(x0)) only for x0 > 0;
    # a linear head can still do well but we only pin the interface here
    assert 0.5 <= h.achieved_accuracy <= 1.0


def test_head_shape_gate():
    deep = Network(
        layers=(
            Dense(weights=np.zeros((2, 2)), bias=np.zeros(2)),
            Relu(dimension=2),
            Dense(weights=np.zeros((2, 2)), bias=np.zeros(2)),
            Relu(dimension=2),
            Dense(weights=np.zeros((1, 2)), bias=np.zeros(1)),
        ),
        input_dim=2,
    )
    with pytest.raises(ShapeError):
        Characterizer(head=deep, property_id="p", achieved_accuracy=1.0)
    wide = Network(layers=(Dense(weights=np.zeros((2, 2)), bias=np.zeros(2)),), input_dim=2)
    with pytest.raises(ShapeError):
        Characterizer(head=wide, property_id="p", achieved_accuracy=1.0)


def test_save_load_roundtrip(tmp_path):
    ds = _separable()
    h = train(ds, TrainConfig(hidden_units=4, seed=2), property_id="prop-7")
    p = tmp_path / "h.json"
    save_characterizer(h, str(p))
    back = load_characterizer(str(p))
    assert back.property_id == "prop-7"
    assert back.achieved_accuracy == h.achieved_accuracy
    assert characterizer_to_obj(back) == characterizer_to_obj(h)
    x = ds.inputs[0]
    assert forward(back.head, x)[0] == forward(h.head, x)[0]
