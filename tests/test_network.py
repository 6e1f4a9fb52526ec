import json
import warnings

import numpy as np
import pytest

from safecut.bounds import InputBox, load_bounds, static_bounds
from safecut.characterizer import load_characterizer
from safecut.errors import ParseError, ShapeError
from safecut.milp import load_query
from safecut.network import (
    BatchNorm,
    Dataset,
    Dense,
    Network,
    Relu,
    forward,
    forward_batch,
    load_dataset,
    load_network,
    network_to_obj,
    save_dataset,
    save_network,
)

import synth


def test_tiny_forward_by_hand(tiny_net):
    # pre-activations [0.5, -1.0, 2.0] -> relu [0.5, 0, 2.0] -> [0.75, 1.5]
    out = forward(tiny_net, [0.5, -1.0])
    assert out == pytest.approx([0.75, 1.5], abs=1e-12)


def test_partial_forward_composes(tiny_net):
    x = np.array([0.3, -0.7])
    mid = forward(tiny_net, x, 0, 2)
    out = forward(tiny_net, mid, 2, 3)
    full = forward(tiny_net, x)
    assert np.max(np.abs(out - full)) <= 1e-9


def test_forward_batch_matches_single(tiny_net):
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(50, 2))
    batch = forward_batch(tiny_net, xs)
    for i in range(50):
        assert np.allclose(batch[i], forward(tiny_net, xs[i]), atol=1e-12)


def test_forward_batch_is_row_exact_under_any_chunking():
    rng = np.random.default_rng(41)
    net = synth.wide_network(rng)
    X = rng.uniform(-1.0, 1.0, (300, net.input_dim))
    for to_layer in (synth.WIDE_CUT, net.depth):
        whole = forward_batch(net, X, 0, to_layer)
        per_row = np.array([forward(net, x, 0, to_layer) for x in X])
        assert np.array_equal(whole, per_row)
        for size in range(1, 9):
            chunks = [
                forward_batch(net, X[i : i + size], 0, to_layer) for i in range(0, len(X), size)
            ]
            assert np.array_equal(np.concatenate(chunks), whole), size
        cuts = np.sort(rng.choice(np.arange(1, len(X)), 25, replace=False))
        chunks = [forward_batch(net, part, 0, to_layer) for part in np.split(X, cuts)]
        assert np.array_equal(np.concatenate(chunks), whole)


def test_relu_idempotent():
    r = Relu(dimension=4)
    v = np.array([-1.0, 0.0, 2.5, -0.1])
    once = r.apply(v)
    assert np.array_equal(r.apply(once), once)
    assert (once >= 0).all()


def test_dense_is_affine():
    rng = np.random.default_rng(1)
    layer = Dense(weights=rng.normal(size=(3, 4)), bias=rng.normal(size=3))
    x, y = rng.normal(size=4), rng.normal(size=4)
    # f(x) - f(0) is linear
    f0 = layer.apply(np.zeros(4))
    lhs = layer.apply(x + y) - f0
    rhs = (layer.apply(x) - f0) + (layer.apply(y) - f0)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_batchnorm_matches_textbook_formula():
    # variance chosen so variance + epsilon hits a perfect square: the
    # hand-computed divisors below are exactly 2 and 1
    eps = 1e-5
    bn = BatchNorm(
        scale=np.array([2.0, 0.5]),
        offset=np.array([1.0, -1.0]),
        mean=np.array([0.5, 0.0]),
        variance=np.array([4.0 - eps, 1.0 - eps]),
        epsilon=eps,
    )
    x = np.array([2.5, -3.0])
    want = np.array([2.0 * (2.5 - 0.5) / 2.0 + 1.0, 0.5 * (-3.0 - 0.0) / 1.0 - 1.0])
    assert np.allclose(bn.apply(x), want, atol=1e-12)
    a, c = bn.affine()
    assert np.allclose(a * x + c, want, atol=1e-12)


def test_infinite_endpoints_give_infinite_bounds_never_nan():
    # a zero weight or a zero scale times an infinite endpoint contributes 0
    dense = Dense(
        weights=np.array([[1.0, 0.0], [0.0, 3.0], [0.0, 0.0], [-2.0, 1.0]]),
        bias=np.array([0.5, 0.0, 1.0, 0.0]),
    )
    # epsilon 0.25 and variance 0 make a = 2 * scale exactly
    bn = BatchNorm(
        scale=np.array([0.0, 1.0, -1.0]),
        offset=np.array([1.0, 0.0, 0.0]),
        mean=np.zeros(3),
        variance=np.zeros(3),
        epsilon=0.25,
    )
    with np.errstate(all="raise"):
        lo, hi = dense.propagate(np.array([-np.inf, -1.0]), np.array([np.inf, 2.0]))
        assert lo.tolist() == [-np.inf, -3.0, 1.0, -np.inf]
        assert hi.tolist() == [np.inf, 6.0, 1.0, np.inf]
        lo, hi = bn.propagate(np.array([-np.inf, -np.inf, 1.0]), np.array([np.inf, 3.0, np.inf]))
        assert lo.tolist() == [1.0, -np.inf, -np.inf]
        assert hi.tolist() == [1.0, 6.0, -2.0]
        lo, hi = Relu(dimension=2).propagate(np.array([-np.inf, 1.0]), np.array([-1.0, np.inf]))
        assert lo.tolist() == [0.0, 1.0] and hi.tolist() == [0.0, np.inf]


def test_overflowing_dense_step_loosens_to_infinity():
    # 1e308 + 1e308 overflows: lo would come out +inf although the image is 1e308
    box = np.full(3, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lo, hi = Dense(weights=np.array([[1.0, 1.0, -1.0]]), bias=np.zeros(1)).propagate(box, box)
    assert lo.tolist() == [-np.inf] and hi.tolist() == [np.inf]


def test_overflow_into_nan_loosens_to_infinity():
    # -inf + inf in both bounds: NaN, which would contain nothing
    dense = Dense(weights=np.array([[1.0, 1.0, -1.0, -1.0]]), bias=np.zeros(1))
    box = np.full(4, -1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lo, hi = dense.propagate(box, box)
    assert lo.tolist() == [-np.inf] and hi.tolist() == [np.inf]


def test_overflowing_batchnorm_step_loosens_to_infinity():
    # a = 4, so 4 * 1e308 overflows to +inf in both endpoint images
    bn = BatchNorm(scale=np.full(2, 2.0), offset=np.zeros(2), mean=np.zeros(2),
                   variance=np.zeros(2), epsilon=0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lo, hi = bn.propagate(np.array([1e308, -1.0]), np.array([1e308, 1.0]))
    assert lo.tolist() == [-np.inf, -4.0] and hi.tolist() == [np.inf, 4.0]


def test_overflowing_box_on_tiny_warns_nothing_and_keeps_finite_bits(tiny_net):
    # the -1e308 - 1e308 of the third unit overflows; the other units are exact
    box = InputBox(np.full(2, -1e308), np.full(2, 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = static_bounds(tiny_net, box, 1)
    assert b.lo.tolist() == [-1e308, -1e308, -np.inf]
    assert b.hi.tolist() == [1e308, 1e308, np.inf]


def test_dim_at(tiny_net):
    assert [tiny_net.dim_at(p) for p in range(4)] == [2, 3, 3, 2]


def test_network_rejects_dim_mismatch():
    with pytest.raises(ShapeError):
        Network(
            layers=(
                Dense(weights=np.eye(2), bias=np.zeros(2)),
                Dense(weights=np.eye(3), bias=np.zeros(3)),
            ),
            input_dim=2,
        )


def test_network_json_roundtrip(tiny_net, tmp_path):
    p = tmp_path / "net.json"
    save_network(tiny_net, str(p))
    again = load_network(str(p))
    assert network_to_obj(again) == network_to_obj(tiny_net)
    x = np.array([0.2, 0.9])
    assert np.array_equal(forward(again, x), forward(tiny_net, x))


def test_load_network_rejects_garbage(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"input_dim": 2, "layers": [{"type": "conv"}]}))
    with pytest.raises(ParseError, match="layer 1: unknown layer type 'conv'"):
        load_network(str(p))


@pytest.mark.parametrize(
    "load", [load_network, load_bounds, load_characterizer, load_query],
    ids=lambda f: f.__name__,
)
def test_loaders_name_the_file_of_invalid_json(tmp_path, load):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ParseError, match="invalid JSON") as err:
        load(str(p))
    assert str(p) in str(err.value)


def test_dense_rejects_nonfinite():
    with pytest.raises((ShapeError, ValueError)):
        Dense(weights=np.array([[np.nan]]), bias=np.zeros(1))


# --- dataset CSV ---


def test_dataset_roundtrip(tmp_path):
    ds = Dataset(
        inputs=np.array([[0.0, 1.5], [2.0, -3.0]]), labels=np.array([1, 0])
    )
    p = tmp_path / "d.csv"
    save_dataset(ds, str(p))
    back = load_dataset(str(p))
    assert np.array_equal(back.inputs, ds.inputs)
    assert np.array_equal(back.labels, ds.labels)


def test_dataset_unlabeled(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x0,x1\n0.5,1.0\n-1.0,2.0\n")
    ds = load_dataset(str(p))
    assert ds.labels is None and len(ds) == 2


def test_dataset_header_required(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("0.5,1.0\n")
    with pytest.raises(ParseError):
        load_dataset(str(p))


def test_dataset_bad_cell_reports_line(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x0,x1,label\n0.5,1.0,1\n0.1,oops,0\n")
    with pytest.raises(ParseError) as err:
        load_dataset(str(p))
    assert "3" in str(err.value)  # 1-based line number of the bad row


def test_dataset_expected_dim(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x0,x1\n0.5,1.0\n")
    with pytest.raises(ShapeError):
        load_dataset(str(p), expected_dim=3)


def test_dataset_label_values_checked():
    with pytest.raises((ParseError, ValueError, ShapeError)):
        Dataset(inputs=np.zeros((2, 2)), labels=np.array([0, 7]))


@pytest.mark.parametrize(
    "change, error",
    [
        (lambda n: n.update(input_dim=2.5), "'input_dim' must be an integer, got 2.5"),
        (lambda n: n.update(input_dim=True), "'input_dim' must be an integer, got True"),
        (lambda n: n.update(layers=[]), "'layers' must be a nonempty list"),
        (lambda n: n.clear(), "missing field 'input_dim'"),
    ],
)
def test_network_decoder_error_names_the_file(tmp_path, tiny_path, change, error):
    obj = json.loads(open(tiny_path).read())
    change(obj)
    p = tmp_path / "n.json"
    p.write_text(json.dumps(obj))
    with pytest.raises(ParseError) as err:
        load_network(str(p))
    assert str(err.value) == f"{p}: {error}"


@pytest.mark.parametrize("load", [load_network, load_bounds, load_characterizer, load_query],
                         ids=lambda f: f.__name__)
def test_loaders_name_the_file_of_a_non_object(tmp_path, load):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]")
    with pytest.raises(ParseError, match="must (contain|be) a JSON object") as err:
        load(str(p))
    assert str(err.value).startswith(f"{p}: ")
