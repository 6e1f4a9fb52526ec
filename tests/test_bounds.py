import warnings

import numpy as np
import pytest

from safecut.bounds import (
    ActivationBounds,
    InputBox,
    bounds_to_obj,
    dataset_bounds,
    load_bounds,
    save_bounds,
    static_bounds,
    widen,
)
from safecut.errors import EmptyDatasetError, ParseError, ShapeError
from safecut.monitor import check_containment
from safecut.network import Dataset, Dense, Network, forward, forward_batch

import oracles
import synth


def _identity_net(d, depth=2):
    return Network(
        layers=tuple(Dense(weights=np.eye(d), bias=np.zeros(d)) for _ in range(depth)),
        input_dim=d,
    )


def test_envelope_of_scalar_samples():
    # the worked single-neuron example: observations {0, 0.1, -0.1, 0.6}
    net = _identity_net(1)
    ds = Dataset(inputs=np.array([[0.0], [0.1], [-0.1], [0.6]]))
    b = dataset_bounds(net, ds, layer=1)
    assert b.lo[0] == -0.1 and b.hi[0] == 0.6
    assert b.provenance == "dataset" and b.sample_count == 4
    assert b.diff_lo is None  # one neuron, no adjacent pair


def test_dataset_bounds_match_brute_force(tiny_net):
    rng = np.random.default_rng(5)
    ds = Dataset(inputs=rng.normal(size=(300, 2)))
    b = dataset_bounds(tiny_net, ds, layer=2)
    acts = forward_batch(tiny_net, ds.inputs, 0, 2)
    assert np.array_equal(b.lo, acts.min(axis=0))
    assert np.array_equal(b.hi, acts.max(axis=0))
    diffs = np.diff(acts, axis=1)
    assert np.array_equal(b.diff_lo, diffs.min(axis=0))
    assert np.array_equal(b.diff_hi, diffs.max(axis=0))


def test_dataset_bounds_contain_their_samples(tiny_net):
    rng = np.random.default_rng(6)
    ds = Dataset(inputs=rng.uniform(-2, 2, size=(500, 2)))
    b = dataset_bounds(tiny_net, ds, layer=2)
    acts = forward_batch(tiny_net, ds.inputs, 0, 2)
    assert all(check_containment(b, a) for a in acts)


def test_static_bounds_sound_monte_carlo():
    rng = np.random.default_rng(7)
    for _ in range(5):
        net, lo, hi = synth.random_full_network(rng)
        cut = max(1, net.depth - 1)
        b = static_bounds(net, InputBox(lo=lo, hi=hi), layer=cut)
        xs = rng.uniform(lo, hi, size=(2000, len(lo)))
        acts = forward_batch(net, xs, 0, cut)
        assert (acts >= b.lo - 1e-12).all() and (acts <= b.hi + 1e-12).all()


def test_static_bounds_keep_the_oracle_bits():
    # each layer's `propagate`, chained or through static_bounds, gives the
    # bytes of the oracle's restated interval arithmetic, BatchNorm included
    rng = np.random.default_rng(17)
    for _ in range(20):
        net, lo, hi = synth.random_batchnorm_network(rng)
        trail = oracles.interval_trail(net.layers, lo, hi)
        step_lo, step_hi = lo, hi
        for position, layer in enumerate(net.layers, start=1):
            step_lo, step_hi = layer.propagate(step_lo, step_hi)
            assert step_lo.tobytes() == trail[position][0].tobytes()
            assert step_hi.tobytes() == trail[position][1].tobytes()
        for cut in range(1, net.depth):
            b = static_bounds(net, InputBox(lo=lo, hi=hi), layer=cut)
            assert b.lo.tobytes() == trail[cut][0].tobytes()
            assert b.hi.tobytes() == trail[cut][1].tobytes()


def test_static_bounds_of_an_infinite_box(tiny_net):
    box = InputBox(lo=np.full(2, -np.inf), hi=np.full(2, np.inf))
    with np.errstate(all="raise"):
        b = static_bounds(tiny_net, box, layer=2)  # dense, then relu
    assert b.lo.tolist() == [0.0] * 3 and b.hi.tolist() == [np.inf] * 3


@pytest.mark.parametrize("lo, hi, message", [
    (np.nan, 1.0, r"input box lo\[0\] is NaN"),
    (0.0, np.nan, r"input box hi\[0\] is NaN"),
    (np.inf, np.inf, r"input box lo\[0\] is \+inf"),
    (-np.inf, -np.inf, r"input box hi\[0\] is -inf"),
])
def test_input_box_refuses_nan_and_wrong_side_inf(lo, hi, message):
    with pytest.raises(ParseError, match=message):
        InputBox(lo=np.array([lo, 0.0]), hi=np.array([hi, 1.0]))
    assert InputBox(lo=np.array([-np.inf, 0.0]), hi=np.array([np.inf, 1.0])).dim == 2


def test_static_dominates_dataset(tiny_net):
    # the sound box can never be tighter than any empirical envelope inside it
    rng = np.random.default_rng(8)
    lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    ds = Dataset(inputs=rng.uniform(lo, hi, size=(200, 2)))
    sb = static_bounds(tiny_net, InputBox(lo=lo, hi=hi), layer=2)
    db = dataset_bounds(tiny_net, ds, layer=2)
    assert (sb.lo <= db.lo).all() and (sb.hi >= db.hi).all()


def test_widen_formula():
    b = ActivationBounds(layer=1, lo=np.array([0.0]), hi=np.array([1.0]))
    w = widen(b, 0.1)
    assert w.lo[0] == pytest.approx(-0.1) and w.hi[0] == pytest.approx(1.1)
    # endpoints below 1 in magnitude pad by the absolute margin
    b2 = ActivationBounds(layer=1, lo=np.array([-0.1]), hi=np.array([0.6]))
    w2 = widen(b2, 0.05)
    assert w2.lo[0] == pytest.approx(-0.15) and w2.hi[0] == pytest.approx(0.65)
    # large endpoints pad relative to magnitude
    b3 = ActivationBounds(layer=1, lo=np.array([-10.0]), hi=np.array([20.0]))
    w3 = widen(b3, 0.1)
    assert w3.lo[0] == pytest.approx(-11.0) and w3.hi[0] == pytest.approx(22.0)


def test_widen_monotone_and_diff_aware():
    b = ActivationBounds(
        layer=1,
        lo=np.array([0.0, 1.0]),
        hi=np.array([1.0, 2.0]),
        diff_lo=np.array([0.5]),
        diff_hi=np.array([1.5]),
    )
    w = widen(b, 0.2)
    assert (w.lo <= b.lo).all() and (w.hi >= b.hi).all()
    assert w.diff_lo[0] < b.diff_lo[0] and w.diff_hi[0] > b.diff_hi[0]
    assert widen(b, 0.0).lo.tolist() == b.lo.tolist()
    # a zero margin keeps an infinite endpoint (0 * inf would be NaN)
    inf = ActivationBounds(layer=1, lo=np.array([-np.inf]), hi=np.array([np.inf]))
    assert widen(inf, 0.0) is inf
    with pytest.raises(ValueError):
        widen(b, -0.1)


def test_widen_overflow_is_infinite_on_its_own_side_and_silent():
    # a finite bound whose pad overflows becomes -inf / +inf with no
    # RuntimeWarning; the finite results keep the formula's bits
    b = ActivationBounds(
        layer=1,
        lo=np.array([-1e308, 1e308, -2.0]),
        hi=np.array([1e308, 1e308, 3.0]),
        diff_lo=np.array([-1e308, -1.0]),
        diff_hi=np.array([1e308, 1.0]),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = widen(b, 1.0)
        big = widen(b, 1e300)  # the product margin * |v| overflows too
    assert w.lo.tolist() == [-np.inf, 0.0, -4.0] and w.hi.tolist() == [np.inf, np.inf, 6.0]
    assert w.diff_lo.tolist() == [-np.inf, -2.0] and w.diff_hi.tolist() == [np.inf, 2.0]
    assert big.lo.tolist() == [-np.inf, -np.inf, -2.0 - 1e300 * 2.0]
    assert big.hi.tolist() == [np.inf, np.inf, 3.0 + 1e300 * 3.0]
    m = 0.1
    small = widen(b, m)
    assert small.lo[2] == -2.0 - m * 2.0 and small.hi[2] == 3.0 + m * 3.0


def test_contains_checks_diffs_too():
    b = ActivationBounds(
        layer=1,
        lo=np.array([0.0, 0.0]),
        hi=np.array([2.0, 2.0]),
        diff_lo=np.array([-0.5]),
        diff_hi=np.array([0.5]),
    )
    assert check_containment(b, np.array([1.0, 1.2]))
    assert not check_containment(b, np.array([0.0, 2.0]))  # box ok, diff 2.0 too big
    assert not check_containment(b, np.array([3.0, 3.0]))
    assert check_containment(widen(b, 0.1), np.array([0.0, 0.6]))  # diff 0.6 <= 0.5 + 0.1


def test_bounds_validation():
    with pytest.raises(ShapeError):
        ActivationBounds(layer=1, lo=np.array([1.0]), hi=np.array([0.0]))
    with pytest.raises(ShapeError):
        ActivationBounds(
            layer=1,
            lo=np.zeros(3),
            hi=np.ones(3),
            diff_lo=np.zeros(1),  # wrong length, needs d-1 = 2
            diff_hi=np.zeros(1),
        )
    with pytest.raises(EmptyDatasetError):
        dataset_bounds(_identity_net(1), Dataset(inputs=np.zeros((0, 1))), 1)


@pytest.mark.parametrize("field", ["lo", "hi", "diff_lo", "diff_hi"])
def test_bounds_refuse_nan_accept_inf(field):
    vectors = {"lo": np.zeros(3), "hi": np.ones(3),
               "diff_lo": -np.ones(2), "diff_hi": np.ones(2)}
    vectors[field][1] = np.nan
    with pytest.raises(ParseError, match=rf"{field}\[1\] is NaN"):
        ActivationBounds(layer=1, **vectors)
    vectors[field][1] = -np.inf if field.endswith("lo") else np.inf
    assert ActivationBounds(layer=1, **vectors).dim == 3


@pytest.mark.parametrize("field", ["lo", "hi", "diff_lo", "diff_hi"])
def test_bounds_refuse_wrong_side_inf(field):
    vectors = {"lo": np.zeros(3), "hi": np.ones(3),
               "diff_lo": -np.ones(2), "diff_hi": np.ones(2)}
    lower = field.endswith("lo")
    vectors[field][1] = np.inf if lower else -np.inf
    sign = r"\+" if lower else "-"
    with pytest.raises(ParseError, match=rf"bounds {field}\[1\] is {sign}inf"):
        ActivationBounds(layer=1, **vectors)


def test_bounds_json_roundtrip(tmp_path, tiny_net):
    rng = np.random.default_rng(9)
    ds = Dataset(inputs=rng.normal(size=(50, 2)))
    b = dataset_bounds(tiny_net, ds, layer=2)
    p = tmp_path / "b.json"
    save_bounds(b, str(p))
    back = load_bounds(str(p))
    assert bounds_to_obj(back) == bounds_to_obj(b)
    assert np.array_equal(back.lo, b.lo) and np.array_equal(back.hi, b.hi)
