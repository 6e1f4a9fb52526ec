import numpy as np
import pytest

from safecut.bounds import (
    ActivationBounds,
    InputBox,
    bounds_to_obj,
    contains,
    dataset_bounds,
    load_bounds,
    save_bounds,
    static_bounds,
    widen,
)
from safecut.errors import EmptyDatasetError, ParseError, ShapeError
from safecut.network import Dataset, Dense, Network, forward, forward_batch

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
    assert all(contains(b, a, tol=0.0) for a in acts)


def test_static_bounds_sound_monte_carlo():
    rng = np.random.default_rng(7)
    for _ in range(5):
        net, lo, hi = synth.random_full_network(rng)
        cut = max(1, net.depth - 1)
        b = static_bounds(net, InputBox(lo=lo, hi=hi), layer=cut)
        xs = rng.uniform(lo, hi, size=(2000, len(lo)))
        acts = forward_batch(net, xs, 0, cut)
        assert (acts >= b.lo - 1e-12).all() and (acts <= b.hi + 1e-12).all()


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
    with pytest.raises(ValueError):
        widen(b, -0.1)


def test_contains_checks_diffs_too():
    b = ActivationBounds(
        layer=1,
        lo=np.array([0.0, 0.0]),
        hi=np.array([2.0, 2.0]),
        diff_lo=np.array([-0.5]),
        diff_hi=np.array([0.5]),
    )
    assert contains(b, np.array([1.0, 1.2]))
    assert not contains(b, np.array([0.0, 2.0]))  # box ok, diff 2.0 too big
    assert not contains(b, np.array([3.0, 3.0]))
    assert contains(b, np.array([0.0, 0.6]), tol=0.1)


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


def test_bounds_json_roundtrip(tmp_path, tiny_net):
    rng = np.random.default_rng(9)
    ds = Dataset(inputs=rng.normal(size=(50, 2)))
    b = dataset_bounds(tiny_net, ds, layer=2)
    p = tmp_path / "b.json"
    save_bounds(b, str(p))
    back = load_bounds(str(p))
    assert bounds_to_obj(back) == bounds_to_obj(b)
    assert np.array_equal(back.lo, b.lo) and np.array_equal(back.hi, b.hi)
