import warnings

import numpy as np
import pytest

from safecut.bounds import ActivationBounds, dataset_bounds
from safecut.characterizer import Characterizer
from safecut.errors import ShapeError
from safecut.milp import RiskClause, RiskCondition, SafetyQuery
from safecut.monitor import (
    MonitorReport,
    StreamError,
    Violation,
    check,
    check_containment,
    monitor_stream,
    report_to_obj,
    violations,
)
from safecut.network import Dataset, Dense, Network, forward, forward_batch
from safecut.verifier import replay_witness

import synth


def _scalar_bounds(lo=-0.1, hi=0.6):
    return ActivationBounds(layer=1, lo=np.array([lo]), hi=np.array([hi]))


def test_scalar_containment():
    b = _scalar_bounds()
    assert check_containment(b, [0.3]) is True
    assert check_containment(b, [0.7]) is False
    assert check_containment(b, [-0.2]) is False


def test_boundary_counts_as_contained():
    b = _scalar_bounds()
    assert check_containment(b, [-0.1]) is True
    assert check_containment(b, [0.6]) is True


def test_all_violations_reported_not_just_first():
    b = ActivationBounds(
        layer=1,
        lo=np.zeros(3),
        hi=np.ones(3),
        diff_lo=np.array([-0.5, -0.5]),
        diff_hi=np.array([0.5, 0.5]),
    )
    rep = check(b, [2.0, -1.0, 0.5])
    kinds = [(v.kind, v.index) for v in rep.violations]
    # both box violations plus the first diff (-3.0) and second diff (1.5)
    assert ("box", 0) in kinds and ("box", 1) in kinds
    assert ("diff", 0) in kinds and ("diff", 1) in kinds
    assert rep.contained is False


def test_diff_violation_with_box_satisfied():
    b = ActivationBounds(
        layer=1,
        lo=np.zeros(2),
        hi=np.ones(2),
        diff_lo=np.array([-0.1]),
        diff_hi=np.array([0.1]),
    )
    rep = check(b, [0.1, 0.9])
    assert [v.kind for v in rep.violations] == ["diff"]
    assert rep.violations[0].value == pytest.approx(0.8)


def test_tolerance_that_overflows_a_bound_is_silent():
    # witness replay pads the bounds by its tolerance before the exact test;
    # lo - tol and hi + tol overflow to the infinity on their own side, with
    # no RuntimeWarning
    b = ActivationBounds(
        layer=1, lo=np.array([-1e308, 0.0]), hi=np.array([1e308, 1.0]),
        diff_lo=np.array([-1e308]), diff_hi=np.array([1e308]),
    )
    zero = Network(layers=(Dense(np.zeros((1, 2)), np.zeros(1)),), input_dim=2)
    query = SafetyQuery(
        cut_layer=1, bounds=b,
        characterizer=Characterizer(head=zero, property_id="p", achieved_accuracy=1.0),
        risk=RiskCondition(clauses=(RiskClause(coeffs=np.array([1.0]), op=">=", rhs=0.0),)),
    )
    net = Network(layers=(Dense(np.eye(2), np.zeros(2)),) + zero.layers, input_dim=2)
    # the last row is inside only because its pads overflow to -inf / +inf
    acts = np.array([[-1e308, 0.5], [0.0, 1e308], [1.0, 1.25], [1.7e308, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wide = [replay_witness(net, query, a, tol=1e308)["in_bounds"] for a in acts]
        narrow = [replay_witness(net, query, a, tol=0.5)["in_bounds"] for a in acts]
    assert wide == [True] * 4
    assert narrow == [True, False, True, False]


def test_overflowing_difference_is_infinite_and_silent():
    # 1e308 - -1e308 overflows: outside every finite diff bound, no warning;
    # the stream makes the row an error, since its report would print
    # -Infinity
    b = ActivationBounds(
        layer=1, lo=np.full(3, -1e308), hi=np.full(3, 1e308),
        diff_lo=np.full(2, -1.0), diff_hi=np.full(2, 1.0),
    )
    rows = np.array([[1e308, -1e308, 0.0], [0.5, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = violations(b, rows)
        out = list(monitor_stream(None, b, rows, precomputed=True))
    assert list(found) == [0]
    assert [(v.kind, v.index, v.value) for v in found[0]] == [
        ("diff", 0, -np.inf), ("diff", 1, 1e308)
    ]
    assert [type(r) for r in out] == [StreamError, MonitorReport]
    assert "adjacent difference" in out[0].message and out[1].contained


def test_dimension_mismatch_raises():
    with pytest.raises(ShapeError):
        check(_scalar_bounds(), [0.0, 1.0])


def test_dataset_replay_is_contained_at_zero_tolerance():
    rng = np.random.default_rng(17)
    net, _, _ = synth.random_full_network(rng)
    X = rng.normal(size=(80, net.input_dim))
    layer = max(1, net.depth // 2)
    b = dataset_bounds(net, Dataset(inputs=X), layer)
    acts = forward_batch(net, X, 0, layer)
    for x, act in zip(X, acts):
        assert check_containment(b, act)
        assert check_containment(b, forward(net, x, 0, layer))


def test_wide_envelope_dataset_streams_without_false_alarms():
    # the envelope and the monitor share the row-exact forward pass, so a
    # wide net's own rows stay inside, one row at a time
    rng = np.random.default_rng(23)
    net = synth.wide_network(rng)
    X = rng.uniform(-1.0, 1.0, (600, net.input_dim))
    b = dataset_bounds(net, Dataset(inputs=X), synth.WIDE_CUT)
    reports = list(monitor_stream(net, b, X))
    assert len(reports) == len(X)
    assert [r.violations for r in reports if not r.contained] == []


def _check_loop(bounds, v):
    # the per-index reference loop the batch containment test replaces
    found = []
    for i in range(v.shape[0]):
        if not bounds.lo[i] <= v[i] <= bounds.hi[i]:
            found.append(Violation("box", i, float(v[i]), float(bounds.lo[i]), float(bounds.hi[i])))
    if bounds.has_diffs:
        d = np.diff(v)
        for i in range(d.shape[0]):
            if not bounds.diff_lo[i] <= d[i] <= bounds.diff_hi[i]:
                found.append(
                    Violation(
                        "diff", i, float(d[i]), float(bounds.diff_lo[i]), float(bounds.diff_hi[i])
                    )
                )
    return tuple(found)


@pytest.mark.parametrize("with_diffs", [True, False])
def test_batch_violations_match_per_index_loop(with_diffs):
    rng = np.random.default_rng(31)
    X = rng.normal(size=(400, 6))
    b = dataset_bounds(
        Network(layers=(Dense(np.eye(6), np.zeros(6)),) * 2, input_dim=6),
        Dataset(inputs=X[:200]),
        1,
        with_diffs=with_diffs,
    )
    acts = X * rng.uniform(0.8, 1.3, X.shape)
    acts[::7, 2] = np.nan  # compares false on both sides: outside every interval
    found = violations(b, acts)
    want = {r: _check_loop(b, acts[r]) for r in range(len(acts))}
    # repr, since a NaN value never equals itself
    assert repr(found) == repr({r: v for r, v in want.items() if v})
    assert 0 < len(found) < len(acts)
    assert all(r in found for r in range(0, len(acts), 7))
    for r in range(len(acts)):
        rep = check(b, acts[r], sample_id=str(r))
        assert repr(rep.violations) == repr(want[r]) and rep.sample_id == str(r)


def test_stream_maps_inputs_through_network():
    net = Network(
        layers=(Dense(weights=np.array([[2.0]]), bias=np.array([0.0])),),
        input_dim=1,
    )
    b = _scalar_bounds(lo=0.0, hi=1.0)
    reports = list(monitor_stream(net, b, [[0.25], [0.75]]))
    assert reports[0].contained is True   # 2*0.25 = 0.5
    assert reports[1].contained is False  # 2*0.75 = 1.5


def test_stream_refuses_non_finite_cells_and_activations():
    net = Network(
        layers=(Dense(weights=np.array([[1.0, 1.0]]), bias=np.array([0.0])),),
        input_dim=2,
    )
    b = _scalar_bounds(lo=0.0, hi=1.0)
    rows = [[0.25, 0.25], [np.nan, 0.0], [np.inf, 0.0], [1e308, 1e308], [0.0, 9.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is reported, not warned
        out = list(monitor_stream(net, b, rows))
    assert [type(r) for r in out] == [MonitorReport] + [StreamError] * 3 + [MonitorReport]
    assert "non-finite value" in out[1].message and "non-finite value" in out[2].message
    assert "activation is not finite" in out[3].message
    out = list(monitor_stream(None, b, [[np.nan], [-np.inf], [0.5]], precomputed=True))
    assert [type(r) for r in out] == [StreamError, StreamError, MonitorReport]


def test_stream_precomputed_rows_skip_network():
    b = _scalar_bounds(lo=0.0, hi=1.0)
    reports = list(monitor_stream(None, b, [[0.5], [1.5]], precomputed=True))
    assert [r.contained for r in reports] == [True, False]


def test_stream_survives_malformed_rows():
    b = _scalar_bounds(lo=0.0, hi=1.0)
    rows = [[0.5], [0.1, 0.2], [0.9]]  # middle row has the wrong arity
    out = list(monitor_stream(None, b, rows, precomputed=True))
    assert isinstance(out[0], MonitorReport)
    assert isinstance(out[1], StreamError)
    assert out[1].sample_id == "1"
    assert isinstance(out[2], MonitorReport)  # stream kept going


def test_stream_requires_network_for_raw_inputs():
    b = _scalar_bounds()
    out = list(monitor_stream(None, b, [[0.5]]))
    assert isinstance(out[0], StreamError)
    assert "network" in out[0].message


def test_perturbed_samples_eventually_escape_envelope():
    rng = np.random.default_rng(5)
    net, _, _ = synth.random_full_network(rng)
    X = rng.normal(size=(60, net.input_dim))
    layer = max(1, net.depth // 2)
    b = dataset_bounds(net, Dataset(inputs=X), layer)
    escaped = 0
    for x in X:
        act = forward(net, 100.0 * x, 0, layer)
        escaped += not check_containment(b, act)
    assert escaped > len(X) // 2  # x100 inputs blow well past the envelope


def test_report_to_obj_round_trip_fields():
    b = _scalar_bounds()
    rep = check(b, [0.7], sample_id="s7")
    obj = report_to_obj(rep)
    assert obj["sample_id"] == "s7"
    assert obj["contained"] is False
    assert obj["violations"][0] == {
        "kind": "box",
        "index": 0,
        "value": 0.7,
        "bound_lo": -0.1,
        "bound_hi": 0.6,
    }
    err = report_to_obj(StreamError(sample_id="3", message="bad row"))
    assert err == {"sample_id": "3", "error": "bad row"}


def test_monitor_report_contained_is_derived_from_violations():
    outside = Violation("box", 0, 0.7, -0.1, 0.6)
    assert MonitorReport(()).contained is True
    assert MonitorReport((outside,), "s1").contained is False
    assert check(_scalar_bounds(), [0.7]).violations == (outside,)
