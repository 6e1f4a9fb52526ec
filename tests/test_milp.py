import numpy as np
import pytest

from safecut.bounds import ActivationBounds, InputBox, static_bounds
from safecut.characterizer import Characterizer
from safecut.errors import (
    ParseError,
    SafecutError,
    ShapeError,
    UnboundedBigMError,
    UnsupportedLayerError,
)
from safecut.milp import (
    RiskClause,
    RiskCondition,
    SafetyQuery,
    encode,
    load_query,
    risk_from_obj,
)
from safecut.lp import format_lp
from safecut.network import Dense, Network, Relu

import oracles
import synth


def _rows(lp):
    """Each row as ({column: coefficient} over its nonzero columns, rel, rhs)."""
    return [
        ({int(j): float(row[j]) for j in np.flatnonzero(row)}, int(rel), float(rhs))
        for row, rel, rhs in zip(lp.A, lp.rels, lp.b)
    ]


def _linear_head(d, w=None, b=0.0):
    weights = np.zeros((1, d)) if w is None else np.asarray(w, float).reshape(1, d)
    head = Network(
        layers=(Dense(weights=weights, bias=np.array([float(b)])),), input_dim=d
    )
    return Characterizer(head=head, property_id="p", achieved_accuracy=1.0)


def _query(net, lo, hi, risk=None, head=None, **kw):
    lo = np.asarray(lo, float)
    bounds = ActivationBounds(layer=1, lo=lo, hi=np.asarray(hi, float), **kw)
    if risk is None:
        risk = RiskCondition(
            clauses=(RiskClause(coeffs=np.ones(net.dim_at(net.depth)), op=">=", rhs=0.0),)
        )
    return SafetyQuery(
        cut_layer=1,
        bounds=bounds,
        characterizer=head or _linear_head(len(lo), b=1.0),
        risk=risk,
    )


def _relu_net(d):
    # identity stub + relu + identity readout, so the cut box feeds the relu
    return Network(
        layers=(
            Dense(weights=np.eye(d), bias=np.zeros(d)),
            Relu(dimension=d),
            Dense(weights=np.eye(d), bias=np.zeros(d)),
        ),
        input_dim=d,
    )


def test_straddling_relu_emits_binary_and_three_rows():
    net = _relu_net(1)
    prob = encode(net, _query(net, [-1.0], [2.0]))
    assert len(prob.binaries) == 1
    info = prob.relus[0]
    assert info.kind == "split" and info.xlo == -1.0 and info.xhi == 2.0
    a = prob.binaries[0]
    x, y = info.pre_col, info.post_col
    lp = prob.lp
    assert lp.lo[y] == 0.0 and lp.hi[y] == 2.0  # y in [0, xhi]
    assert lp.lo[a] == 0.0 and lp.hi[a] == 1.0
    rows = _rows(lp)
    # y - x >= 0
    assert ({y: 1.0, x: -1.0}, 1, 0.0) in rows
    # y - x - xlo*a <= -xlo  with xlo = -1:  y - x + a <= 1
    assert ({y: 1.0, x: -1.0, a: 1.0}, -1, 1.0) in rows
    # y - xhi*a <= 0 with xhi = 2
    assert ({y: 1.0, a: -2.0}, -1, 0.0) in rows


def test_stable_positive_relu_is_equality():
    net = _relu_net(1)
    prob = encode(net, _query(net, [0.5], [2.0]))
    assert len(prob.binaries) == 0
    info = prob.relus[0]
    assert info.kind == "pos"
    lp = prob.lp
    assert lp.lo[info.post_col] == 0.5 and lp.hi[info.post_col] == 2.0
    assert ({info.post_col: 1.0, info.pre_col: -1.0}, 0, 0.0) in _rows(lp)


def test_stable_negative_relu_is_pinned_zero():
    net = _relu_net(1)
    prob = encode(net, _query(net, [-2.0], [-0.5]))
    assert len(prob.binaries) == 0
    info = prob.relus[0]
    assert info.kind == "neg"
    lp = prob.lp
    assert lp.lo[info.post_col] == 0.0 and lp.hi[info.post_col] == 0.0


def test_unbounded_preactivation_refused():
    net = _relu_net(1)
    with pytest.raises(UnboundedBigMError):
        encode(net, _query(net, [-np.inf], [np.inf]))


def _oracle_pre_relu(layers, lo, hi):
    """(xlo, xhi) of every ReLU neuron of `layers`, from the oracle's trail."""
    trail = oracles.interval_trail(layers, lo, hi)
    return [
        (trail[i][0][k], trail[i][1][k])
        for i, layer in enumerate(layers) if isinstance(layer, Relu)
        for k in range(layer.dimension)
    ]


def test_relu_intervals_keep_the_oracle_bits():
    # the suffix holds BatchNorm and ReLU layers from cut 1 on, the head a
    # ReLU; every ReluInfo carries the bytes of the oracle's pre-activation
    # interval
    rng = np.random.default_rng(19)
    for _ in range(10):
        net, lo, hi = synth.random_batchnorm_network(rng)
        for cut in range(1, net.depth):
            bounds = static_bounds(net, InputBox(lo=lo, hi=hi), layer=cut)
            d = bounds.dim
            head = Network(
                layers=(
                    Dense(weights=rng.normal(size=(3, d)), bias=rng.normal(size=3)),
                    Relu(dimension=3),
                    Dense(weights=rng.normal(size=(1, 3)), bias=np.zeros(1)),
                ),
                input_dim=d,
            )
            query = SafetyQuery(
                cut_layer=cut,
                bounds=bounds,
                characterizer=Characterizer(head=head, property_id="p", achieved_accuracy=1.0),
                risk=RiskCondition(clauses=(
                    RiskClause(coeffs=np.ones(net.dim_at(net.depth)), op=">=", rhs=0.0),
                )),
            )
            prob = encode(net, query)
            want = (_oracle_pre_relu(net.layers[cut:], bounds.lo, bounds.hi)
                    + _oracle_pre_relu(head.layers, bounds.lo, bounds.hi))
            got = [(info.xlo, info.xhi) for info in prob.relus]
            assert np.array(got).tobytes() == np.array(want).tobytes()


def test_diff_rows_present_and_box_as_variable_bounds():
    net = Network(
        layers=(
            Dense(weights=np.eye(3), bias=np.zeros(3)),
            Dense(weights=np.ones((1, 3)), bias=np.zeros(1)),
        ),
        input_dim=3,
    )
    q = _query(
        net,
        [0.0, -1.0, 0.5],
        [1.0, 1.0, 2.0],
        diff_lo=np.array([-0.5, 0.0]),
        diff_hi=np.array([0.5, 1.0]),
        risk=RiskCondition(clauses=(RiskClause(coeffs=np.array([1.0]), op=">", rhs=0.0),)),
    )
    prob = encode(net, q)
    lp = prob.lp
    assert np.array_equal(lp.lo[list(prob.cut_cols)], [0.0, -1.0, 0.5])
    assert np.array_equal(lp.hi[list(prob.cut_cols)], [1.0, 1.0, 2.0])
    assert len(prob.diff_rows) == 4  # two adjacent pairs, one row pair each
    rows = _rows(lp)
    c0, c1, c2 = prob.cut_cols
    assert ({c1: 1.0, c0: -1.0}, 1, -0.5) in rows
    assert ({c1: 1.0, c0: -1.0}, -1, 0.5) in rows
    assert ({c2: 1.0, c1: -1.0}, 1, 0.0) in rows
    assert ({c2: 1.0, c1: -1.0}, -1, 1.0) in rows


def test_strict_risk_relaxed_to_nonstrict():
    net = _relu_net(2)
    risk = RiskCondition(
        clauses=(
            RiskClause(coeffs=np.array([1.0, 0.0]), op="<", rhs=0.25),
            RiskClause(coeffs=np.array([0.0, -1.0]), op=">", rhs=-3.0),
        )
    )
    prob = encode(net, _query(net, [-1.0, -1.0], [1.0, 1.0], risk=risk))
    lp = prob.lp
    tail = _rows(lp)[-2:]
    o0, o1 = prob.out_cols
    assert tail[0] == ({o0: 1.0}, -1, 0.25)
    assert tail[1] == ({o1: -1.0}, 1, -3.0)


def test_logit_row_is_ge_zero():
    net = _relu_net(2)
    head = _linear_head(2, w=[1.0, -1.0], b=0.25)
    prob = encode(net, _query(net, [-1.0, -1.0], [1.0, 1.0], head=head))
    lp = prob.lp
    rows = _rows(lp)
    assert ({prob.logit_col: 1.0}, 1, 0.0) in rows


def test_head_shares_cut_variables_only():
    net = _relu_net(2)
    head = _linear_head(2, w=[2.0, 1.0], b=0.0)
    prob = encode(net, _query(net, [-1.0, -1.0], [1.0, 1.0], head=head))
    lp = prob.lp
    # the logit defining row references only cut columns and the logit column
    logit_rows = [r for r, _, _ in _rows(lp) if prob.logit_col in r and len(r) > 1]
    assert len(logit_rows) == 1
    refs = set(logit_rows[0]) - {prob.logit_col}
    assert refs <= set(prob.cut_cols)


def test_negative_zero_coefficients_encode_as_positive_zero():
    # a -0.0 weight and a -0.0 risk coefficient are skipped like any zero, so
    # no entry of A carries a sign bit the solver could pivot on differently
    net = Network(
        layers=(
            Dense(weights=np.eye(2), bias=np.zeros(2)),
            Relu(dimension=2),
            Dense(weights=np.array([[1.0, -0.0], [-0.0, 2.0]]), bias=np.zeros(2)),
        ),
        input_dim=2,
    )
    risk = RiskCondition(
        clauses=(RiskClause(coeffs=np.array([-0.0, 1.0]), op=">=", rhs=0.5),)
    )
    head = _linear_head(2, w=[-0.0, 1.0], b=0.0)
    A = encode(net, _query(net, [-1.0, -1.0], [1.0, 1.0], risk=risk, head=head)).lp.A
    assert (A == 0.0).any()
    assert not np.signbit(A[A == 0.0]).any()


def test_format_lp_of_one_relu_query():
    net = _relu_net(1)
    prob = encode(net, _query(net, [-1.0], [2.0]))
    assert format_lp(prob.lp) == (
        "minimize 0\n"
        "subject to\n"
        "  -1*n0 +1*s1_0 >= 0\n"
        "  -1*n0 +1*s1_0 +1*a0 <= 1\n"
        "  +1*s1_0 -2*a0 <= 0\n"
        "  +1*s1_0 -1*s2_0 = -0\n"
        "  -1*h1_0 = -1\n"
        "  +1*h1_0 >= 0\n"
        "  +1*s2_0 >= 0\n"
        "bounds\n"
        "  -1 <= n0 <= 2\n"
        "  0 <= s1_0 <= 2\n"
        "  0 <= a0 <= 1\n"
        "  0 <= s2_0 <= 2\n"
        "  1 <= h1_0 <= 1\n"
    )


def test_unsupported_layer_type():
    class Pool:
        in_dim = 2
        out_dim = 2

        def apply(self, x):
            return x

    net = Network(
        layers=(Dense(weights=np.eye(2), bias=np.zeros(2)), Pool()), input_dim=2
    )
    with pytest.raises(UnsupportedLayerError):
        encode(net, _query(net, [0.0, 0.0], [1.0, 1.0]))


def test_risk_clause_validation():
    with pytest.raises(ParseError):
        RiskClause(coeffs=np.array([1.0]), op="==", rhs=0.0)
    with pytest.raises(ShapeError):
        RiskCondition(clauses=())
    with pytest.raises(ShapeError):
        RiskCondition(
            clauses=(
                RiskClause(coeffs=np.array([1.0]), op="<=", rhs=0.0),
                RiskClause(coeffs=np.array([1.0, 2.0]), op="<=", rhs=0.0),
            )
        )


@pytest.mark.parametrize("coeff,rhs", [(np.nan, 0.0), (1.0, np.nan), (np.inf, 0.0), (1.0, -np.inf)])
def test_nonfinite_risk_clause_refused(coeff, rhs):
    with pytest.raises(ParseError):
        RiskClause(coeffs=np.array([coeff]), op="<=", rhs=rhs)
    with pytest.raises(ParseError):
        risk_from_obj([{"coeffs": [coeff], "op": "<=", "rhs": rhs}])


def test_query_cross_validation():
    net = _relu_net(2)
    bounds = ActivationBounds(layer=2, lo=np.zeros(2), hi=np.ones(2))
    with pytest.raises(ShapeError):
        SafetyQuery(
            cut_layer=1,
            bounds=bounds,  # layer mismatch
            characterizer=_linear_head(2),
            risk=RiskCondition(
                clauses=(RiskClause(coeffs=np.array([1.0, 1.0]), op="<=", rhs=0.0),)
            ),
        )


def test_load_query_resolves_relative_paths(tmp_path, tiny_net):
    import json

    from safecut.bounds import dataset_bounds, save_bounds
    from safecut.characterizer import save_characterizer
    from safecut.network import Dataset

    rng = np.random.default_rng(0)
    ds = Dataset(inputs=rng.normal(size=(40, 2)))
    b = dataset_bounds(tiny_net, ds, layer=2)
    save_bounds(b, str(tmp_path / "b.json"))
    save_characterizer(_linear_head(3, w=[1.0, 0.0, 0.0]), str(tmp_path / "h.json"))
    q = {
        "cut_layer": 2,
        "bounds": "b.json",
        "characterizer": "h.json",
        "risk": [{"coeffs": [1.0, 0.0], "op": ">=", "rhs": 1.0}],
    }
    (tmp_path / "q.json").write_text(json.dumps(q))
    query = load_query(str(tmp_path / "q.json"))
    assert query.cut_layer == 2
    assert query.bounds.dim == 3
    assert query.risk.clauses[0].op == ">="


def _query_files(tmp_path, tiny_net):
    """A valid query in q.json over b.json and h.json; returns the three
    files' JSON objects, keyed by file name."""
    import json

    from safecut.bounds import bounds_to_obj, dataset_bounds
    from safecut.characterizer import characterizer_to_obj
    from safecut.network import Dataset

    ds = Dataset(inputs=np.random.default_rng(0).normal(size=(40, 2)))
    objs = {
        "b.json": bounds_to_obj(dataset_bounds(tiny_net, ds, layer=2)),
        "h.json": characterizer_to_obj(_linear_head(3, w=[1.0, 0.0, 0.0])),
        "q.json": {
            "cut_layer": 2,
            "bounds": "b.json",
            "characterizer": "h.json",
            "risk": [{"coeffs": [1.0, 0.0], "op": ">=", "rhs": 1.0}],
        },
    }
    for name, obj in objs.items():
        (tmp_path / name).write_text(json.dumps(obj))
    return objs


@pytest.mark.parametrize("value", [1.9, 2.5, True, "2", None])
@pytest.mark.parametrize(
    "name, field", [("q.json", "cut_layer"), ("b.json", "layer"), ("b.json", "sample_count")]
)
def test_fractional_integer_field_is_parse_error(tmp_path, tiny_net, name, field, value):
    # int() would read 1.9 as 1 and answer a different query than the file asks
    import json

    objs = _query_files(tmp_path, tiny_net)
    objs[name][field] = value
    (tmp_path / name).write_text(json.dumps(objs[name]))
    with pytest.raises(ParseError, match=f"'{field}' must be an integer") as err:
        load_query(str(tmp_path / "q.json"))
    assert str(err.value).startswith(str(tmp_path / name) + ": ")


def test_integral_float_reads_as_its_integer(tmp_path, tiny_net):
    import json

    objs = _query_files(tmp_path, tiny_net)
    objs["q.json"]["cut_layer"] = 2.0
    objs["b.json"]["layer"] = 2.0
    for name in ("q.json", "b.json"):
        (tmp_path / name).write_text(json.dumps(objs[name]))
    query = load_query(str(tmp_path / "q.json"))
    assert query.cut_layer == 2 and type(query.cut_layer) is int
    assert query.bounds.layer == 2 and type(query.bounds.layer) is int


@pytest.mark.parametrize(
    "change, error",
    [
        (lambda b: b.update(lo=[0.0, float("nan"), 0.0]), "lo\\[1\\] is NaN"),
        (lambda b: b.update(lo=[9.0, 9.0, 9.0]), "lo > hi"),
        (lambda b: b.pop("lo"), "missing field 'lo'"),
    ],
)
def test_nested_file_error_names_the_nested_file(tmp_path, tiny_net, change, error):
    # the bounds file's own error starts with the bounds path, not the query's
    import json

    objs = _query_files(tmp_path, tiny_net)
    change(objs["b.json"])
    (tmp_path / "b.json").write_text(json.dumps(objs["b.json"]))
    with pytest.raises(SafecutError, match=error) as err:
        load_query(str(tmp_path / "q.json"))
    message = str(err.value)
    assert message.startswith(str(tmp_path / "b.json") + ": ")
    assert "q.json" not in message


def test_query_own_error_names_the_query(tmp_path, tiny_net):
    import json

    objs = _query_files(tmp_path, tiny_net)
    (tmp_path / "q.json").write_text(json.dumps(dict(objs["q.json"], cut_layer=1)))
    with pytest.raises(ShapeError) as err:  # the bounds are at layer 2
        load_query(str(tmp_path / "q.json"))
    assert str(err.value).startswith(str(tmp_path / "q.json") + ": ")
    (tmp_path / "q.json").write_text("[]")
    with pytest.raises(ParseError, match="query must be a JSON object") as err:
        load_query(str(tmp_path / "q.json"))
    assert str(err.value) == f"{tmp_path / 'q.json'}: query must be a JSON object"
