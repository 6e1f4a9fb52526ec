import dataclasses
from fractions import Fraction

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
    _shift,
    encode,
    load_query,
    risk_from_obj,
)
from safecut.lp import REL_EQ, REL_GE, REL_LE, format_lp, solve_dense
from safecut.network import BatchNorm, Dense, Network, Relu, forward

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
    # the ReLU reads the cut column directly: its pre-activation map is e_x
    x, y = prob.cut_cols[0], info.post_col
    assert prob.pre.tolist() == [[1.0 if j == x else 0.0 for j in range(3)]]
    assert prob.pre0.tolist() == [0.0]
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
    assert ({info.post_col: 1.0, prob.cut_cols[0]: -1.0}, 0, 0.0) in _rows(lp)


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
    # the identity readout is substituted: each row holds a ReLU output
    o0, o1 = (info.post_col for info in prob.relus)
    assert tail[0] == ({o0: 1.0}, -1, 0.25)
    assert tail[1] == ({o1: -1.0}, 1, -3.0)


def test_logit_row_is_ge_zero():
    net = _relu_net(2)
    head = _linear_head(2, w=[1.0, -1.0], b=0.25)
    prob = encode(net, _query(net, [-1.0, -1.0], [1.0, 1.0], head=head))
    lp = prob.lp
    rows = _rows(lp)
    # the logit column is substituted: w . n + b >= 0 as w . n >= -b
    n0, n1 = prob.cut_cols
    assert ({n0: 1.0, n1: -1.0}, 1, -0.25) in rows
    assert prob.logit[[n0, n1]].tolist() == [1.0, -1.0] and prob.logit0 == 0.25
    assert np.count_nonzero(prob.logit) == 2


def test_head_shares_cut_variables_only():
    net = _relu_net(2)
    head = _linear_head(2, w=[2.0, 1.0], b=0.0)
    prob = encode(net, _query(net, [-1.0, -1.0], [1.0, 1.0], head=head))
    lp = prob.lp
    # the logit row references only cut columns, and no head column exists
    logit_rows = [r for r, rel, rhs in _rows(lp) if r == {prob.cut_cols[0]: 2.0, prob.cut_cols[1]: 1.0}]
    assert len(logit_rows) == 1
    assert set(np.flatnonzero(prob.logit)) <= set(prob.cut_cols)
    assert not any(name.startswith("h") for name in lp.names)


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
    # the readout s2_0 and the logit h1_0 are substituted; the head's
    # constant logit 1 leaves the row 0 >= -1
    assert format_lp(prob.lp) == (
        "minimize 0\n"
        "subject to\n"
        "  -1*n0 +1*s1_0 >= 0\n"
        "  -1*n0 +1*s1_0 +1*a0 <= 1\n"
        "  +1*s1_0 -2*a0 <= 0\n"
        "  0 >= -1\n"
        "  +1*s1_0 >= 0\n"
        "bounds\n"
        "  -1 <= n0 <= 2\n"
        "  0 <= s1_0 <= 2\n"
        "  0 <= a0 <= 1\n"
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


def test_negative_sample_count_is_parse_error(tmp_path, tiny_net):
    # no envelope is built from fewer than zero samples: the file is
    # refused by name, not verified against
    import json

    objs = _query_files(tmp_path, tiny_net)
    objs["b.json"]["sample_count"] = -3
    (tmp_path / "b.json").write_text(json.dumps(objs["b.json"]))
    with pytest.raises(ParseError, match="'sample_count' must be >= 0, got -3") as err:
        load_query(str(tmp_path / "q.json"))
    assert str(err.value).startswith(str(tmp_path / "b.json") + ": ")


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


# ---------------------------------------------------------------------------
# the LP without pre-activation columns


def _float_query(rng, risk_coeffs):
    """A float-weight BatchNorm network cut at a random position, a
    Dense/ReLU/Dense head and one risk clause with the given coefficients."""
    net, lo, hi = synth.random_batchnorm_network(rng)
    cut = int(rng.integers(1, net.depth))
    bounds = static_bounds(net, InputBox(lo=lo, hi=hi), layer=cut)
    d = bounds.dim
    head = Network(
        layers=(
            Dense(weights=rng.normal(size=(3, d)), bias=rng.normal(size=3)),
            Relu(dimension=3),
            Dense(weights=rng.normal(size=(1, 3)), bias=rng.normal(size=1)),
        ),
        input_dim=d,
    )
    coeffs = np.resize(np.asarray(risk_coeffs, float), net.dim_at(net.depth))
    query = SafetyQuery(
        cut_layer=cut,
        bounds=bounds,
        characterizer=Characterizer(head=head, property_id="p", achieved_accuracy=1.0),
        risk=RiskCondition(clauses=(RiskClause(coeffs=coeffs, op="<=", rhs=0.5),)),
    )
    return net, query


def _float_instances():
    rng = np.random.default_rng(23)
    out = [synth.ladder_member()]
    for k in range(24):
        out.append(_float_query(rng, ([1.0, -1.0], [0.75, 1.0], [-1.0, 0.0, 2.5])[k % 3]))
    return out


def test_every_entry_of_A_is_a_copied_constant():
    # substitution only copies: every nonzero entry of A is, up to its sign,
    # a Dense weight, a BatchNorm scale, 1, a big-M constant (a split ReLU's
    # xlo or xhi) or a risk coefficient; a product of two would round
    for net, query in _float_instances():
        prob = encode(net, query)
        allowed = {1.0}
        for layer in net.layers[query.cut_layer:] + query.characterizer.head.layers:
            if isinstance(layer, Dense):
                allowed.update(layer.weights.ravel().tolist())
            elif isinstance(layer, BatchNorm):
                allowed.update(layer.affine()[0].tolist())
        allowed.update(v for info in prob.relus if info.kind == "split" for v in (info.xlo, info.xhi))
        for clause in query.risk.clauses:
            allowed.update(clause.coeffs.tolist())
        allowed |= {-v for v in allowed}
        A = prob.lp.A
        assert set(A[A != 0.0].tolist()) <= allowed


def test_only_cut_relu_output_and_binary_columns_when_every_use_is_unit():
    # the 24-unstable member: linear head, risk 1 * output[0], Dense layers
    # straight into ReLUs, so no Dense output keeps a column
    net, query = synth.ladder_member()
    prob = encode(net, query)
    assert prob.lp.num_vars == len(prob.cut_cols) + len(prob.relus) + len(prob.binaries)
    assert {name[0] for name in prob.lp.names} == {"n", "s", "a"}
    # a risk coefficient other than +-1 keeps its output's column and row
    clause = RiskClause(coeffs=np.array([2.0, 0.0]), op=">=", rhs=query.risk.clauses[0].rhs)
    kept = encode(net, dataclasses.replace(query, risk=RiskCondition(clauses=(clause,))))
    assert kept.lp.A.shape == (prob.lp.num_rows + 1, prob.lp.num_vars + 1)
    assert kept.lp.names[-1] == "s5_0"


def _rounding_query(op):
    # n0 in [-1, 2] feeds x = n0 + 0.1, a split ReLU (xlo = -0.9) and the
    # readout y = relu(x) - 0.1; risk: y (op) 0.7
    net = Network(
        layers=(
            Dense(weights=np.eye(1), bias=np.zeros(1)),
            Dense(weights=np.eye(1), bias=np.array([0.1])),
            Relu(dimension=1),
            Dense(weights=np.eye(1), bias=np.array([-0.1])),
        ),
        input_dim=1,
    )
    risk = RiskCondition(clauses=(RiskClause(coeffs=np.array([1.0]), op=op, rhs=0.7),))
    return net, _query(net, [-1.0], [2.0], risk=risk)


@pytest.mark.parametrize("op", ["<=", ">="])
def test_inexact_rhs_is_rounded_outward(op):
    net, query = _rounding_query(op)
    prob = encode(net, query)
    (info,) = prob.relus
    rows = _rows(prob.lp)
    # y <= x - xlo(1 - a) becomes y - n0 - xlo*a <= -xlo + 0.1, and
    # -xlo + 0.1 = 0.9 + 0.1 is not a float: the rhs is the next float up
    (big_m,) = [rhs for r, rel, rhs in rows if len(r) == 3]
    exact = Fraction(-info.xlo) + Fraction(0.1)
    assert Fraction(big_m) != exact
    assert Fraction(np.nextafter(big_m, -np.inf)) < exact < Fraction(big_m)
    # y (op) 0.7 becomes s (op) 0.7 + 0.1, not a float either: rounded up
    # for <=, down for >=
    rel, risk_rhs = rows[-1][1:]
    assert rel == (-1 if op == "<=" else 1)
    exact = Fraction(0.7) + Fraction(0.1)
    assert Fraction(risk_rhs) != exact
    if op == "<=":
        assert Fraction(np.nextafter(risk_rhs, -np.inf)) < exact < Fraction(risk_rhs)
    else:
        assert Fraction(risk_rhs) < exact < Fraction(np.nextafter(risk_rhs, np.inf))


def test_exact_rhs_and_inexact_equality():
    assert _shift(1.0, 0.25, REL_LE) == 0.75
    assert _shift(0.0, -0.1, REL_EQ) == 0.1
    for rel in (REL_LE, REL_GE):
        assert _shift(0.7, -0.1, rel) is not None
    assert _shift(0.7, -0.1, REL_EQ) is None
    assert _shift(1e308, -1e308, REL_LE) is None


def _network_point(net, query, prob, cut_point):
    """The LP point of a network evaluation: every column named after the
    layer output it holds, binaries at the phase of their ReLU."""
    suffix = [cut_point]
    for layer in net.layers[query.cut_layer:]:
        suffix.append(layer.apply(suffix[-1]))
    head = [cut_point]
    for layer in query.characterizer.head.layers:
        head.append(layer.apply(head[-1]))
    pre = []
    for trail, layers in ((suffix, net.layers[query.cut_layer:]), (head, query.characterizer.head.layers)):
        pre += [v for layer, v in zip(layers, trail) if isinstance(layer, Relu) for v in v]
    x = np.zeros(prob.lp.num_vars)
    for j, name in enumerate(prob.lp.names):
        if name[0] == "n":
            x[j] = cut_point[int(name[1:])]
        elif name[0] in "sh":
            li, k = map(int, name[1:].split("_"))
            x[j] = (suffix if name[0] == "s" else head)[li][k]
    split = [i for i, info in enumerate(prob.relus) if info.kind == "split"]
    x[list(prob.binaries)] = [float(pre[i] > 0.0) for i in split]
    return x, np.array(pre)


def _accepting_query(net, query, c):
    """`query` with the head's last bias and the risk rhs moved so that the
    cut point c is accepted with logit 1 and meets every clause by 1, and
    without difference bounds, which a point of the box may miss."""
    head = query.characterizer.head
    last = head.layers[-1]
    logit = float(forward(head, c)[0])
    head = Network(head.layers[:-1] + (Dense(last.weights, last.bias - logit + 1.0),), head.input_dim)
    out = forward(net, c, query.cut_layer)
    clauses = tuple(
        RiskClause(coeffs=cl.coeffs, op="<=", rhs=float(cl.coeffs @ out) + 1.0)
        for cl in query.risk.clauses
    )
    return SafetyQuery(
        cut_layer=query.cut_layer,
        bounds=dataclasses.replace(query.bounds, diff_lo=None, diff_hi=None),
        characterizer=dataclasses.replace(query.characterizer, head=head),
        risk=RiskCondition(clauses=clauses),
    )


def test_network_points_satisfy_the_rows_and_the_pre_activation_map():
    # a point of the cut box, run through the network, fills every column
    # and, where the head accepts it and the risk holds, satisfies every row
    # and column bound; pre @ x + pre0 gives the ReLUs' pre-activations and
    # logit @ x + logit0 the head's logit
    rng = np.random.default_rng(31)
    for net, query in _float_instances():
        for _ in range(3):
            c = rng.uniform(query.bounds.lo, query.bounds.hi)
            q = _accepting_query(net, query, c)
            prob = encode(net, q)
            lp = prob.lp
            x, pre = _network_point(net, q, prob, c)
            d = lp.A @ x - lp.b
            excess = np.where(lp.rels == REL_LE, d, np.where(lp.rels == REL_GE, -d, np.abs(d)))
            scale = 1.0 + np.abs(lp.A) @ np.abs(x) + np.abs(lp.b)
            assert (excess <= 1e-12 * scale).all()
            assert (x >= lp.lo - 1e-12 * (1.0 + np.abs(lp.lo))).all()
            assert (x <= lp.hi + 1e-12 * (1.0 + np.abs(lp.hi))).all()
            assert np.allclose(prob.pre @ x + prob.pre0, pre, rtol=1e-12, atol=1e-12)
            assert np.isclose(prob.logit @ x + prob.logit0, 1.0, rtol=1e-12, atol=1e-12)


def test_pre_activation_map_matches_the_dense_outputs_at_lp_points():
    # LP points of the root relaxation (random objectives): walking the
    # layers from the cut columns, each ReLU's input computed from the LP
    # point's columns (the previous ReLU layer's outputs) equals its row of
    # pre @ x + pre0
    rng = np.random.default_rng(37)
    checked = 0
    for net, query in _float_instances():
        prob = encode(net, query)
        for _ in range(3):
            out = solve_dense(dataclasses.replace(prob.lp, c=rng.normal(size=prob.lp.num_vars)))
            if out.status != "optimal":
                continue
            x = out.point
            got = prob.pre @ x + prob.pre0
            i = 0
            for layers in (net.layers[query.cut_layer:], query.characterizer.head.layers):
                v = x[list(prob.cut_cols)]
                for layer in layers:
                    if isinstance(layer, Relu):
                        k = layer.dimension
                        assert np.allclose(got[i : i + k], v, rtol=1e-9, atol=1e-9)
                        v = x[[info.post_col for info in prob.relus[i : i + k]]]
                        i += k
                    else:
                        v = layer.apply(v)
            assert i == len(prob.relus)
            checked += 1
    assert checked >= 40
