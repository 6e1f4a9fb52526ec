import numpy as np
import pytest

from safecut import kernels, verifier
from safecut.bounds import ActivationBounds
from safecut.characterizer import Characterizer
from safecut.milp import RiskClause, RiskCondition, SafetyQuery, encode
from safecut.network import Dense, Network, Relu
from safecut.verifier import Budget, replay_witness, verify

import oracles
import synth


def _head(d, w, b):
    return Characterizer(
        head=Network(
            layers=(Dense(weights=np.asarray(w, float).reshape(1, d), bias=np.array([float(b)])),),
            input_dim=d,
        ),
        property_id="p",
        achieved_accuracy=1.0,
    )


def _scalar_query(lo, hi, head_w, head_b, op, rhs, provenance="dataset"):
    """1-neuron cut feeding an identity readout."""
    net = Network(
        layers=(
            Dense(weights=np.eye(1), bias=np.zeros(1)),
            Dense(weights=np.eye(1), bias=np.zeros(1)),
        ),
        input_dim=1,
    )
    bounds = ActivationBounds(
        layer=1,
        lo=np.array([lo]),
        hi=np.array([hi]),
        provenance=provenance,
        sample_count=4 if provenance == "dataset" else 0,
    )
    risk = RiskCondition(clauses=(RiskClause(coeffs=np.array([1.0]), op=op, rhs=rhs),))
    query = SafetyQuery(
        cut_layer=1, bounds=bounds, characterizer=_head(1, [head_w], head_b), risk=risk
    )
    return net, query


def test_unsafe_when_risk_reachable():
    # envelope [-0.1, 0.6], phi everywhere, risk: output >= 0.5 — reachable
    net, query = _scalar_query(-0.1, 0.6, 0.0, 1.0, ">=", 0.5)
    v = verify(net, query)
    assert v.status == "unsafe"
    assert 0.5 - 1e-9 <= v.witness[0] <= 0.6 + 1e-9
    rep = replay_witness(net, query, v.witness)
    assert rep["in_bounds"] and rep["characterizer"] == 1 and rep["risk_satisfied"]
    assert v.conditional is True  # dataset bounds -> assume-guarantee only


def test_safe_when_risk_outside_envelope():
    net, query = _scalar_query(-0.1, 0.6, 0.0, 1.0, ">=", 0.7)
    v = verify(net, query)
    assert v.status == "safe"
    assert v.witness is None
    assert v.conditional is True


def test_static_bounds_make_unconditional_verdicts():
    net, query = _scalar_query(-0.1, 0.6, 0.0, 1.0, ">=", 0.7, provenance="static")
    v = verify(net, query)
    assert v.status == "safe" and v.conditional is False


def test_phi_region_constrains_search():
    # risk reachable in the box but not where the characterizer says phi
    net, query = _scalar_query(-1.0, 1.0, -1.0, -0.5, ">=", 0.5)
    # phi: -v - 0.5 >= 0  <=>  v <= -0.5 ; risk needs v >= 0.5
    v = verify(net, query)
    assert v.status == "safe"


def _fractional_root_query():
    # relu cut with a fractional-only root relaxation: phi forces v <= -0.5 so
    # the true region is empty, but the root LP admits only fractional a
    net = Network(
        layers=(
            Dense(weights=np.eye(1), bias=np.zeros(1)),
            Relu(dimension=1),
            Dense(weights=np.eye(1), bias=np.zeros(1)),
        ),
        input_dim=1,
    )
    bounds = ActivationBounds(layer=1, lo=np.array([-1.0]), hi=np.array([2.0]))
    risk = RiskCondition(
        clauses=(
            RiskClause(coeffs=np.array([1.0]), op="<=", rhs=0.25),
            RiskClause(coeffs=np.array([1.0]), op=">=", rhs=0.25),
        )
    )
    query = SafetyQuery(
        cut_layer=1, bounds=bounds, characterizer=_head(1, [-1.0], -0.5), risk=risk
    )
    return net, query


def test_budget_exhaustion_is_unknown():
    net, query = _fractional_root_query()
    full = verify(net, query)
    assert full.status == "safe"
    assert full.stats["nodes_explored"] >= 3  # root + both phases

    clipped = verify(net, query, budget=Budget(max_nodes=1))
    assert clipped.status == "unknown"
    assert any("budget" in w for w in clipped.warnings)


def test_warm_breakdown_falls_back_to_cold_solve(monkeypatch):
    net, query = _fractional_root_query()
    plain = verify(net, query)

    warm = [False]
    failed = []
    real_solve = verifier.solve_dense

    def tracking_solve(*args, start=None, **kwargs):
        warm[0] = start is not None
        return real_solve(*args, start=start, **kwargs)

    def kernel(*args):
        if warm[0] and not failed:
            failed.append(True)
            return kernels.TINY_PIVOT, 0
        return kernels.run_phase(*args)

    monkeypatch.setattr(verifier, "solve_dense", tracking_solve)
    got = verify(net, query, kernel=kernel)
    assert failed, "no warm solve reached the kernel"
    assert got.status == plain.status == "safe"
    assert not any("lp breakdown" in w for w in got.warnings)
    assert got.stats["nodes_explored"] == plain.stats["nodes_explored"]
    assert got.stats["lp_solves"] == plain.stats["lp_solves"] + 1


def test_witness_polish_solve_runs_when_snapped_candidates_fail(monkeypatch):
    # the root is a leaf (no unstable relu); reject its raw candidate and the
    # three decimal snaps, so only the logit-maximizing re-solve can answer
    net, query = _scalar_query(-0.1, 0.6, 0.0, 1.0, ">=", 0.5)
    plain = verify(net, query)
    assert plain.status == "unsafe"

    tried = []
    real_try = verifier._Search._try_witness

    def picky_try(self, cand):
        w, rep, ok = real_try(self, cand)
        tried.append(cand.copy())
        return w, rep, ok and len(tried) > 4

    monkeypatch.setattr(verifier._Search, "_try_witness", picky_try)
    got = verify(net, query)
    assert len(tried) == 5  # raw, snapped to 12, 9 and 6 digits, polished
    assert got.stats["lp_solves"] == plain.stats["lp_solves"] + 1
    assert got.stats["nodes_explored"] == plain.stats["nodes_explored"]
    assert got.status == "unsafe"
    assert np.array_equal(got.witness, np.clip(tried[-1], -0.1, 0.6))
    rep = replay_witness(net, query, got.witness)
    assert rep["in_bounds"] and rep["characterizer"] == 1 and rep["risk_satisfied"]

    # the polished point is the last candidate: it is not snapped again, and
    # refusing it too leaves the leaf unreplayable
    def refuse_all(self, cand):
        tried.append(cand.copy())
        return real_try(self, cand)[:2] + (False,)

    tried.clear()
    monkeypatch.setattr(verifier._Search, "_try_witness", refuse_all)
    got = verify(net, query)
    assert len(tried) == 5 and got.status == "unknown"
    assert any(w.startswith("unreplayable-leaf") for w in got.warnings)


def test_spurious_integral_solution_does_not_fool_verifier():
    # same query solved without a budget: leaf replay keeps lying candidates out
    net, query = _scalar_query(-0.1, 0.6, 0.0, 1.0, ">=", 0.7)
    v = verify(net, query)
    assert v.status == "safe"
    assert all("unreplayable" not in w for w in v.warnings)


def test_boundary_witness_flagged_on_strict_clause():
    # strict risk op with its boundary exactly at the envelope edge: the only
    # witnesses sit on the relaxed boundary and must carry a warning
    net, query = _scalar_query(-0.1, 0.6, 0.0, 1.0, ">", 0.6)
    v = verify(net, query)
    assert v.status == "unsafe"
    assert any("boundary" in w for w in v.warnings)


def test_tighter_bounds_cannot_flip_safe_to_unsafe():
    rng = np.random.default_rng(33)
    flips = 0
    for _ in range(30):
        net, query = synth.random_suffix_instance(rng)
        v_wide = verify(net, query)
        b = query.bounds
        shrink = 0.25 * (b.hi - b.lo)
        tight = ActivationBounds(
            layer=b.layer,
            lo=b.lo + shrink,
            hi=b.hi - shrink,
            diff_lo=b.diff_lo,
            diff_hi=b.diff_hi,
            provenance=b.provenance,
            sample_count=b.sample_count,
        )
        tq = SafetyQuery(
            cut_layer=query.cut_layer,
            bounds=tight,
            characterizer=query.characterizer,
            risk=query.risk,
        )
        v_tight = verify(net, tq)
        if v_wide.status == "safe":
            assert v_tight.status == "safe"
        if v_tight.status == "unsafe":
            flips += v_wide.status == "unsafe"
            assert v_wide.status == "unsafe"
    assert flips >= 0  # the loop is the assertion; keep the counter honest


def test_verify_deterministic_rerun():
    rng = np.random.default_rng(4242)
    net, query = synth.random_suffix_instance(rng)
    a = verify(net, query)
    b = verify(net, query)
    assert a.status == b.status
    assert a.stats["nodes_explored"] == b.stats["nodes_explored"]
    assert a.stats["lp_solves"] == b.stats["lp_solves"]
    assert a.stats["pivots"] == b.stats["pivots"] > 0
    assert a.stats["max_depth"] == b.stats["max_depth"]
    assert a.stats["max_depth"] <= len(encode(net, query).binaries)
    if a.witness is not None:
        assert np.array_equal(a.witness, b.witness)
        assert np.array_equal(a.witness_output, b.witness_output)


def test_mini_oracle_sweep():
    rng = np.random.default_rng(808)
    for _ in range(25):
        net, query = synth.random_suffix_instance(rng)
        want, _ = oracles.oracle_verify(net, query)
        assert oracles.milp_verify(net, query) == want
        got = verify(net, query)
        assert got.status == want


def test_replay_rejects_wrong_shape():
    from safecut.errors import ShapeError

    net, query = _scalar_query(-0.1, 0.6, 0.0, 1.0, ">=", 0.5)
    with pytest.raises(ShapeError):
        replay_witness(net, query, np.zeros(3))


def test_replay_honours_difference_bounds():
    # a 2-unit cut whose box holds [0, 1] but whose difference bound refuses it
    net = Network(
        layers=(Dense(weights=np.eye(2), bias=np.zeros(2)),
                Dense(weights=np.ones((1, 2)), bias=np.zeros(1))),
        input_dim=2,
    )
    bounds = ActivationBounds(layer=1, lo=np.zeros(2), hi=np.ones(2),
                              diff_lo=np.array([-0.5]), diff_hi=np.array([0.5]))
    risk = RiskCondition(clauses=(RiskClause(coeffs=np.array([1.0]), op=">=", rhs=0.0),))
    query = SafetyQuery(cut_layer=1, bounds=bounds, characterizer=_head(2, [0.0, 0.0], 1.0),
                        risk=risk)
    rep = replay_witness(net, query, np.array([0.0, 1.0]))
    assert rep["in_bounds"] is False
    assert rep["characterizer"] == 1 and rep["risk_satisfied"]
    assert replay_witness(net, query, np.array([0.25, 0.75]))["in_bounds"] is True
    assert replay_witness(net, query, np.array([0.0, 1.0]), tol=0.5)["in_bounds"] is True
    with pytest.raises(ValueError):
        replay_witness(net, query, np.array([0.25, 0.75]), tol=-1e-9)


def test_pick_branch_prefers_widest_violation():
    # binaries 0..3: pre-activations in x[0:4], ReLU outputs in x[4:8]
    pre, post = np.arange(4), np.arange(4, 8)
    x = np.array([-1.0, 0.5, 2.0, -0.5, 0.5, 1.0, 2.0, 0.5])
    # violations 0.5, 0.5, 0, 0.5: the widths decide (violation alone would
    # take 0, width alone 2)
    width = np.array([1.0, 4.0, 10.0, 2.0])
    none = np.zeros(4, dtype=bool)
    assert verifier._pick_branch(x, pre, post, width, none) == 1
    # a fixed binary is never picked, whatever its score
    assert verifier._pick_branch(x, pre, post, width, np.array([0, 1, 0, 0], bool)) == 3
    # equal scores (2.0 and 2.0): the lowest index
    assert verifier._pick_branch(x, pre, post, np.array([1.0, 4.0, 10.0, 4.0]), none) == 1
    # no violation at all, even one rounded below zero: still an unfixed binary
    flat = np.r_[x[:4], np.maximum(x[:4], 0.0) - np.array([0.0, 1e-17, 0.0, 0.0])]
    assert verifier._pick_branch(flat, pre, post, width, np.array([1, 0, 1, 1], bool)) == 1
    assert verifier._pick_branch(flat, pre, post, width, np.array([1, 1, 0, 1], bool)) == 2


def test_branching_closes_wide_member_within_budget(monkeypatch):
    # 32 unstable ReLUs: the violation-times-width rule closes the tree in 377
    # nodes, branching on the binary nearest 0.5 needs 5731
    net, query = synth.ladder_member(32)
    bins = np.array(encode(net, query).binaries)
    budget = Budget(max_nodes=1000)

    got = verify(net, query, budget=budget)
    assert got.status == oracles.milp_verify(net, query) == "safe"
    assert 0 < got.stats["max_depth"] <= len(bins) == 32

    def nearest_half(x, pre, post, width, fixed):
        dist = np.abs(x[bins] - 0.5)
        dist[fixed] = np.inf
        return int(np.argmin(dist))

    monkeypatch.setattr(verifier, "_pick_branch", nearest_half)
    assert verify(net, query, budget=budget).status == "unknown"


def _counting_solve_and_kernel(monkeypatch):
    """Count every `safecut.verifier.solve_dense` call and sum the iterations
    of a kernel that unpacks ``(status, iters)``, as the benchmark's tracer
    does."""
    calls, iters = [], []
    real_solve = verifier.solve_dense

    def counted_solve(*args, **kwargs):
        calls.append(1)
        return real_solve(*args, **kwargs)

    def counted_kernel(*args):
        status, n = kernels.run_phase(*args)
        iters.append(int(n))
        return status, n

    monkeypatch.setattr(verifier, "solve_dense", counted_solve)
    return calls, iters, counted_kernel


def test_solve_calls_and_kernel_iterations_match_the_stats(monkeypatch):
    # the contract a tracer relies on: the verifier solves every LP through
    # the module attribute `solve_dense`, once per counted LP solve, and
    # runs every pivot through the kernel it was given
    calls, iters, kernel = _counting_solve_and_kernel(monkeypatch)
    net, query = synth.ladder_member()
    v = verify(net, query, kernel=kernel)
    assert v.status == "safe"
    assert (v.stats["nodes_explored"], v.stats["pivots"]) == (167, 2069)
    assert len(calls) == v.stats["lp_solves"]
    assert sum(iters) == v.stats["pivots"]


def test_polish_solve_is_counted_like_a_node(monkeypatch):
    net, query = _scalar_query(-0.1, 0.6, 0.0, 1.0, ">=", 0.5)
    tried = []
    real_try = verifier._Search._try_witness

    def picky_try(self, cand):
        w, rep, ok = real_try(self, cand)
        tried.append(cand)
        return w, rep, ok and len(tried) > 4

    monkeypatch.setattr(verifier._Search, "_try_witness", picky_try)
    calls, iters, kernel = _counting_solve_and_kernel(monkeypatch)
    v = verify(net, query, kernel=kernel)
    assert v.status == "unsafe" and len(tried) == 5
    assert v.stats["lp_solves"] == v.stats["nodes_explored"] + 1
    assert len(calls) == v.stats["lp_solves"]
    assert sum(iters) == v.stats["pivots"] > 0
