"""Solver behaviour on the worked examples plus a randomized oracle sweep."""

import dataclasses

import numpy as np
import pytest

import safecut.lp as lp_module
import safecut.verifier
from safecut import kernels, verify
from safecut.errors import NumericalBreakdownError, ShapeError
from safecut.lp import (
    FEAS_TOL,
    INFEASIBLE,
    OPTIMAL,
    REL_EQ,
    REL_GE,
    REL_LE,
    TINY,
    UNBOUNDED,
    VIOL_TOL,
    LinearProgram,
    _is_dead,
    _phase,
    _recheck,
    _slack_basis,
    _warm_state,
    format_lp,
    solve_dense,
)

import oracles
import synth


def _solve(c, A, rels, b, lo, hi):
    return solve_dense(LinearProgram(c, np.asarray(A, float).reshape(len(b), len(c)), rels, b, lo, hi))


def test_min_x_above_three():
    out = _solve([1.0], [[1.0]], [1], [3.0], [-np.inf], [np.inf])
    assert out.status == OPTIMAL
    assert out.objective_value == pytest.approx(3.0, abs=1e-9)


def test_contradictory_rows_infeasible():
    out = _solve([1.0], [[1.0], [1.0]], [-1, 1], [1.0, 2.0], [-np.inf], [np.inf])
    assert out.status == INFEASIBLE
    assert out.point is None


def test_box_with_coupling_row():
    out = _solve([-1.0, -1.0], [[1.0, 1.0]], [-1], [1.0], [0.0, 0.0], [1.0, 1.0])
    assert out.status == OPTIMAL
    assert out.objective_value == pytest.approx(-1.0, abs=1e-9)
    assert out.point.sum() == pytest.approx(1.0, abs=1e-7)


def test_unbounded_ray():
    out = _solve([-1.0], np.zeros((1, 1)), [-1], [1.0], [0.0], [np.inf])
    assert out.status == UNBOUNDED
    assert out.objective_value is None


def test_equality_and_fixed_variables():
    out = _solve(
        [1.0, 2.0, 0.0],
        [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]],
        [REL_EQ, REL_LE],
        [4.0, 1.0],
        [-5.0, -5.0, 2.0],
        [5.0, 5.0, 2.0],  # x2 pinned
    )
    assert out.status == OPTIMAL
    x = out.point
    assert x[2] == pytest.approx(2.0, abs=1e-9)
    assert x[0] + x[1] + x[2] == pytest.approx(4.0, abs=1e-7)
    # x1 = 2 - x0 makes the objective 4 - x0; the row x0 - x1 <= 1 caps x0 at 1.5
    assert out.objective_value == pytest.approx(2.5, abs=1e-6)
    assert x[0] - x[1] <= 1.0 + 1e-7


def test_empty_bound_interval_is_infeasible():
    out = _solve([1.0], [[1.0]], [-1], [10.0], [2.0], [1.0])
    assert out.status == INFEASIBLE


def test_free_variable_equality():
    # min y s.t. y = x - 7, x in [0, 1], y free
    out = _solve([0.0, 1.0], [[1.0, -1.0]], [REL_EQ], [7.0], [0.0, -np.inf], [1.0, np.inf])
    assert out.status == OPTIMAL
    assert out.objective_value == pytest.approx(-7.0, abs=1e-7)


def test_solution_satisfies_rows_within_feas_tol():
    rng = np.random.default_rng(21)
    for _ in range(50):
        c, A, rels, b, lo, hi = synth.random_lp(rng)
        out = solve_dense(LinearProgram(c, A, rels, b, lo, hi))
        if out.status != OPTIMAL:
            continue
        x = out.point
        assert (x >= lo - FEAS_TOL).all() and (x <= hi + FEAS_TOL).all()
        r = A @ x - b
        for i, rel in enumerate(rels):
            if rel == 0:
                assert abs(r[i]) <= FEAS_TOL
            elif rel < 0:
                assert r[i] <= FEAS_TOL
            else:
                assert r[i] >= -FEAS_TOL


def test_against_vertex_enumeration_oracle():
    rng = np.random.default_rng(100)
    n_opt = n_inf = 0
    for _ in range(120):
        c, A, rels, b, lo, hi = synth.random_lp(rng)
        want_status, want_val = oracles.vertex_lp_optimum(c, A, rels, b, lo, hi)
        out = solve_dense(LinearProgram(c, A, rels, b, lo, hi))
        assert out.status == want_status
        if want_status == OPTIMAL:
            n_opt += 1
            assert out.objective_value == pytest.approx(want_val, abs=1e-6)
        else:
            n_inf += 1
    # the generator must exercise both outcomes or the sweep proves nothing
    assert n_opt >= 20 and n_inf >= 20


def test_warm_start_agrees_with_cold_solve():
    # a child LP pins one column of its parent's LP; solved from the parent's
    # final state it must reach the cold solve's status and optimum
    rng = np.random.default_rng(31)
    seen = set()
    for _ in range(200):
        c, A, rels, b, lo, hi = synth.random_lp(rng)
        lp = LinearProgram(c, A, rels, b, lo, hi)
        parent = solve_dense(lp)
        if parent.status != OPTIMAL:
            continue
        # the parent's own bounds from its own state: nothing left to pivot
        again = solve_dense(lp, start=parent.state)
        assert again.pivots == 0
        assert again.objective_value == pytest.approx(parent.objective_value, abs=1e-9)
        # a new objective over the same bounds (the witness polish): phase 2 only
        lp2 = dataclasses.replace(lp, c=rng.integers(-5, 6, len(c)).astype(np.float64))
        warm = solve_dense(lp2, start=parent.state)
        cold = solve_dense(lp2)
        assert warm.status == cold.status == OPTIMAL
        assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-9)
        j = int(rng.integers(len(c)))
        for v in (lo[j], hi[j], 0.5 * (lo[j] + hi[j])):
            clo, chi = lo.copy(), hi.copy()
            clo[j] = chi[j] = v
            warm = solve_dense(lp, clo, chi, start=parent.state)
            cold = solve_dense(lp, clo, chi)
            assert warm.status == cold.status
            seen.add(cold.status)
            if cold.status == OPTIMAL:
                assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-9)
    assert seen == {OPTIMAL, INFEASIBLE}


@pytest.mark.parametrize("rows, cols", [(3, 2), (2, 3), (1, 2)])
def test_start_of_another_lp_shape_is_refused_untouched(rows, cols):
    # the state of a 2 x 2 LP cannot seat an LP of other rows or columns:
    # ShapeError, and the state handed in keeps every byte
    box = [0.0, 0.0], [1.0, 1.0]
    parent = solve_dense(LinearProgram(np.array([-1.0, -1.0]), np.array([[1.0, 1.0], [1.0, -1.0]]),
                                       np.array([-1, -1], np.int8), np.array([1.0, 0.5]), *box))
    assert parent.status == OPTIMAL
    before = [a.tobytes() for a in parent.state]
    other = LinearProgram(np.ones(cols), np.ones((rows, cols)), np.full(rows, -1, np.int8),
                          np.ones(rows), np.zeros(cols), np.ones(cols))
    with pytest.raises(ShapeError, match="start state does not match"):
        solve_dense(other, start=parent.state)
    assert [a.tobytes() for a in parent.state] == before


def test_pricing_reduces_over_rows_in_order(monkeypatch):
    # a reduced cost is cost[j] minus cost_B . D[:, j] summed row by row in
    # order, whatever the column's position in D, so permuting the columns
    # permutes the reduced costs to the byte; a BLAS product would not, nor
    # would np.add.reduce on a single column
    rng = np.random.default_rng(5)
    for _ in range(300):
        m, n = int(rng.integers(0, 40)), int(rng.integers(1, 30))
        D = rng.normal(size=(m, n)) * 10.0 ** rng.integers(-12, 4, (m, n))
        basis = n + np.arange(m)
        nb = rng.permutation(n)
        cost = rng.normal(size=n + m)
        seen = []

        def run(D, z, *rest):
            seen.append(z.copy())
            return 0, 0

        monkeypatch.setattr(lp_module, "primal_phase", run)
        state = (D, np.zeros(m), basis, nb, None, None, None)
        _phase(cost, state, 0)
        want = cost[nb].copy()
        for j in range(m and n):
            dot = cost[basis[0]] * D[0, j]
            for i in range(1, m):
                dot += cost[basis[i]] * D[i, j]
            want[j] -= dot
        assert seen[0].tobytes() == want.tobytes()
        perm = rng.permutation(n)
        _phase(cost, (np.ascontiguousarray(D[:, perm]),) + state[1:3] + (nb[perm],) + state[4:], 0)
        assert seen[1].tobytes() == want[perm].tobytes()


def _recheck_loop(x, A, rels, b, lo, hi):
    # the row-by-row reference the vectorized recheck must reproduce
    if ((x < lo - FEAS_TOL) | (x > hi + FEAS_TOL)).any():
        return "variable bound violated beyond 1e-7"
    ax = A @ x if x.shape[0] > 0 else np.zeros(A.shape[0])
    for i in range(A.shape[0]):
        d = ax[i] - b[i]
        if rels[i] == REL_LE and d > FEAS_TOL:
            return f"row {i}: <= violated by {d:.3e}"
        if rels[i] == REL_GE and -d > FEAS_TOL:
            return f"row {i}: >= violated by {-d:.3e}"
        if rels[i] == REL_EQ and abs(d) > FEAS_TOL:
            return f"row {i}: = violated by {abs(d):.3e}"
    return None


@pytest.mark.parametrize("rel", [REL_LE, REL_GE, REL_EQ])
def test_recheck_names_lowest_violated_row_like_the_loop(rel):
    rng = np.random.default_rng(11 + rel)
    seen = set()
    for _ in range(200):
        m, n = int(rng.integers(1, 12)), int(rng.integers(0, 6))
        A = rng.normal(size=(m, n))
        x = rng.normal(size=n)
        rels = rng.choice(np.array([REL_LE, REL_GE, REL_EQ], dtype=np.int8), m)
        ax = A @ x
        # every row satisfied, or missed by about FEAS_TOL, or by far, in
        # the direction its relation forbids
        b = ax.copy()
        slack = rng.choice([0.0, 0.5, 2.0, 1e3], m) * FEAS_TOL
        b[rels == REL_LE] -= slack[rels == REL_LE]
        b[rels == REL_GE] += slack[rels == REL_GE]
        b[rels == REL_EQ] += slack[rels == REL_EQ] * rng.choice([-1.0, 1.0])
        k = int(rng.integers(0, m))  # force a violation of `rel` at row k
        rels[k] = rel
        b[k] = ax[k] + {REL_LE: -1.0, REL_GE: 1.0, REL_EQ: -1.0}[rel] * 5 * FEAS_TOL
        lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
        want = _recheck_loop(x, A, rels, b, lo, hi)
        assert _recheck(x, A, rels, b, lo, hi) == want
        seen.add(want.split(":")[1].split()[0])
        # no violation, and a variable bound violation, agree too
        b_ok = np.where(rels == REL_LE, ax + 1.0, np.where(rels == REL_GE, ax - 1.0, ax))
        assert _recheck(x, A, rels, b_ok, lo, hi) is None
        if n:
            assert _recheck(x, A, rels, b, lo, x - 1.0) == _recheck_loop(x, A, rels, b, lo, x - 1.0)
    assert {"<=", ">=", "="} <= seen  # the first violated row took every relation


def test_tiny_pivot_breaks_down_loudly():
    # the only useful pivot is 1e-12, below the 1e-11 floor: refuse to lie
    with pytest.raises(NumericalBreakdownError):
        _solve([-1.0], [[1e-12]], [REL_LE], [1.0], [0.0], [np.inf])


def test_nan_rejected():
    with pytest.raises(ValueError):
        _solve([1.0], [[float("nan")]], [REL_LE], [1.0], [0.0], [1.0])
    with pytest.raises(ValueError):
        _solve([1.0], [[1.0]], [REL_LE], [float("nan")], [0.0], [1.0])
    # NaN column bounds: NaN compares false, so lo > hi would not catch them
    with pytest.raises(ValueError):
        _solve([1.0], [[1.0]], [REL_LE], [5.0], [float("nan")], [1.0])
    with pytest.raises(ValueError):
        _solve([1.0], [[1.0]], [REL_LE], [5.0], [0.0], [float("nan")])


@pytest.mark.parametrize("side", ["lo", "hi"])
def test_nan_node_bounds_raise_before_an_empty_box_is_infeasible(side):
    # solve_dense tests lo <= hi once and sorts a failure out after: NaN
    # raises even where another column has lo > hi, which alone is an
    # empty box and so INFEASIBLE
    lp = LinearProgram([1.0, 1.0, 0.0], np.ones((1, 3)), [REL_LE], [5.0], [0.0] * 3, [1.0] * 3)
    empty = dict(lo=np.array([2.0, 0.0, 0.0]), hi=np.array([1.0, 1.0, 1.0]))
    assert solve_dense(lp, **empty).status == INFEASIBLE
    for j in (0, 1, 2):  # on the empty column, before it and after it
        bounds = {k: v.copy() for k, v in empty.items()}
        bounds[side][j] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            solve_dense(lp, **bounds)
    nan_only = dict(lo=np.zeros(3), hi=np.ones(3))
    nan_only[side][1] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        solve_dense(lp, **nan_only)


@pytest.mark.parametrize("rel", [2, 1.5, -2, float("nan")])
def test_unknown_relation_code_rejected(rel):
    # an int8 cast would solve 2 as an equality and 1.5 as >=; refuse both
    with pytest.raises(ValueError, match="relation"):
        LinearProgram(
            np.zeros(1), np.ones((1, 1)), np.array([rel]), np.ones(1),
            np.zeros(1), np.full(1, 5.0),
        )


def test_linear_program_checks_once_and_keeps_read_only_copies():
    A = np.asfortranarray([[1.0, 2.0], [3.0, 4.0]])
    lp = LinearProgram([1, 0], A, [REL_LE, REL_GE], [3, 4], [0, 0], [1.0, np.inf])
    for name in ("c", "A", "b", "lo", "hi"):
        a = getattr(lp, name)
        assert a.dtype == np.float64 and a.flags.c_contiguous and not a.flags.writeable
    assert lp.rels.dtype == np.int8 and not lp.rels.flags.writeable
    with pytest.raises(ValueError):
        lp.A[0, 0] = 5.0
    A[0, 0] = 5.0  # the LP holds a copy
    assert lp.A[0, 0] == 1.0
    for field, value in [("c", [np.nan, 0.0]), ("A", [[1.0, np.nan], [0.0, 1.0]]),
                         ("b", [np.nan, 1.0]), ("lo", [np.nan, 0.0]), ("hi", [1.0, np.nan])]:
        with pytest.raises(ValueError, match="NaN"):
            dataclasses.replace(lp, **{field: np.array(value)})
    for rels in ([REL_LE, 2], [0.5, REL_EQ], [REL_GE, np.nan]):
        with pytest.raises(ValueError, match="relation"):
            dataclasses.replace(lp, rels=np.array(rels))
    with pytest.raises(ShapeError, match="objective/rhs/relation"):
        dataclasses.replace(lp, b=np.ones(3))
    with pytest.raises(ShapeError, match="bound shapes"):
        dataclasses.replace(lp, lo=np.zeros(3))
    # a solve checks only the node's bounds
    with pytest.raises(ValueError, match="NaN"):
        solve_dense(lp, np.array([0.0, np.nan]), lp.hi)
    with pytest.raises(ShapeError, match="bound shapes"):
        solve_dense(lp, lp.lo, np.ones(3))
    assert solve_dense(lp, np.array([1.0, 0.0]), np.array([0.0, 1.0])).status == INFEASIBLE


def test_recheck_fails_a_non_finite_point():
    A, rels, b = np.array([[1.0]]), np.array([REL_LE], np.int8), np.array([5.0])
    lo, hi = np.array([-np.inf]), np.array([np.inf])
    assert _recheck(np.array([1.0]), A, rels, b, lo, hi) is None
    for v in (np.nan, np.inf, -np.inf):
        assert _recheck(np.array([v]), A, rels, b, lo, hi) == "point is not finite"


def _free_bounds_lp(rng):
    """A random_lp with some column bounds made infinite on one or both sides."""
    c, A, rels, b, lo, hi = synth.random_lp(rng)
    r = rng.random(len(c))
    lo[r < 0.3] = -np.inf
    hi[(r > 0.2) & (r < 0.5)] = np.inf
    return c, A, rels, b, lo, hi


def _basis_inverse_row(state, r, n):
    """Row r of B^-1: the slack columns of the full tableau B^-1 [A | I],
    read from D where a slack is nonbasic, e_r where it is basic."""
    D, xB, basis, nb, vstat = state[:5]
    m = D.shape[0]
    y = np.zeros(m)
    slot = np.flatnonzero(nb >= n)
    y[nb[slot] - n] = D[r, slot]
    if basis[r] >= n:
        y[basis[r] - n] = 1.0
    return y


def test_slack_block_is_the_basis_inverse():
    # the full tableau B^-1 [A | I], rebuilt from the state (a nonbasic
    # variable's column is in D, a basic one's is e_i): its slack block
    # times A must give its structural block, for cold and warm solves, and
    # for infeasible ones, whose proof rows y = e_r B^-1 are rebuilt the same
    # way
    def assert_layout(out, A):
        m, n = A.shape
        T = oracles.tableau_state(out.state)[0]
        scale = max(1.0, np.abs(T[:, :n]).max(initial=0.0))
        assert np.abs(T[:, n : n + m] @ A - T[:, :n]).max(initial=0.0) <= 1e-9 * scale
        if out.status == INFEASIBLE:
            assert _basis_inverse_row(out.state, out.proof_row, n).tobytes() == T[out.proof_row, n:].tobytes()

    rng = np.random.default_rng(41)
    count = dict(cold=0, warm=0, infeasible=0)
    for k in range(400):
        c, A, rels, b, lo, hi = (synth.random_lp if k % 2 else _free_bounds_lp)(rng)
        lp = LinearProgram(c, A, rels, b, lo, hi)
        parent = solve_dense(lp)
        if parent.status == INFEASIBLE:
            assert_layout(parent, A)
            count["infeasible"] += 1
        if parent.status != OPTIMAL:
            continue
        assert_layout(parent, A)
        count["cold"] += 1
        m, n = A.shape
        j = int(rng.integers(n))
        v = parent.point[j]
        for clo, chi in ((lo, np.where(np.arange(n) == j, np.floor(v), hi)),
                         (np.where(np.arange(n) == j, np.floor(v) + 1, lo), hi)):
            warm = solve_dense(lp, clo, chi, start=parent.state)
            if warm.state is not None:
                assert_layout(warm, A)
                count["warm"] += warm.status == OPTIMAL
                count["infeasible"] += warm.status == INFEASIBLE
    assert min(count.values()) >= 50, count


def test_dead_row_check_matches_the_tableau_reference():
    # final states of random solves with basic values pushed outside their
    # bounds, and in half of them a nonbasic column made free: the check
    # solve_dense makes of the row a kernel calls dead must agree with the
    # full-tableau reference on every row, violated and repairable, violated
    # and dead, or not violated, and refuse a row index outside the tableau
    rng = np.random.default_rng(29)
    seen = dict(dead=0, repairable=0, inside=0, free=0)
    for k in range(400):
        c, A, rels, b, lo, hi = (synth.random_lp if k % 2 else _free_bounds_lp)(rng)
        out = solve_dense(LinearProgram(c, A, rels, b, lo, hi))
        if out.state is None or A.shape[0] < 2:
            continue
        D, xB, basis, nb, vstat, lo_all, hi_all = out.state
        xB = xB.copy()
        blo, bhi = lo_all[basis], hi_all[basis]
        for i in rng.permutation(A.shape[0])[: int(rng.integers(1, A.shape[0]))]:
            v = float(rng.choice([1e-3, 1.0, 2.0]))
            if np.isfinite(blo[i]) and (rng.random() < 0.5 or not np.isfinite(bhi[i])):
                xB[i] = blo[i] - v
            elif np.isfinite(bhi[i]):
                xB[i] = bhi[i] + v
        free = np.flatnonzero(nb < A.shape[1])
        if free.shape[0] and rng.random() < 0.5:  # a nonbasic column made free
            j = nb[free[int(rng.integers(free.shape[0]))]]
            vstat, lo_all, hi_all = vstat.copy(), lo_all.copy(), hi_all.copy()
            vstat[j], lo_all[j], hi_all[j] = 3, -np.inf, np.inf
            seen["free"] += 1
        state = (D, xB, basis, nb, vstat, lo_all, hi_all)
        ref = (oracles.tableau_state(state)[0], xB, basis, vstat, lo_all, hi_all)
        for r in range(A.shape[0]):
            want = oracles.tableau_row_is_dead(ref, VIOL_TOL, TINY, r)
            assert _is_dead(state, r) == want
            if want:
                seen["dead"] += 1
            else:
                violated = max(blo[r] - xB[r], xB[r] - bhi[r]) > VIOL_TOL
                seen["repairable" if violated else "inside"] += 1
        assert not _is_dead(state, -1) and not _is_dead(state, A.shape[0])
    assert min(seen.values()) >= 20, seen


def test_only_a_phase_2_optimum_is_rechecked():
    # a kernel whose dual phase ends with the basic values moved far off:
    # the zero-objective solve hands the moved point back unchecked (a
    # search only steers by it and replays any witness it takes from it),
    # while phase 2 continues from the moved state of an objective's solve
    # to an optimum that fails the recheck
    lp = LinearProgram(np.zeros(2), [[1.0, 1.0]], [REL_GE], [3.0], np.zeros(2), np.full(2, 2.0))

    def moved(*args):
        status, iters = kernels.run_phase(*args)
        args[1][:] += 1e3  # xB
        return status, iters

    out = solve_dense(lp, kernel=moved)
    assert out.status == OPTIMAL and _recheck(out.point, lp.A, lp.rels, lp.b, lp.lo, lp.hi) is not None
    with pytest.raises(NumericalBreakdownError, match="failed recheck"):
        solve_dense(dataclasses.replace(lp, c=np.array([1.0, 2.0])), kernel=moved)


def _lying_kernel(row):
    """A kernel that runs the real one, then claims its dual phase ended
    INFEASIBLE on `row` (a function of the state's xB)."""

    def run(D, xB, *rest):
        status, iters = kernels.run_phase(D, xB, *rest)
        rest[-1][0] = row(xB)
        return kernels.INFEASIBLE, iters

    return run


def test_a_kernel_naming_a_repairable_row_dead_breaks_down():
    # x0 + x1 >= 3 over [0, 2]^2 is feasible: stopped before its first pivot,
    # the dual phase leaves row 0 violated but repairable, and a kernel that
    # names it dead there, or names a row that is not violated at all, or
    # one that does not exist, must not make the LP infeasible
    lp = LinearProgram(np.zeros(2), [[1.0, 1.0]], [REL_GE], [3.0], np.zeros(2), np.full(2, 2.0))
    assert solve_dense(lp).status == OPTIMAL

    def stopped(*args):
        args = list(args)
        args[9] = 0  # max_iter
        kernels.run_phase(*args)
        args[-1][0] = 0
        return kernels.INFEASIBLE, 0

    for kern in (stopped, _lying_kernel(lambda xB: 0), _lying_kernel(lambda xB: xB.shape[0])):
        with pytest.raises(NumericalBreakdownError, match="dead, but it is not"):
            solve_dense(lp, kernel=kern)


def test_a_dead_row_claim_never_prunes_a_node(monkeypatch):
    # the same lie inside branch and bound, on the 24-unstable member: every
    # solve breaks down (warm, then the cold retry), so no node is pruned
    # and the verdict is unknown, never safe
    net, query = synth.ladder_member()
    got = verify(net, query, kernel=_lying_kernel(lambda xB: int(np.argmax(xB))))
    assert got.status == "unknown"
    assert got.stats["nodes_explored"] == 1
    assert any(w.startswith("lp breakdown, node discarded: dual phase named row") for w in got.warnings)


def test_infeasible_prunes_carry_a_proof_row(monkeypatch):
    # every LP the branch and bound of the 24-unstable member prunes as
    # infeasible names a row r of its final state; y = e_r B^-1, rebuilt from
    # the slack columns, combines A x + s = b into y A x + y s = y b, and the
    # range of the left side over the column and slack boxes misses y b.
    # Any y makes that a proof; entries of at most TINY, which the dual phase
    # ignores, are rounding noise (about 1e-15 here) that would open the
    # range of a one-sided slack to infinity, so they are zeroed first
    pruned = []

    def solve(lp, lo, hi, **kwargs):
        out = solve_dense(lp, lo, hi, **kwargs)
        if out.status == INFEASIBLE:
            pruned.append((lp.A, lp.rels, lp.b, lo, hi, out))
        return out

    monkeypatch.setattr(safecut.verifier, "solve_dense", solve)
    net, query = synth.ladder_member()
    assert verify(net, query).status == "safe"
    assert len(pruned) >= 50
    for A, rels, b, lo, hi, out in pruned:
        m, n = A.shape
        D, xB, basis, nb, vstat, lo_all, hi_all = out.state
        r = out.proof_row
        # the dual phase left row r violated by more than VIOL_TOL
        assert max(lo_all[basis[r]] - xB[r], xB[r] - hi_all[basis[r]]) > VIOL_TOL
        y = _basis_inverse_row(out.state, r, n)
        y[np.abs(y) <= TINY] = 0.0
        g = np.concatenate([y @ A, y])  # on the columns, then on the slacks
        box_lo = np.concatenate([lo, np.where(rels == REL_GE, -np.inf, 0.0)])
        box_hi = np.concatenate([hi, np.where(rels == REL_LE, np.inf, 0.0)])
        pos, neg = g > 0.0, g < 0.0
        low = (g[pos] * box_lo[pos]).sum() + (g[neg] * box_hi[neg]).sum()
        high = (g[pos] * box_hi[pos]).sum() + (g[neg] * box_lo[neg]).sum()
        yb = y @ b
        assert yb < low or yb > high, (r, low, yb, high)
        assert not oracles.highs_feasible(A, rels, b, lo, hi)


def _child_bounds(rng, lo, hi, x):
    """Bounds a child LP might carry: a column pinned, split, freed or kept."""
    lo, hi = lo.copy(), hi.copy()
    j = int(rng.integers(lo.shape[0]))
    kind = int(rng.integers(4))
    if kind == 0:
        lo[j] = hi[j] = np.clip(np.round(x[j]), lo[j], hi[j])
    elif kind == 1:
        if rng.random() < 0.5:
            hi[j] = np.floor(x[j]) if np.floor(x[j]) >= lo[j] else x[j] - 0.5
        else:
            lo[j] = np.ceil(x[j]) if np.ceil(x[j]) <= hi[j] else x[j] + 0.5
    elif kind == 2:
        lo[j], hi[j] = -np.inf, np.inf
    return lo, hi


class _ReseatCheck:
    """Re-seats a start with `_warm_state` and with the full-tableau reference.

    The re-seat keeps the nonbasic columns in an order of its own, so D is
    compared column by column in variable order; every other array, and D's
    zero signs, must equal the reference to the byte, and none may share
    memory with the start.  ``seen`` counts the cases each re-seat
    exercised, among them the basic variables it leaves outside their new
    bounds for the dual phase.
    """

    def __init__(self):
        self.seen = dict(moved=0, free=0, no_rows=0, left_below=0, left_above=0)

    def __call__(self, start, A, lo, hi):
        before = [a.tobytes() for a in start]
        got = _warm_state(start, A, lo, hi)
        want = oracles.gather_warm_state(start, A, lo, hi)
        assert [a.tobytes() for a in start] == before  # the start is not written
        assert not any(np.shares_memory(g, a) for g in got for a in start)
        m, n = A.shape
        D, nb = got[0], got[3]
        assert D.shape == (m, n)
        order = np.argsort(nb)
        assert np.array_equal(nb[order], want[3])
        assert D[:, order].tobytes() == want[0].tobytes()  # zero signs too
        for g, w in zip(got[1:], want[1:]):
            if g is not nb:
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes()
        xB, basis, vstat, lo_all, hi_all = got[1], got[2], got[4], got[5], got[6]
        seen = self.seen
        seen["left_below"] += int((xB < lo_all[basis]).sum())
        seen["left_above"] += int((xB > hi_all[basis]).sum())
        was = start[4][:n]
        seen["moved"] += bool(((was != 0) & ((lo != start[5][:n]) | (hi != start[6][:n]))).any())
        seen["free"] += bool((vstat[:n] == 3).any())
        seen["no_rows"] += m == 0
        return got


def test_warm_state_matches_gather_reference():
    check = _ReseatCheck()
    rng = np.random.default_rng(17)
    for k in range(300):
        c, A, rels, b, lo, hi = (synth.random_lp if k % 2 else _free_bounds_lp)(rng)
        if k % 10 == 0:
            A, rels, b = A[:0], rels[:0], b[:0]
        check(_slack_basis(A, rels, b, lo, hi), A, lo, hi)
        lp = LinearProgram(c, A, rels, b, lo, hi)
        out = solve_dense(lp)
        for _ in range(3):  # down a chain of children, each from its parent
            if out.status != OPTIMAL:
                break
            clo, chi = _child_bounds(rng, lo, hi, out.point)
            check(out.state, A, clo, chi)
            if (clo > chi).any():
                break
            out = solve_dense(lp, clo, chi, start=out.state)
            lo, hi = clo, chi
    assert min(check.seen.values()) >= 5, check.seen


def _random_state(rng, m, n):
    """A nonbasic-only state with infinite bounds and free columns, and new
    column bounds that change 0 to 5 of its structurals (basic ones too):
    moved, pinned, opened to infinity or given a finite side."""
    N = n + m
    perm = rng.permutation(N).astype(np.int64)
    basis, nb = perm[:m].copy(), perm[m:].copy()
    lo_all = np.where(rng.random(N) < 0.3, -np.inf, rng.normal(size=N).round(1))
    width = rng.choice([0.0, 0.5, 2.0], N)
    hi_all = np.where(np.isfinite(lo_all), lo_all + width, rng.normal(size=N).round(1))
    hi_all[rng.random(N) < 0.3] = np.inf
    vstat = np.zeros(N, dtype=np.int64)
    at_lo = np.isfinite(lo_all[nb]) & (~np.isfinite(hi_all[nb]) | (rng.random(n) < 0.5))
    vstat[nb] = np.where(at_lo, 1, np.where(np.isfinite(hi_all[nb]), 2, 3))
    D = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.7)
    D[rng.random((m, n)) < 0.1] = -0.0
    xB = rng.normal(size=m)
    lo, hi = lo_all[:n].copy(), hi_all[:n].copy()
    for j in rng.choice(n, size=min(n, int(rng.integers(6))), replace=False):
        kind = int(rng.integers(5))
        if kind == 0:  # pinned at a point of the old range or outside it
            lo[j] = hi[j] = round(rng.normal(), 1)
        elif kind == 1:
            lo[j] = -np.inf
        elif kind == 2:
            hi[j] = np.inf
        elif kind == 3:
            lo[j], hi[j] = -np.inf, np.inf
        else:
            lo[j] = round(rng.normal(), 1)
            hi[j] = lo[j] + rng.choice([0.25, 3.0, np.inf])
    return (D, xB, basis, nb, vstat, lo_all, hi_all), lo, hi


def test_warm_state_matches_the_vectorized_reseat():
    # the re-seat runs column by column in Python floats; the array form it
    # replaced is the reference, to the byte, on every array
    rng = np.random.default_rng(23)
    seen = dict(changed=0, free=0, to_free=0, inf_bound=0, several=0)
    for k in range(1500):
        m, n = int(rng.integers(0, 9)), int(rng.integers(1, 9))
        start, lo, hi = _random_state(rng, m, n)
        A = np.zeros((m, n))
        got = _warm_state(start, A, lo, hi)
        want = oracles.vectorized_warm_state(start, A, lo, hi)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        vs = start[4][:n]
        moved = (vs != 0) & ((lo != start[5][:n]) | (hi != start[6][:n]))
        seen["changed"] += bool(moved.any())
        seen["several"] += int(moved.sum()) > 1
        seen["free"] += bool((vs[moved] == 3).any())
        seen["to_free"] += bool((got[4][:n][moved] == 3).any())
        seen["inf_bound"] += bool(np.isinf(lo[moved]).any() or np.isinf(hi[moved]).any())
    assert min(seen.values()) >= 50, seen


def test_warm_state_matches_gather_reference_in_branch_and_bound(monkeypatch):
    # a branch-and-bound child starts from its parent's final state: the
    # branched binary, basic at a fractional value, is left outside its new
    # bounds for the dual phase to repair
    check = _ReseatCheck()
    monkeypatch.setattr(lp_module, "_warm_state", check)
    net, query = synth.ladder_member()
    verdict = verify(net, query)
    assert verdict.stats["lp_solves"] >= 100
    seen = check.seen
    assert seen["left_below"] >= 10 and seen["left_above"] >= 10, seen


def test_format_lp_mentions_every_row():
    lp = LinearProgram(
        c=np.array([1.0, -1.0]),
        A=np.array([[1.0, 2.0], [0.0, -1.0]]),
        rels=np.array([REL_LE, REL_GE], np.int8),
        b=np.array([3.0, -2.0]),
        lo=np.array([0.0, -np.inf]),
        hi=np.array([1.0, np.inf]),
        names=("alpha", "beta"),
    )
    text = format_lp(lp)
    assert "alpha" in text and "beta" in text
    assert "<=" in text and ">=" in text


@pytest.mark.parametrize("names", [("alpha",), ("alpha", "beta", "gamma")])
def test_column_names_must_name_every_column(names):
    with pytest.raises(ShapeError, match=f"{len(names)} column names for 2 columns"):
        LinearProgram(np.zeros(2), [[1.0, 1.0]], [REL_GE], [3.0], np.zeros(2), np.ones(2),
                      names=names)
