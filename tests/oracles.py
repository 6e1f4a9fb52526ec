"""Independent reference implementations used only by the tests.

Everything here is deliberately built on different machinery than the package
under test: interval arithmetic is restated from scratch, LP feasibility goes
through scipy's HiGHS instead of the in-tree simplex, optima come from brute
vertex enumeration, and safety verdicts come from exhaustive ReLU phase
enumeration instead of branch-and-bound (or, where 2^k phase patterns are too
many, from HiGHS's own MILP solver on a big-M model built here).  Slow on
purpose; trustworthy on purpose.  The one exception is the full-tableau
simplex, kept whole as the bit-exact reference of the nonbasic-only one: it
shares the package's start rules, tolerances and recheck on purpose.
"""

import itertools

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from safecut._simplex_py import (
    ITER_LIMIT, OPTIMAL as K_OPTIMAL, REACHED_STOP, TINY_PIVOT, UNBOUNDED as K_UNBOUNDED,
    infeasibility,
)
from safecut.lp import (
    INFEASIBLE, MAX_ITER, OPT_TOL, OPTIMAL, STOP_SUM, TINY, UNBOUNDED,
    _extract, _recheck, _slack_basis,
)
from safecut.network import BatchNorm, Dense, Relu

# ---------------------------------------------------------------------------
# interval arithmetic (restated, not imported from safecut.intervals)


def interval_trail(layers, lo, hi):
    """[ (lo, hi) at every position 0..len(layers) ] for a box pushed through."""
    lo = np.asarray(lo, dtype=np.float64).copy()
    hi = np.asarray(hi, dtype=np.float64).copy()
    trail = [(lo, hi)]
    for layer in layers:
        if isinstance(layer, Dense):
            wp = layer.weights.clip(min=0.0)
            wn = layer.weights.clip(max=0.0)
            lo, hi = (
                wp @ lo + wn @ hi + layer.bias,
                wp @ hi + wn @ lo + layer.bias,
            )
        elif isinstance(layer, Relu):
            lo, hi = np.maximum(lo, 0.0), np.maximum(hi, 0.0)
        elif isinstance(layer, BatchNorm):
            a, c = layer.affine()
            one, two = a * lo + c, a * hi + c
            lo, hi = np.minimum(one, two), np.maximum(one, two)
        else:
            raise TypeError(f"oracle cannot propagate {type(layer).__name__}")
        trail.append((lo, hi))
    return trail


def count_unstable(layers, lo, hi):
    """Number of ReLU neurons whose pre-activation interval straddles zero."""
    trail = interval_trail(layers, lo, hi)
    k = 0
    for i, layer in enumerate(layers):
        if isinstance(layer, Relu):
            pre_lo, pre_hi = trail[i]
            k += int(((pre_lo < 0.0) & (pre_hi > 0.0)).sum())
    return k


# ---------------------------------------------------------------------------
# LP optimum by brute vertex enumeration (finite boxes only)


def _point_feasible(x, A, rels, b, lo, hi, tol):
    if (x < lo - tol).any() or (x > hi + tol).any():
        return False
    r = A @ x - b
    for i, rel in enumerate(rels):
        if rel == 0 and abs(r[i]) > tol:
            return False
        if rel < 0 and r[i] > tol:
            return False
        if rel > 0 and r[i] < -tol:
            return False
    return True


def vertex_lp_optimum(c, A, rels, b, lo, hi, tol=1e-9):
    """("optimal", value) or ("infeasible", None).

    Candidate vertices are every nonsingular intersection of n hyperplanes
    drawn from {constraint rows} + {bound faces}.  Requires all-finite bounds
    so the feasible set, when nonempty, is a polytope and owns its optimum at
    a vertex.  Any feasible candidate (vertex or not) is a member of the
    region, so taking the min over all of them cannot undershoot the truth.
    """
    c = np.asarray(c, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("vertex oracle needs a finite box")
    n = c.shape[0]
    planes = [(A[i], b[i]) for i in range(A.shape[0])]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        planes.append((e, lo[j]))
        planes.append((e.copy(), hi[j]))
    best = None
    for combo in itertools.combinations(range(len(planes)), n):
        M = np.array([planes[i][0] for i in combo])
        rhs = np.array([planes[i][1] for i in combo])
        try:
            x = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            continue
        if not np.isfinite(x).all():
            continue
        if not _point_feasible(x, A, rels, b, lo, hi, tol):
            continue
        v = float(c @ x)
        if best is None or v < best:
            best = v
    if best is None:
        return "infeasible", None
    return "optimal", best


# ---------------------------------------------------------------------------
# the full-tableau simplex (reference for safecut.lp and both kernels)
#
# The solver over the full tableau T = B^-1 [A | I | artificials], the
# unit columns of the basic variables included.  The nonbasic-only kernels
# must reproduce it bit for bit: the same pivots, points and basic values,
# and D equal to T[:, nb] to the byte.


def tableau_warm_state(start, A, lo, hi):
    """Re-seat a full-tableau state on new column bounds, the plain way.

    Nonbasic structurals whose bounds changed move to the nearest new bound,
    out-of-bounds basic variables are parked behind a fresh sign-scaled
    artificial, and nonbasic artificials are dropped.  The kept columns are
    gathered with one fancy index over the whole tableau and every basis
    entry is renumbered through a full-width map.  Returns (state, number of
    fresh artificials).
    """
    T, xB, basis, vstat, lo_all, hi_all = start
    m, n = A.shape
    nm = n + m
    xB, basis, vstat = xB.copy(), basis.copy(), vstat.copy()
    lo_all, hi_all = lo_all.copy(), hi_all.copy()

    vs = vstat[:n]
    old_val = np.where(vs == 1, lo_all[:n], np.where(vs == 2, hi_all[:n], 0.0))
    moved = (vs != 0) & ((lo != lo_all[:n]) | (hi != hi_all[:n]))
    nearer_lo = np.abs(old_val - lo) <= np.abs(hi - old_val)
    to_lo = np.isfinite(lo) & (nearer_lo | ~np.isfinite(hi))
    new_stat = np.where(to_lo, 1, np.where(np.isfinite(hi), 2, 3))
    new_val = np.where(new_stat == 1, lo, np.where(new_stat == 2, hi, 0.0))
    cols = np.nonzero(moved)[0]
    if cols.shape[0]:
        xB -= T[:, cols] @ (new_val[cols] - old_val[cols])
        vstat[cols] = new_stat[cols]
    lo_all[:n] = lo
    hi_all[:n] = hi

    blo, bhi = lo_all[basis], hi_all[basis]
    below, above = xB < blo, xB > bhi
    rows = np.nonzero(below | above)[0]
    target = np.where(below, blo, bhi)[rows]
    gap = xB[rows] - target
    sigma = np.where(gap > 0, 1.0, -1.0)
    vstat[basis[rows]] = np.where(below[rows], 1, 2)

    keep = np.concatenate([np.arange(nm), nm + np.nonzero(vstat[nm:] == 0)[0]])
    renum = np.zeros(T.shape[1], dtype=np.int64)
    renum[keep] = np.arange(keep.shape[0])
    n_art = rows.shape[0]
    N = keep.shape[0] + n_art
    T_new = np.zeros((m, N))
    T_new[:, : keep.shape[0]] = T[:, keep]
    T_new[rows, :] *= sigma[:, None]
    basis = renum[basis]
    basis[rows] = keep.shape[0] + np.arange(n_art)
    T_new[rows, basis[rows]] = 1.0
    xB[rows] = np.abs(gap)

    lo_all = np.concatenate([lo_all[keep], np.zeros(n_art)])
    hi_all = np.concatenate([hi_all[keep], np.full(n_art, np.inf)])
    vstat = np.concatenate([vstat[keep], np.zeros(n_art, dtype=np.int64)])
    return (T_new, xB, basis, vstat, lo_all, hi_all), n_art


def tableau_run_phase(
    T, z, xB, basis, vstat, lo, hi, n_art_start, phase1, stop_sum,
    dantzig_limit, max_iter, opt_tol, tiny,
):
    """The full-tableau NumPy kernel; same contract and status codes as
    ``safecut._simplex_py.run_phase`` with T (m, N) in place of D and nb."""
    m, n = T.shape
    iters = 0
    is_open = (vstat != 0) & (lo != hi)
    may_inc = is_open & ((vstat == 1) | (vstat == 3))
    may_dec = is_open & ((vstat == 2) | (vstat == 3))
    blo = lo[basis]
    bhi = hi[basis]
    can_inc = np.empty(n, dtype=bool)
    can_dec = np.empty(n, dtype=bool)
    score = np.empty(n)
    zrow = np.empty(n)
    alpha = np.empty(m)
    big = np.empty(m, dtype=bool)
    tt = np.empty(m)
    step = np.empty(m)
    col = np.empty(m)
    outer = np.empty((m, n))

    while True:
        if phase1 and infeasibility(xB, basis, n_art_start) <= stop_sum:
            return REACHED_STOP, iters
        if iters >= max_iter:
            return ITER_LIMIT, iters

        bland = iters >= dantzig_limit
        inc_ok, dec_ok = may_inc, may_dec
        banned_any = False

        while True:
            np.less(z, -opt_tol, out=can_inc)
            can_inc &= inc_ok
            np.greater(z, opt_tol, out=can_dec)
            can_dec &= dec_ok
            if bland:
                elig = can_inc | can_dec
                if not elig.any():
                    return (TINY_PIVOT if banned_any else K_OPTIMAL), iters
                q = int(elig.argmax())
            else:
                score.fill(-np.inf)
                np.copyto(score, z, where=can_dec)
                np.negative(z, out=score, where=can_inc)
                q = int(score.argmax())
                if not score[q] > opt_tol:
                    return (TINY_PIVOT if banned_any else K_OPTIMAL), iters
            sq = vstat[q]
            d = 1.0 if (sq == 1 or (sq == 3 and z[q] < 0.0)) else -1.0

            Tq = T[:, q]
            np.multiply(Tq, d, out=alpha)
            np.greater(np.absolute(alpha), tiny, out=big)
            tt.fill(np.inf)
            np.subtract(xB, np.where(alpha > 0.0, blo, bhi), out=tt, where=big)
            np.divide(tt, alpha, out=tt, where=big)
            np.maximum(tt, 0.0, out=tt)

            t_limit = hi[q] - lo[q]
            r = -1
            if m > 0:
                if bland:
                    tmin = tt.min()
                    if tmin < t_limit:
                        ties = np.flatnonzero(tt == tmin)
                        r = int(ties[basis[ties].argmin()])
                        t_limit = tmin
                else:
                    rmin = int(tt.argmin())
                    if tt[rmin] < t_limit:
                        r = rmin
                        t_limit = tt[rmin]

            if t_limit == np.inf:
                small_pos = (alpha > 0.0) & ~big
                small_neg = (alpha < 0.0) & ~big
                if (small_pos & np.isfinite(blo)).any() or (
                    small_neg & np.isfinite(bhi)
                ).any():
                    if not banned_any:
                        inc_ok, dec_ok = may_inc.copy(), may_dec.copy()
                        banned_any = True
                    inc_ok[q] = dec_ok[q] = False
                    continue
                return K_UNBOUNDED, iters
            break

        t = t_limit
        tstep = d * t
        np.multiply(Tq, tstep, out=step)
        if r < 0:
            xB -= step
            vstat[q] = 2 if d > 0.0 else 1
            may_inc[q] = d < 0.0
            may_dec[q] = d > 0.0
        else:
            leaving = int(basis[r])
            leave_to = 1 if alpha[r] > 0.0 else 2
            if sq == 1:
                vq = lo[q]
            elif sq == 2:
                vq = hi[q]
            else:
                vq = 0.0
            xB -= step
            xB[r] = vq + d * t
            row = T[r]
            row /= T[r, q]
            np.multiply(row, z[q], out=zrow)
            z -= zrow
            np.copyto(col, Tq)
            col[r] = 0.0
            np.multiply(col[:, None], row, out=outer)
            T -= outer
            basis[r] = q
            vstat[q] = 0
            vstat[leaving] = leave_to
            if leaving >= n_art_start:
                lo[leaving] = 0.0
                hi[leaving] = 0.0
            may_inc[q] = may_dec[q] = False
            open_leaving = lo[leaving] != hi[leaving]
            may_inc[leaving] = open_leaving and leave_to == 1
            may_dec[leaving] = open_leaving and leave_to == 2
            blo[r] = lo[q]
            bhi[r] = hi[q]
        iters += 1


def tableau_solve(c, A, rels, b, lo, hi, run=tableau_run_phase, start=None):
    """The two-phase solve over the full tableau: (status, pivots, point, state).

    The driver of ``safecut.lp.solve_dense`` with the tableau pieces above;
    status is "breakdown" where solve_dense raises NumericalBreakdownError.
    Like solve_dense it snaps the basic artificials to 0 after phase 1.
    """
    m, n = A.shape
    nm = n + m
    if (lo > hi).any():
        return INFEASIBLE, 0, None, None
    start = start or tableau_state(_slack_basis(A, rels, b, lo, hi))
    state, n_art = tableau_warm_state(start, A, lo, hi)
    T, xB, basis, vstat, lo_all, hi_all = state
    N = T.shape[1]
    limit = 10 * (m + N)

    def phase(cost, phase1, stop):
        z = cost - np.dot(cost[basis], T)
        z[basis] = 0.0
        return run(T, z, xB, basis, vstat, lo_all, hi_all, nm, phase1, stop, limit, MAX_ITER, OPT_TOL, TINY)

    pivots = 0
    if n_art > 0:
        c1 = np.zeros(N)
        c1[nm:] = 1.0
        status, iters = phase(c1, 1, STOP_SUM)
        pivots += iters
        if status in (TINY_PIVOT, ITER_LIMIT, K_UNBOUNDED):
            return "breakdown", pivots, None, None
        if infeasibility(xB, basis, nm) > STOP_SUM:
            return INFEASIBLE, pivots, None, None
        xB[basis >= nm] = 0.0
        lo_all[nm:] = 0.0
        hi_all[nm:] = 0.0
    if np.any(c != 0.0):
        status, iters = phase(np.concatenate([c, np.zeros(N - n)]), 0, -1.0)
        pivots += iters
        if status == K_UNBOUNDED:
            return UNBOUNDED, pivots, None, None
        if status != K_OPTIMAL:
            return "breakdown", pivots, None, None
    x = _extract(vstat, lo_all, hi_all, basis, xB, n)
    if _recheck(x, A, rels, b, lo, hi) is not None:
        return "breakdown", pivots, None, None
    return OPTIMAL, pivots, x, state


def tableau_state(state):
    """The full-tableau state of a nonbasic-only one: D's columns where nb
    says, an exact unit column for each basic variable."""
    D, xB, basis, nb, vstat, lo_all, hi_all = state
    T = np.zeros((D.shape[0], vstat.shape[0]))
    T[:, nb] = D
    T[np.arange(basis.shape[0]), basis] = 1.0
    return T, xB, basis, vstat, lo_all, hi_all


def gather_warm_state(start, A, lo, hi):
    """``safecut.lp._warm_state`` by way of the full tableau.

    Expands the nonbasic-only start to the full tableau, re-seats that with
    `tableau_warm_state` and keeps the nonbasic structural and slack columns
    in variable order.  Returns ((D, xB, basis, nb, vstat, lo, hi), number of
    fresh artificials); nb is sorted, which the re-seat's need not be.
    """
    (T, xB, basis, vstat, lo_all, hi_all), n_art = tableau_warm_state(
        tableau_state(start), A, lo, hi
    )
    nb = np.flatnonzero(vstat[: A.shape[0] + A.shape[1]] != 0)
    return (T[:, nb], xB, basis, nb, vstat, lo_all, hi_all), n_art


# ---------------------------------------------------------------------------
# safety verdict by exhaustive ReLU phase enumeration


class _RefLp:
    """Bare accumulator for a scipy.optimize.linprog feasibility call."""

    def __init__(self):
        self.lb = []
        self.ub = []
        self.eq = []  # (coeffs dict, rhs)
        self.le = []  # (coeffs dict, rhs), meaning coeffs . x <= rhs

    def var(self, lo=None, hi=None):
        self.lb.append(lo)
        self.ub.append(hi)
        return len(self.lb) - 1

    def feasible_point(self, eq, le):
        n = len(self.lb)
        A_eq = np.zeros((len(eq), n))
        b_eq = np.zeros(len(eq))
        for i, (coeffs, rhs) in enumerate(eq):
            for j, v in coeffs.items():
                A_eq[i, j] += v
            b_eq[i] = rhs
        A_ub = np.zeros((len(le), n))
        b_ub = np.zeros(len(le))
        for i, (coeffs, rhs) in enumerate(le):
            for j, v in coeffs.items():
                A_ub[i, j] += v
            b_ub[i] = rhs
        res = linprog(
            np.zeros(n),
            A_ub=A_ub if len(le) else None,
            b_ub=b_ub if len(le) else None,
            A_eq=A_eq if len(eq) else None,
            b_eq=b_eq if len(eq) else None,
            bounds=list(zip(self.lb, self.ub)),
            method="highs",
        )
        if res.status == 0:
            return np.asarray(res.x, dtype=np.float64)
        if res.status == 2:
            return None
        raise RuntimeError(f"reference LP ended with status {res.status}")


def _affine_vars(ref, layer, cols):
    out = []
    if isinstance(layer, Dense):
        for k in range(layer.out_dim):
            y = ref.var()
            coeffs = {c: float(w) for c, w in zip(cols, layer.weights[k])}
            coeffs[y] = -1.0
            ref.eq.append((coeffs, -float(layer.bias[k])))
            out.append(y)
    else:  # BatchNorm
        a, c0 = layer.affine()
        for k in range(layer.out_dim):
            y = ref.var()
            ref.eq.append(({cols[k]: float(a[k]), y: -1.0}, -float(c0[k])))
            out.append(y)
    return out


def _reference_model(net, query):
    """The query as LP rows, minus the phase rows of its split ReLUs.

    Returns (ref, cut, splits), splits holding (x, y, pre_lo, pre_hi) for each
    ReLU whose interval straddles zero (y >= 0 is its only constraint so far),
    or None when a constant risk clause already fails.
    """
    bounds = query.bounds
    ref = _RefLp()
    cut = [ref.var(float(bounds.lo[j]), float(bounds.hi[j])) for j in range(bounds.dim)]
    if bounds.has_diffs:
        for j in range(bounds.dim - 1):
            # diff_lo <= v[j+1] - v[j] <= diff_hi
            ref.le.append(({cut[j]: 1.0, cut[j + 1]: -1.0}, -float(bounds.diff_lo[j])))
            ref.le.append(({cut[j]: -1.0, cut[j + 1]: 1.0}, float(bounds.diff_hi[j])))

    splits = []

    def walk(layers):
        trail = interval_trail(layers, bounds.lo, bounds.hi)
        cols = cut
        for i, layer in enumerate(layers):
            if isinstance(layer, Relu):
                pre_lo, pre_hi = trail[i]
                nxt = []
                for k, x in enumerate(cols):
                    y = ref.var(0.0, None)
                    if pre_hi[k] <= 0.0:
                        ref.eq.append(({y: 1.0}, 0.0))
                    elif pre_lo[k] >= 0.0:
                        ref.eq.append(({y: 1.0, x: -1.0}, 0.0))
                    else:
                        splits.append((x, y, float(pre_lo[k]), float(pre_hi[k])))
                    nxt.append(y)
                cols = nxt
            else:
                cols = _affine_vars(ref, layer, cols)
        return cols

    out_cols = walk(net.layers[query.cut_layer :])
    logit_cols = walk(query.characterizer.head.layers)

    ref.le.append(({logit_cols[0]: -1.0}, 0.0))  # logit >= 0
    for clause in query.risk.clauses:
        coeffs = {
            out_cols[j]: float(v) for j, v in enumerate(clause.coeffs) if v != 0.0
        }
        if not coeffs:
            # all-zero row: the clause is a constant, either vacuous or fatal
            holds = 0.0 <= clause.rhs if clause.relaxed_rel == "<=" else 0.0 >= clause.rhs
            if not holds:
                return None
            continue
        if clause.relaxed_rel == "<=":
            ref.le.append((coeffs, float(clause.rhs)))
        else:
            ref.le.append(({j: -v for j, v in coeffs.items()}, -float(clause.rhs)))
    return ref, cut, splits


def oracle_verify(net, query):
    """Ground-truth Safe/Unsafe by trying every phase of every unstable ReLU.

    Stable neurons (interval fully on one side of zero) are fixed to their
    only possible phase, which is exact, so only the straddling ones are
    enumerated.  Returns ("unsafe", cut_witness) on the first feasible phase
    pattern, ("safe", None) if all patterns are infeasible.
    """
    model = _reference_model(net, query)
    if model is None:
        return "safe", None
    ref, cut, splits = model
    for pattern in itertools.product((1, 0), repeat=len(splits)):
        eq = list(ref.eq)
        le = list(ref.le)
        for (x, y, _, _), active in zip(splits, pattern):
            if active:
                eq.append(({y: 1.0, x: -1.0}, 0.0))
                le.append(({x: -1.0}, 0.0))  # x >= 0
            else:
                eq.append(({y: 1.0}, 0.0))
                le.append(({x: 1.0}, 0.0))  # x <= 0
        point = ref.feasible_point(eq, le)
        if point is not None:
            return "unsafe", point[: len(cut)]
    return "safe", None


def milp_verify(net, query):
    """Safe/Unsafe from `scipy.optimize.milp` (HiGHS) on a big-M model.

    The same rows as `oracle_verify`, each split ReLU getting a binary and
    the three big-M rows from this module's own intervals; for queries whose
    2^k phase patterns are too many to enumerate.
    """
    model = _reference_model(net, query)
    if model is None:
        return "safe"
    ref, _, splits = model
    n = len(ref.lb) + len(splits)
    rows = [(coeffs, rhs, rhs) for coeffs, rhs in ref.eq]
    rows += [(coeffs, -np.inf, rhs) for coeffs, rhs in ref.le]
    for i, (x, y, lo, hi) in enumerate(splits):
        a = len(ref.lb) + i
        rows.append(({y: 1.0, x: -1.0}, 0.0, np.inf))  # y >= x
        rows.append(({y: 1.0, x: -1.0, a: -lo}, -np.inf, -lo))  # y <= x - lo (1 - a)
        rows.append(({y: 1.0, a: -hi}, -np.inf, 0.0))  # y <= hi a
    A = np.zeros((len(rows), n))
    for i, (coeffs, _, _) in enumerate(rows):
        for j, v in coeffs.items():
            A[i, j] += v
    res = milp(
        np.zeros(n),
        constraints=LinearConstraint(A, [r[1] for r in rows], [r[2] for r in rows]),
        integrality=np.r_[np.zeros(len(ref.lb)), np.ones(len(splits))],
        bounds=Bounds(
            [-np.inf if v is None else v for v in ref.lb] + [0.0] * len(splits),
            [np.inf if v is None else v for v in ref.ub] + [1.0] * len(splits),
        ),
    )
    if res.status == 2:
        return "safe"
    if res.status == 0:
        return "unsafe"
    raise RuntimeError(f"reference MILP ended with status {res.status}: {res.message}")
