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
    INFEASIBLE as K_INFEASIBLE, ITER_LIMIT, OPTIMAL as K_OPTIMAL, TINY_PIVOT,
    UNBOUNDED as K_UNBOUNDED,
)
from safecut.lp import (
    INFEASIBLE, MAX_ITER, OPT_TOL, OPTIMAL, TINY, UNBOUNDED, VIOL_TOL,
    _extract, _recheck, _slack_basis,
)
from safecut.network import BatchNorm, Dense, Relu

# ---------------------------------------------------------------------------
# interval arithmetic (restated, not the layers' own `propagate`)


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
# The solver over the full tableau T = B^-1 [A | I], the unit columns of the
# basic variables included.  The nonbasic-only kernels must reproduce it bit
# for bit: the same pivots, points, basic values and reduced costs, and D
# equal to T[:, nb] to the byte.  It finds its rows and columns by plain
# scans over variable ids and recomputes every mask each iteration, instead
# of keeping them in step.


def tableau_warm_state(start, A, lo, hi):
    """Re-seat a full-tableau state on new column bounds, the plain way:
    a copy in which every nonbasic structural whose bounds changed moves to
    the nearest new bound, its tableau column carrying xB along."""
    T, xB, basis, vstat, lo_all, hi_all = (a.copy() for a in start)
    n = A.shape[1]
    cols, delta = [], []
    for j in range(n):
        if vstat[j] == 0 or (lo[j] == lo_all[j] and hi[j] == hi_all[j]):
            continue
        old = {1: lo_all[j], 2: hi_all[j], 3: 0.0}[int(vstat[j])]
        if np.isfinite(lo[j]) and (abs(old - lo[j]) <= abs(hi[j] - old) or not np.isfinite(hi[j])):
            vstat[j] = 1
        else:
            vstat[j] = 2 if np.isfinite(hi[j]) else 3
        cols.append(j)
        delta.append({1: lo[j], 2: hi[j], 3: 0.0}[int(vstat[j])] - old)
    if cols:
        xB -= T[:, cols] @ np.array(delta)
    lo_all[:n] = lo
    hi_all[:n] = hi
    return T, xB, basis, vstat, lo_all, hi_all


def _violation(xB, basis, lo, hi, i):
    return max(lo[basis[i]] - xB[i], xB[i] - hi[basis[i]])


def _repairs(T, xB, basis, vstat, lo, hi, tiny, r):
    """Variables that can move so as to bring row r's basic variable back
    toward its bounds, each with the direction it moves in."""
    up = xB[r] < lo[basis[r]]
    out = []
    for j in range(T.shape[1]):
        if vstat[j] == 0 or lo[j] == hi[j] or not abs(T[r, j]) > tiny:
            continue
        d = 1.0 if (T[r, j] < 0.0) == up else -1.0  # x_B[r] moves by -T[r, j] d
        if (d > 0.0 and vstat[j] in (1, 3)) or (d < 0.0 and vstat[j] in (2, 3)):
            out.append((j, d))
    return out


def tableau_row_is_dead(state, viol_tol, tiny, r):
    """Whether row r is violated beyond `viol_tol` and no variable can
    repair it."""
    T, xB, basis, vstat, lo, hi = state
    return (_violation(xB, basis, lo, hi, r) > viol_tol
            and not _repairs(T, xB, basis, vstat, lo, hi, tiny, r))


def tableau_run_phase(
    T, z, xB, basis, vstat, lo, hi, phase, viol_tol,
    dantzig_limit, max_iter, opt_tol, tiny, dead,
):
    """The full-tableau kernel: ``safecut._simplex_py.dual_phase`` (phase 1)
    or ``primal_phase`` (phase 2), with their status codes, one argument
    list for both and T (m, N) in place of D and nb."""
    m = T.shape[0]
    iters = 0
    dead[0] = -1
    while True:
        if iters >= max_iter:
            return ITER_LIMIT, iters
        bland = iters >= dantzig_limit
        if phase == 1:
            rows = [i for i in range(m) if _violation(xB, basis, lo, hi, i) > viol_tol]
            if not rows:
                return K_OPTIMAL, iters
            if bland:
                r = min(rows, key=lambda i: basis[i])
            else:
                r = min(rows, key=lambda i: (-_violation(xB, basis, lo, hi, i), basis[i]))
            cands = _repairs(T, xB, basis, vstat, lo, hi, tiny, r)
            if not cands:
                dead[0] = r
                return K_INFEASIBLE, iters
            if bland:
                q, d = cands[0]
            else:
                q, d = max(cands, key=lambda jd: (abs(T[r, jd[0]]), -jd[0]))
            up = xB[r] < lo[basis[r]]
            t = (xB[r] - (lo[basis[r]] if up else hi[basis[r]])) / (d * T[r, q])
            leave_to = 1 if up else 2
        else:
            q, d, r, t = _primal_step(T, z, xB, basis, vstat, lo, hi, bland, opt_tol, tiny)
            if r is None:
                return q, iters  # the status
            leave_to = 1 if r >= 0 and d * T[r, q] > 0.0 else 2

        sq = vstat[q]
        Tq = T[:, q].copy()
        xB -= Tq * (d * t)
        if r < 0:  # bound flip
            vstat[q] = 2 if d > 0.0 else 1
        else:
            leaving = int(basis[r])
            xB[r] = {1: lo[q], 2: hi[q], 3: 0.0}[int(sq)] + d * t
            row = T[r]
            row /= T[r, q]
            if phase != 1:
                z -= row * z[q]
            Tq[r] = 0.0
            T -= Tq[:, None] * row
            basis[r] = q
            vstat[q] = 0
            vstat[leaving] = leave_to
        iters += 1


def _primal_step(T, z, xB, basis, vstat, lo, hi, bland, opt_tol, tiny):
    """(q, d, r, t) of one primal iteration, r = -1 for a bound flip; or
    (status, None, None, None) when the phase ends."""
    m = T.shape[0]
    is_open = (vstat != 0) & (lo != hi)
    can_inc = is_open & ((vstat == 1) | (vstat == 3)) & (z < -opt_tol)
    can_dec = is_open & ((vstat == 2) | (vstat == 3)) & (z > opt_tol)
    blo, bhi = lo[basis], hi[basis]
    banned = np.zeros(T.shape[1], dtype=bool)
    while True:
        elig = (can_inc | can_dec) & ~banned
        if not elig.any():
            return (TINY_PIVOT if banned.any() else K_OPTIMAL), None, None, None
        if bland:
            q = int(elig.argmax())
        else:
            q = int(np.where(elig, np.abs(z), -np.inf).argmax())
        d = 1.0 if can_inc[q] else -1.0
        alpha = T[:, q] * d
        big = np.abs(alpha) > tiny
        tt = np.full(m, np.inf)
        np.subtract(xB, np.where(alpha > 0.0, blo, bhi), out=tt, where=big)
        np.divide(tt, alpha, out=tt, where=big)
        tt = np.maximum(tt, 0.0)
        t, r = hi[q] - lo[q], -1
        for i in range(m):
            if tt[i] < t or (bland and r >= 0 and tt[i] == t and basis[i] < basis[r]):
                t, r = tt[i], i
        if t == np.inf:
            small = ~big & (((alpha > 0.0) & np.isfinite(blo)) | ((alpha < 0.0) & np.isfinite(bhi)))
            if small.any():
                banned[q] = True
                continue
            return K_UNBOUNDED, None, None, None
        return q, d, r, t


def tableau_solve(lp, lo=None, hi=None, run=tableau_run_phase, start=None):
    """The two-phase solve over the full tableau:
    (status, pivots, point, state, proof_row).

    The driver of ``safecut.lp.solve_dense`` with the tableau pieces above,
    on the same arguments; status is "breakdown" where solve_dense raises
    NumericalBreakdownError.
    """
    c, A, rels, b = lp.c, lp.A, lp.rels, lp.b
    lo = lp.lo if lo is None else lo
    hi = lp.hi if hi is None else hi
    m, n = A.shape
    if (lo > hi).any():
        return INFEASIBLE, 0, None, None, None
    state = tableau_warm_state(start or tableau_state(_slack_basis(A, rels, b, lo, hi)), A, lo, hi)
    T, xB, basis, vstat, lo_all, hi_all = state
    limit = 10 * (m + T.shape[1])
    dead = np.empty(1, dtype=np.int64)

    def phase(cost, k):
        if cost is None:  # the dual phase: zero cost
            z = np.zeros(n + m)
        else:
            P = cost[basis][:, None] * T
            z = cost - (np.add.accumulate(P, axis=0)[-1] if m else 0.0)
            z[basis] = 0.0
        return run(T, z, xB, basis, vstat, lo_all, hi_all, k, VIOL_TOL, limit, MAX_ITER, OPT_TOL, TINY, dead)

    status, pivots = phase(None, 1)
    if status == K_INFEASIBLE:
        r = int(dead[0])
        if not tableau_row_is_dead(state, VIOL_TOL, TINY, r):
            return "breakdown", pivots, None, None, None
        return INFEASIBLE, pivots, None, state, r
    if status != K_OPTIMAL:
        return "breakdown", pivots, None, None, None
    optimize = np.any(c != 0.0)
    if optimize:
        status, iters = phase(np.concatenate([c, np.zeros(m)]), 2)
        pivots += iters
        if status == K_UNBOUNDED:
            return UNBOUNDED, pivots, None, None, None
        if status != K_OPTIMAL:
            return "breakdown", pivots, None, None, None
    x = _extract(vstat, lo_all, hi_all, basis, xB, n)
    if optimize and _recheck(x, A, rels, b, lo, hi) is not None:
        return "breakdown", pivots, None, None, None
    return OPTIMAL, pivots, x, state, None


def gather_warm_state(start, A, lo, hi):
    """``safecut.lp._warm_state`` by way of the full tableau.

    Expands the nonbasic-only start to the full tableau, re-seats that with
    `tableau_warm_state` and gathers the nonbasic columns back in variable
    order; nb is sorted, which the re-seat's need not be.
    """
    T, xB, basis, vstat, lo_all, hi_all = tableau_warm_state(tableau_state(start), A, lo, hi)
    nb = np.flatnonzero(vstat != 0)
    return T[:, nb], xB, basis, nb, vstat, lo_all, hi_all


def vectorized_warm_state(start, A, lo, hi):
    """``safecut.lp._warm_state`` as it was written before it re-seated column
    by column in Python floats: every step an array operation over the
    changed columns.  Kept as the bit-exact reference of the scalar re-seat.
    """
    D, xB, basis, nb, vstat, lo_all, hi_all = start
    m, n = A.shape
    xB, vstat = xB.copy(), vstat.copy()
    lo_all, hi_all = lo_all.copy(), hi_all.copy()

    vs = vstat[:n]
    cols = np.flatnonzero((vs != 0) & ((lo != lo_all[:n]) | (hi != hi_all[:n])))
    if cols.shape[0]:
        vc, lc, hc = vs[cols], lo[cols], hi[cols]
        old_val = np.where(vc == 1, lo_all[cols], np.where(vc == 2, hi_all[cols], 0.0))
        nearer_lo = np.abs(old_val - lc) <= np.abs(hc - old_val)
        to_lo = np.isfinite(lc) & (nearer_lo | ~np.isfinite(hc))
        new_stat = np.where(to_lo, 1, np.where(np.isfinite(hc), 2, 3))
        new_val = np.where(new_stat == 1, lc, np.where(new_stat == 2, hc, 0.0))
        slot = np.empty(n + m, dtype=np.int64)
        slot[nb] = np.arange(n)
        xB -= D[:, slot[cols]] @ (new_val - old_val)
        vstat[cols] = new_stat
    lo_all[:n] = lo
    hi_all[:n] = hi
    return D.copy(), xB, basis.copy(), nb.copy(), vstat, lo_all, hi_all


def tableau_state(state):
    """The full-tableau state of a nonbasic-only one: D's columns where nb
    says, an exact unit column for each basic variable."""
    D, xB, basis, nb, vstat, lo_all, hi_all = state
    T = np.zeros((D.shape[0], vstat.shape[0]))
    T[:, nb] = D
    T[np.arange(basis.shape[0]), basis] = 1.0
    return T, xB, basis, vstat, lo_all, hi_all


def highs_feasible(A, rels, b, lo, hi):
    """Whether A x (rels) b, lo <= x <= hi has a point, by HiGHS."""
    le, ge, eq = rels < 0, rels > 0, rels == 0
    A_ub = np.vstack([A[le], -A[ge]])
    res = linprog(
        np.zeros(A.shape[1]),
        A_ub=A_ub if A_ub.shape[0] else None,
        b_ub=np.concatenate([b[le], -b[ge]]) if A_ub.shape[0] else None,
        A_eq=A[eq] if eq.any() else None,
        b_eq=b[eq] if eq.any() else None,
        bounds=list(zip(lo, hi)),
        method="highs",
    )
    if res.status not in (0, 2):
        raise RuntimeError(f"reference LP ended with status {res.status}")
    return res.status == 0


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
