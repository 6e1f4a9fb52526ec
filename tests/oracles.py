"""Independent reference implementations used only by the tests.

Everything here is deliberately built on different machinery than the package
under test: interval arithmetic is restated from scratch, LP feasibility goes
through scipy's HiGHS instead of the in-tree simplex, optima come from brute
vertex enumeration, and safety verdicts come from exhaustive ReLU phase
enumeration instead of branch-and-bound (or, where 2^k phase patterns are too
many, from HiGHS's own MILP solver on a big-M model built here).  Slow on
purpose; trustworthy on purpose.
"""

import itertools

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

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
