"""Dense bounded-variable simplex: a dual phase 1, a primal phase 2.

minimize c.x  subject to  A x (<=|=|>=) b,  lo <= x <= hi  (+-inf allowed)

An LP is a `LinearProgram`: those six dense arrays (with column names),
checked once when it is built and stored as read-only float64 copies.
`solve_dense` takes one with a node's column bounds ``lo, hi`` (the LP's
own by default) and checks only those, so branch and bound validates its
rows once per search, not once per node.

Standardization: one slack per row turns every relation into the equality
A x + s = b (<= gives slack in [0,inf), >= in (-inf,0], = pinned at [0,0]).
Dantzig pricing switches to Bland's rule after 10*(m+N) iterations;
feasibility tolerance 1e-7, reduced-cost tolerance 1e-7, pivots below 1e-11
are never taken (in phase 2, NumericalBreakdown when no alternative
exists).  Optimal points are re-checked against every constraint
independently of the solver state — a failed recheck raises rather than
returning a silently wrong answer.

The tableau keeps only its nonbasic columns: a state is
``(D, xB, basis, nb, vstat, lo_all, hi_all)`` with ``D = B^-1 N`` of shape
m x n over the N = n + m structurals and slacks, ``nb`` naming the variable
of each column of D (see ``_simplex_py``).  A basic variable's tableau
column is a unit vector, so ``B^-1`` is recoverable: a nonbasic slack's
column is in D and a basic slack's is e_i.

One start path: every solve re-seats a basis on the LP's column bounds, its
parent's final state (``start=out.state``, same rows, new column bounds, any
objective) or else the all-slack basis, whose D is A itself.  The re-seat
copies the state and moves each nonbasic column whose bounds changed to the
nearest new bound; a basic variable its new bounds put outside them stays
where it is.  Phase 1, the dual simplex at zero cost, then repairs those
rows, so a child that differs from its parent in one bound costs a few
pivots; a violation of at most VIOL_TOL counts as inside.  When a violated
row has no column that can repair it, the LP is infeasible and that row is
the proof: the outcome carries it as ``proof_row`` with the state, and
``y = e_r B^-1`` gives the row multipliers of a certificate.  Phase 2, the
primal simplex, then optimizes a nonzero objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from . import kernels
from .errors import NumericalBreakdownError, ShapeError

FEAS_TOL = 1e-7
OPT_TOL = 1e-7
VIOL_TOL = 1e-9  # a basic variable this close outside its bounds counts as inside
TINY = 1e-11  # pivot magnitude floor
MAX_ITER = 50_000

REL_LE = -1
REL_EQ = 0
REL_GE = 1

_STR_OF_REL = {REL_LE: "<=", REL_EQ: "=", REL_GE: ">="}

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """The arrays `solve_dense` takes, plus a name per column.

    minimize c.x subject to A x (rels) b, lo <= x <= hi; `rels` holds
    REL_LE / REL_EQ / REL_GE per row.  Construction checks shapes, relation
    codes and NaN, and keeps read-only C-contiguous copies (float64, int8
    for `rels`), so the checks stay true; `dataclasses.replace` re-checks.
    """

    c: np.ndarray
    A: np.ndarray
    rels: np.ndarray
    b: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    names: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        rels = np.asarray(self.rels)
        if not ((rels == REL_LE) | (rels == REL_EQ) | (rels == REL_GE)).all():
            raise ValueError("LP relation codes must be REL_LE, REL_EQ or REL_GE")
        object.__setattr__(self, "rels", _frozen(rels, np.int8))
        for name in ("c", "A", "b", "lo", "hi"):
            object.__setattr__(self, name, _frozen(getattr(self, name), np.float64))
        if self.A.ndim != 2:
            raise ShapeError("LP constraint matrix A must be 2-d")
        m, n = self.A.shape
        if self.c.shape != (n,) or self.b.shape != (m,) or self.rels.shape != (m,):
            raise ShapeError("objective/rhs/relation shapes do not match A")
        if self.lo.shape != (n,) or self.hi.shape != (n,):
            raise ShapeError("bound shapes do not match variable count")
        if any(np.isnan(a).any() for a in (self.c, self.A, self.b, self.lo, self.hi)):
            raise ValueError("LP contains NaN data")

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    @property
    def num_vars(self) -> int:
        return self.A.shape[1]

    def name_of(self, j: int) -> str:
        if self.names is not None and j < len(self.names):
            return self.names[j]
        return f"x{j}"


def _frozen(a, dtype) -> np.ndarray:
    """A read-only C-contiguous copy of `a` as `dtype`."""
    a = np.array(a, dtype=dtype, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LpOutcome:
    status: str
    point: Optional[np.ndarray] = None
    objective_value: Optional[float] = None
    pivots: int = 0  # kernel iterations (pivots and bound flips) of this solve
    # (D, xB, basis, nb, vstat, lo_all, hi_all) of an optimal solve, for
    # start=, and of an infeasible one, whose row proof_row proves it so
    state: Optional[tuple] = field(default=None, repr=False, compare=False)
    proof_row: Optional[int] = None


def _slack_basis(A, rels, b, lo, hi):
    """The all-slack basis, as a state for `_warm_state` to re-seat.

    Each structural sits at its finite lower bound, else its finite upper
    bound, else free at 0; each row's slack is basic at the residual, so the
    nonbasic columns are A itself (the re-seat copies it).
    """
    m, n = A.shape
    slack_lo = np.where(rels == REL_GE, -np.inf, 0.0)
    slack_hi = np.where(rels == REL_LE, np.inf, 0.0)
    vstat_x = np.where(np.isfinite(lo), 1, np.where(np.isfinite(hi), 2, 3))
    val = np.where(vstat_x == 1, lo, np.where(vstat_x == 2, hi, 0.0))
    vstat = np.concatenate([vstat_x, np.zeros(m, dtype=np.int64)])
    return (
        A, b - A @ val, n + np.arange(m, dtype=np.int64), np.arange(n, dtype=np.int64),
        vstat, np.concatenate([lo, slack_lo]), np.concatenate([hi, slack_hi]),
    )


def _warm_state(start, A, lo, hi):
    """Re-seat a solve's state (same rows) on new column bounds: a copy whose
    nonbasic columns with changed bounds move to the nearest new bound."""
    D, xB, basis, nb, vstat, lo_all, hi_all = start
    m, n = A.shape
    if D.shape != (m, n) or nb.shape[0] != n or vstat.shape[0] != n + m:
        raise ShapeError("start state does not match the LP's rows and columns")
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


def _proof_row(state) -> int:
    """The violated row of largest violation (lowest row on ties) that no
    column can repair, which the dual phase found; raises if there is none.

    Rows are tested one at a time in that order and the first dead one is
    returned, so the search usually stops at the row the kernel gave up on.
    """
    D, xB, basis, nb, vstat, lo_all, hi_all = state
    blo, bhi = lo_all[basis], hi_all[basis]
    viol = np.maximum(blo - xB, xB - bhi)
    rows = np.flatnonzero(viol > VIOL_TOL)
    # a column repairs a row that must rise if it may rise and its entry is
    # negative, or may fall and its entry is positive; the reverse for a
    # row that must fall
    vs = vstat[nb]
    is_open = lo_all[nb] != hi_all[nb]
    sign = np.where(is_open & (vs == 1), -1.0, np.where(is_open & (vs == 2), 1.0, 0.0))
    free = is_open & (vs == 3)
    for r in rows[np.argsort(-viol[rows], kind="stable")].tolist():
        R = D[r] * (1.0 if xB[r] < blo[r] else -1.0)
        if not (np.where(free, np.abs(R), R * sign) > TINY).any():
            return r
    raise NumericalBreakdownError("dual phase reported infeasible, but every row can be repaired")


def _extract(vstat, lo_all, hi_all, basis, xB, n):
    x_all = np.where(vstat == 1, lo_all, np.where(vstat == 2, hi_all, 0.0))
    x_all[basis] = xB
    return x_all[:n]


def _recheck(x, A, rels, b, lo, hi) -> Optional[str]:
    if not np.isfinite(x).all():
        return "point is not finite"
    if ((x < lo - FEAS_TOL) | (x > hi + FEAS_TOL)).any():
        return "variable bound violated beyond 1e-7"
    ax = A @ x if x.shape[0] > 0 else np.zeros(A.shape[0])
    d = ax - b
    # each row's violation: d for <=, -d for >=, |d| for =
    excess = np.where(rels == REL_LE, d, np.where(rels == REL_GE, -d, np.abs(d)))
    bad = np.flatnonzero(excess > FEAS_TOL)
    if bad.size == 0:
        return None
    i = int(bad[0])
    return f"row {i}: {_STR_OF_REL[int(rels[i])]} violated by {excess[i]:.3e}"


def _phase(run, cost, state, phase, dantzig_limit):
    """Price `cost` against the state's basis and run one kernel phase on it.

    Phase 1 has zero cost.  Pricing sums ``cost_B * D`` over the rows in
    order, so a reduced cost does not depend on where its column sits in D
    (``np.add.reduce`` would sum a single column pairwise).
    """
    D, xB, basis, nb, vstat, lo_all, hi_all = state
    if cost is None:
        z = np.zeros(nb.shape[0])
    else:
        P = cost[basis][:, None] * D
        z = cost[nb] - (np.add.accumulate(P, axis=0, out=P)[-1] if P.shape[0] else 0.0)
    return run(
        D, z, xB, basis, nb, vstat, lo_all, hi_all,
        phase, VIOL_TOL, dantzig_limit, MAX_ITER, OPT_TOL, TINY,
    )


def solve_dense(lp: LinearProgram, lo=None, hi=None, kernel=None, start=None) -> LpOutcome:
    """Solve `lp` over the column bounds ``lo, hi`` (the LP's own when None);
    raises NumericalBreakdownError, never lies.

    ``start`` is the ``state`` of an earlier optimal outcome over the same
    ``A, rels, b``; the solve then begins from its basis instead of the
    all-slack one (see module doc).
    """
    run = kernels.run_phase if kernel is None else kernel
    c, A, rels, b = lp.c, lp.A, lp.rels, lp.b
    m, n = A.shape
    lo = lp.lo if lo is None else np.asarray(lo, dtype=np.float64)
    hi = lp.hi if hi is None else np.asarray(hi, dtype=np.float64)
    if lo.shape != (n,) or hi.shape != (n,):
        raise ShapeError("bound shapes do not match variable count")
    if np.isnan(lo).any() or np.isnan(hi).any():
        raise ValueError("LP contains NaN data")
    if (lo > hi).any():
        return LpOutcome(INFEASIBLE)

    state = _warm_state(start or _slack_basis(A, rels, b, lo, hi), A, lo, hi)
    dantzig_limit = 10 * (m + state[4].shape[0])

    status, pivots = _phase(run, None, state, 1, dantzig_limit)
    if status == kernels.INFEASIBLE:
        return LpOutcome(INFEASIBLE, pivots=pivots, state=state, proof_row=_proof_row(state))
    if status != kernels.OPTIMAL:
        raise NumericalBreakdownError(f"phase 1 stalled (kernel status {status})")

    if c.any():
        c2 = np.concatenate([c, np.zeros(m)])
        status, iters = _phase(run, c2, state, 2, dantzig_limit)
        pivots += iters
        if status == kernels.UNBOUNDED:
            return LpOutcome(UNBOUNDED, pivots=pivots)
        if status != kernels.OPTIMAL:
            raise NumericalBreakdownError(f"phase 2 stalled (kernel status {status})")

    D, xB, basis, nb, vstat, lo_all, hi_all = state
    x = _extract(vstat, lo_all, hi_all, basis, xB, n)
    msg = _recheck(x, A, rels, b, lo, hi)
    if msg is not None:
        raise NumericalBreakdownError(f"optimal point failed recheck: {msg}")
    return LpOutcome(OPTIMAL, x, float(np.dot(c, x)), pivots, state)


def format_lp(lp: LinearProgram) -> str:
    """Plain-text dump, one constraint per line (for --debug-lp-dump)."""

    def term(j: int, v: float) -> str:
        return f"{v:+g}*{lp.name_of(j)}"

    lines = []
    obj = [term(j, lp.c[j]) for j in np.flatnonzero(lp.c)]
    lines.append("minimize " + (" ".join(obj) if obj else "0"))
    lines.append("subject to")
    for row, rel, rhs in zip(lp.A, lp.rels, lp.b):
        body = " ".join(term(j, row[j]) for j in np.flatnonzero(row))
        lines.append(f"  {body or '0'} {_STR_OF_REL[rel]} {rhs:g}")
    lines.append("bounds")
    for j in range(lp.num_vars):
        lines.append(f"  {lp.lo[j]:g} <= {lp.name_of(j)} <= {lp.hi[j]:g}")
    return "\n".join(lines) + "\n"
