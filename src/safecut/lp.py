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
exists).  A phase-2 optimum is re-checked against every constraint
independently of the solver state, and a failed recheck raises rather than
returning a silently wrong answer.  A point that phase 1 alone produced (a
zero objective) is not: branch and bound only steers by it, and replays
every witness it takes from it through the real network.

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
the proof.  The kernel hands it back (its ``dead`` argument); `solve_dense`
checks that one row, violated beyond VIOL_TOL with no column above TINY
that repairs it, and raises NumericalBreakdownError when the check fails,
so a wrong kernel claim never prunes.  The outcome carries the row as
``proof_row`` with the state, and ``y = e_r B^-1`` gives the row
multipliers of a certificate.  Phase 2, the primal simplex, then optimizes
a nonzero objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from . import kernels
from ._simplex_py import SCORE_SIGN
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
    REL_LE / REL_EQ / REL_GE per row.  Construction checks shapes (of
    `names` too, when given), relation codes and NaN, and keeps read-only
    C-contiguous copies (float64, int8 for `rels`), so the checks stay true;
    `dataclasses.replace` re-checks.
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
        if self.names is not None and len(self.names) != n:
            raise ShapeError(f"{len(self.names)} column names for {n} columns")
        if any(np.isnan(a).any() for a in (self.c, self.A, self.b, self.lo, self.hi)):
            raise ValueError("LP contains NaN data")

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    @property
    def num_vars(self) -> int:
        return self.A.shape[1]

    def name_of(self, j: int) -> str:
        if self.names is not None:
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
    nonbasic columns with changed bounds move to the nearest new bound.

    A branch-and-bound child changes one column, so the columns are re-seated
    one by one in Python floats (the same IEEE operations as array ones) and
    only the update of the basic values is one product, ``D[:, sel] @ delta``.
    """
    D, xB, basis, nb, vstat, lo_all, hi_all = start
    m, n = A.shape
    if D.shape != (m, n) or nb.shape[0] != n or vstat.shape[0] != n + m:
        raise ShapeError("start state does not match the LP's rows and columns")
    xB, vstat = xB.copy(), vstat.copy()
    sel, delta = [], []
    for j in ((lo != lo_all[:n]) | (hi != hi_all[:n])).nonzero()[0].tolist():
        vj = vstat.item(j)
        if vj == 0:  # basic: it keeps its value, and phase 1 repairs its row
            continue
        old = lo_all.item(j) if vj == 1 else hi_all.item(j) if vj == 2 else 0.0
        lj, hj = lo.item(j), hi.item(j)
        lo_finite, hi_finite = abs(lj) < np.inf, abs(hj) < np.inf
        if lo_finite and (abs(old - lj) <= abs(hj - old) or not hi_finite):
            vstat[j], new = 1, lj
        elif hi_finite:
            vstat[j], new = 2, hj
        else:
            vstat[j], new = 3, 0.0
        sel.append(j)
        delta.append(new - old)
    if sel:
        at = nb.tolist()
        xB -= D[:, [at.index(j) for j in sel]] @ np.array(delta)
    lo_all, hi_all = lo_all.copy(), hi_all.copy()
    lo_all[:n] = lo
    hi_all[:n] = hi
    return D.copy(), xB, basis.copy(), nb.copy(), vstat, lo_all, hi_all


def _is_dead(state, r: int) -> bool:
    """Whether row r of the state is violated beyond VIOL_TOL and no column
    can repair it: the claim a kernel makes when it ends phase 1 INFEASIBLE."""
    D, xB, basis, nb, vstat, lo_all, hi_all = state
    if not 0 <= r < xB.shape[0]:
        return False
    x, b = xB.item(r), basis.item(r)
    blo, bhi = lo_all.item(b), hi_all.item(b)
    if not max(blo - x, x - bhi) > VIOL_TOL:
        return False
    # a column repairs a row that must rise if it may rise and its entry is
    # negative, or may fall and its entry is positive; the reverse for a
    # row that must fall.  An open column's score sign is SCORE_SIGN[vstat],
    # a free one scores the entry's magnitude
    vs = vstat[nb]
    is_open = lo_all[nb] != hi_all[nb]
    R = D[r] if x < blo else -D[r]
    score = R * np.where(is_open, SCORE_SIGN.take(vs, mode="clip"), 0.0)
    np.absolute(R, out=score, where=is_open & (vs == 3))
    return not np.count_nonzero(score > TINY)


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


def _phase(run, cost, state, phase, dantzig_limit, dead):
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
        phase, VIOL_TOL, dantzig_limit, MAX_ITER, OPT_TOL, TINY, dead,
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
    if not (lo <= hi).all():  # NaN fails the test too, but is bad data
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ValueError("LP contains NaN data")
        return LpOutcome(INFEASIBLE)

    state = _warm_state(start or _slack_basis(A, rels, b, lo, hi), A, lo, hi)
    dantzig_limit = 10 * (m + state[4].shape[0])

    dead = np.empty(1, dtype=np.int64)
    status, pivots = _phase(run, None, state, 1, dantzig_limit, dead)
    if status == kernels.INFEASIBLE:
        r = int(dead[0])
        if not _is_dead(state, r):
            raise NumericalBreakdownError(f"dual phase named row {r} dead, but it is not")
        return LpOutcome(INFEASIBLE, pivots=pivots, state=state, proof_row=r)
    if status != kernels.OPTIMAL:
        raise NumericalBreakdownError(f"phase 1 stalled (kernel status {status})")

    optimize = bool(c.any())
    if optimize:
        status, iters = _phase(run, np.concatenate([c, np.zeros(m)]), state, 2, dantzig_limit, dead)
        pivots += iters
        if status == kernels.UNBOUNDED:
            return LpOutcome(UNBOUNDED, pivots=pivots)
        if status != kernels.OPTIMAL:
            raise NumericalBreakdownError(f"phase 2 stalled (kernel status {status})")

    D, xB, basis, nb, vstat, lo_all, hi_all = state
    x = _extract(vstat, lo_all, hi_all, basis, xB, n)
    if optimize:  # only a phase-2 optimum is re-checked (module doc)
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
