"""Pure-NumPy bounded-variable simplex kernel: a dual phase 1, a primal phase 2.

This is the fallback for the compiled kernel in ``_simplex_c``.  The two
implementations are kept *bitwise* interchangeable: every floating-point
expression is written as the same sequence of elementwise multiply/divide/
subtract operations (the extension is compiled with -ffp-contract=off so no
FMA contraction sneaks in), and every tie breaks by strict inequality and
the lowest variable id.  The benchmark and parity tests assert identical
pivot sequences and end states.

The tableau keeps only the nonbasic columns (the dictionary form): a basic
column is a unit vector that a pivot leaves unchanged, so storing it would
only double the rank-1 update.  State arrays (owned by the driver in lp.py):
  D     (m, n) float64  B^-1 N: the tableau columns of the nonbasic variables
  z     (n,)   float64  reduced costs of those columns (phase 2 only)
  xB    (m,)   float64  values of the basic variables
  basis (m,)   int64    basic variable per row
  nb    (n,)   int64    nonbasic variable per column of D
  vstat (N,)   int64    0 basic, 1 at lower bound, 2 at upper bound, 3 free
  lo,hi (N,)   float64  variable bounds (+-inf allowed); lo==hi means pinned
with N = n + m variables.  A pivot puts the leaving variable in the
entering one's column of D: that column becomes e_r, then goes through the
same row division and rank-1 update as every other column, which are the
operations the full tableau applies to the leaving variable's unit column.

Phase 1 is the dual simplex at zero cost, for which every basis is dual
feasible.  Basic variables may sit outside their bounds.  Each iteration
takes the basic variable of the largest violation (above ``viol_tol``) out
at the bound it violates, and brings in the column of the largest
``|D[r, j]|`` among those that can move the way that repairs row r.  A
violated row that no column can repair proves the LP infeasible; the kernel
hands that row back in ``dead``, a one-element int64 array, so the driver
checks that one row instead of searching for it.  Phase 2 is
the primal simplex from a feasible basis: Dantzig pricing and a ratio test.
Both phases pick with one rule (`_pick`): the largest score, the lowest
variable id on ties, and from ``dantzig_limit`` iterations on Bland's rule,
the lowest id of all eligible.

Kept in step for the whole call, not rebuilt per pivot: one score sign per
column of D (-1 may increase, +1 may decrease, 0 closed; a free column is
flagged apart and scores the magnitude), and the basic bounds
``blo = lo[basis]`` and ``bhi = hi[basis]``.  A column's score is its
pricing vector times its sign: ``z`` in phase 2, row r of D oriented by the
repair direction in phase 1.  A pivot updates the kept arrays at the
entering column, which the leaving variable now holds, and the pivot row; a
bound flip at the entering column.  A column banned on the TINY_PIVOT path
is cleared in masked copies.  Each call allocates these once, with its work
vectors and one (m, n) buffer for the rank-1 update; the pivot loop writes
into them with ``out=``.

Return status codes (shared with the compiled kernel):
  0 OPTIMAL        phase 1: every basic variable is within viol_tol of its
                   bounds; phase 2: no eligible entering column
  1 INFEASIBLE     phase 1: a violated row has no column that can repair it;
                   its index is in dead[0]
  2 UNBOUNDED      phase 2: an improving direction has no blocking bound
  3 TINY_PIVOT     phase 2: progress blocked only by pivots smaller than `tiny`
  4 ITER_LIMIT     max_iter successful pivots/flips without termination
"""

from __future__ import annotations

import numpy as np

OPTIMAL = 0
INFEASIBLE = 1
UNBOUNDED = 2
TINY_PIVOT = 3
ITER_LIMIT = 4

_INF = np.inf


def _pick(score: np.ndarray, ids: np.ndarray, thresh: float, bland: bool, eq: np.ndarray) -> int:
    """Position of the largest score above `thresh`, the lowest id on ties;
    under Bland's rule the lowest id of all above it.  -1 when none is.
    `eq` is a bool buffer of the score's length."""
    if bland:
        elig = np.greater(score, thresh, out=eq).nonzero()[0]
        return int(elig[ids[elig].argmin()]) if elig.shape[0] else -1
    if not score.shape[0]:
        return -1
    p = int(score.argmax())
    s = score[p]
    if not s > thresh:
        return -1
    if np.count_nonzero(np.equal(score, s, out=eq)) == 1:
        return p
    ties = eq.nonzero()[0]
    return int(ties[ids[ties].argmin()])


def run_phase(
    D: np.ndarray,
    z: np.ndarray,
    xB: np.ndarray,
    basis: np.ndarray,
    nb: np.ndarray,
    vstat: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    phase: int,
    viol_tol: float,
    dantzig_limit: int,
    max_iter: int,
    opt_tol: float,
    tiny: float,
    dead: np.ndarray,
) -> tuple:
    """Run phase 1 (dual, zero cost) or phase 2 (primal, costs `z`) in place;
    returns (status, iters).  ``dead[0]`` is set to the row that ends the
    dual phase INFEASIBLE, -1 on every other outcome."""
    m, w = D.shape
    iters = 0
    dead[0] = -1
    # score signs and free flags, kept in step with vstat/lo/hi at the
    # column a step touches
    vs = vstat[nb]
    is_open = lo[nb] != hi[nb]
    sign = np.where(is_open & (vs == 1), -1.0, np.where(is_open & (vs == 2), 1.0, 0.0))
    free = is_open & (vs == 3)
    any_free = bool(free.any())
    blo = lo[basis]  # bounds of the basic variables, kept in step with basis
    bhi = hi[basis]
    score = np.empty(w)
    vec = np.empty(w)
    zrow = np.empty(w)
    viol = np.empty(m)
    below = np.empty(m)
    alpha = np.empty(m)
    big = np.empty(m, dtype=bool)
    eq_row = np.empty(m, dtype=bool)  # _pick's buffers
    eq_col = np.empty(w, dtype=bool)
    tt = np.empty(m)
    step = np.empty(m)
    col = np.empty(m)
    outer = np.empty((m, w))

    while True:
        if iters >= max_iter:
            return ITER_LIMIT, iters
        bland = iters >= dantzig_limit

        if phase == 1:
            # ---- dual: the most violated basic variable leaves ----
            np.subtract(blo, xB, out=below)
            np.subtract(xB, bhi, out=viol)
            np.maximum(below, viol, out=viol)
            r = _pick(viol, basis, viol_tol, bland, eq_row)
            if r < 0:
                return OPTIMAL, iters
            up = bool(xB[r] < blo[r])  # the repair raises x_B[r]
            # ---- the column that repairs row r with the largest |D[r, j]| ----
            np.multiply(D[r], 1.0 if up else -1.0, out=vec)
            np.multiply(vec, sign, out=score)
            if any_free:
                np.absolute(vec, out=score, where=free)
            p = _pick(score, nb, tiny, bland, eq_col)
            if p < 0:
                dead[0] = r
                return INFEASIBLE, iters
            q = int(nb[p])
            sq = vstat[q]
            d = 1.0 if (sq == 1 or (sq == 3 and vec[p] < 0.0)) else -1.0
            t = (xB[r] - (blo[r] if up else bhi[r])) / (d * D[r, p])
            leave_to = 1 if up else 2
            Dp = D[:, p]
        else:
            sign_ok, free_ok = sign, free  # masked copies once a column is banned
            banned_any = False
            while True:
                # ---- primal pricing: score > opt_tol is eligible ----
                np.multiply(z, sign_ok, out=score)
                if any_free:
                    np.absolute(z, out=score, where=free_ok)
                p = _pick(score, nb, opt_tol, bland, eq_col)
                if p < 0:
                    return (TINY_PIVOT if banned_any else OPTIMAL), iters
                q = int(nb[p])
                sq = vstat[q]
                d = 1.0 if (sq == 1 or (sq == 3 and z[p] < 0.0)) else -1.0

                # ---- ratio test ----
                Dp = D[:, p]
                np.multiply(Dp, d, out=alpha)
                np.greater(np.absolute(alpha), tiny, out=big)
                tt.fill(_INF)
                np.subtract(xB, np.where(alpha > 0.0, blo, bhi), out=tt, where=big)
                np.divide(tt, alpha, out=tt, where=big)
                np.maximum(tt, 0.0, out=tt)

                t = hi[q] - lo[q]  # inf when either bound is infinite
                r = -1
                if m > 0:
                    if bland:
                        tmin = tt.min()
                        if tmin < t:
                            ties = np.flatnonzero(tt == tmin)
                            r = int(ties[basis[ties].argmin()])
                            t = tmin
                    else:
                        rmin = int(tt.argmin())
                        if tt[rmin] < t:
                            r = rmin
                            t = tt[rmin]

                if t == _INF:
                    # a row with a sub-tiny nonzero coefficient may still block;
                    # never report unbounded over an ignored tiny pivot
                    small_pos = (alpha > 0.0) & ~big
                    small_neg = (alpha < 0.0) & ~big
                    if (small_pos & np.isfinite(blo)).any() or (
                        small_neg & np.isfinite(bhi)
                    ).any():
                        if not banned_any:
                            sign_ok, free_ok = sign.copy(), free.copy()
                            banned_any = True
                        sign_ok[p] = 0.0
                        free_ok[p] = False
                        continue
                    return UNBOUNDED, iters
                break
            leave_to = 1 if r >= 0 and alpha[r] > 0.0 else 2

        tstep = d * t
        np.multiply(Dp, tstep, out=step)
        if r < 0:
            # ---- bound flip ----
            xB -= step
            vstat[q] = 2 if d > 0.0 else 1
            sign[p] = d
        else:
            # ---- pivot: the leaving variable takes column p as e_r ----
            leaving = int(basis[r])
            if sq == 1:
                vq = lo[q]
            elif sq == 2:
                vq = hi[q]
            else:
                vq = 0.0
            xB -= step
            xB[r] = vq + d * t
            np.copyto(col, Dp)
            Dp.fill(0.0)
            Dp[r] = 1.0
            row = D[r]
            row /= col[r]
            if phase != 1:
                zq = z[p]
                z[p] = 0.0
                np.multiply(row, zq, out=zrow)
                z -= zrow
            col[r] = 0.0
            # outer[i, j] = row[j] * col[i]: the product commutes, so these
            # are the bits of col[i] * row[j]
            np.copyto(outer, row)
            np.multiply(outer, col[:, None], out=outer)
            D -= outer
            basis[r] = q
            nb[p] = leaving
            vstat[q] = 0
            vstat[leaving] = leave_to
            if lo[leaving] == hi[leaving]:
                sign[p] = 0.0
            else:
                sign[p] = -1.0 if leave_to == 1 else 1.0
            free[p] = False
            blo[r] = lo[q]
            bhi[r] = hi[q]
        iters += 1
