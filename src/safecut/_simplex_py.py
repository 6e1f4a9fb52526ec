"""Pure-NumPy bounded-variable simplex kernel.

This is the fallback for the compiled kernel in ``_simplex_c``.  The two
implementations are kept *bitwise* interchangeable: every floating-point
expression is written as the same sequence of elementwise multiply/divide/
subtract operations (the extension is compiled with -ffp-contract=off so no
FMA contraction sneaks in), every reduction is sequential in row
order, and every tie breaks by strict inequality and the lowest variable id
(or row).  The benchmark and parity tests assert identical pivot sequences
and end states.

The tableau keeps only the nonbasic columns (the dictionary form): a basic
column is a unit vector that a pivot leaves unchanged, so storing it would
only double the rank-1 update.  State arrays (owned by the driver in lp.py):
  D     (m, W) float64  B^-1 N: the tableau columns of the nonbasic variables
  z     (W,)   float64  reduced costs of those columns
  xB    (m,)   float64  values of the basic variables
  basis (m,)   int64    basic variable per row
  nb    (W,)   int64    nonbasic variable per column of D
  vstat (N,)   int64    0 basic, 1 at lower bound, 2 at upper bound, 3 free
  lo,hi (N,)   float64  variable bounds (+-inf allowed); lo==hi means pinned
with N = W + m variables.  A pivot puts the leaving variable in the
entering one's column of D: that column becomes e_r, then goes through the
same row division and rank-1 update as every other column, which are the
operations the full tableau applies to the leaving variable's unit column.

Variables >= n_art_start are phase-1 artificials; they are pinned to [0, 0]
the moment they leave the basis and are never eligible to re-enter.

Kept in step for the whole call, not rebuilt per pivot: one score sign per
column of D (-1 may increase, +1 may decrease, 0 closed; a free column is
flagged apart and scores |z|), and the basic bounds ``blo = lo[basis]`` and
``bhi = hi[basis]``.  Dantzig pricing is one multiply and an ``argmax``.  A
pivot updates them at the entering column, which the leaving variable now
holds (an artificial that leaves is pinned, so it closes), and the pivot
row; a bound flip at the entering column.  A column banned on the
TINY_PIVOT path is cleared in masked copies.  Each call allocates these
once, with its work vectors and one (m, W) buffer for the rank-1 update;
the pivot loop writes into them with ``out=``.

Return status codes (shared with the compiled kernel):
  0 OPTIMAL        no eligible entering column
  1 REACHED_STOP   phase-1 infeasibility sum fell to <= stop_sum
  2 UNBOUNDED      an improving direction has no blocking bound
  3 TINY_PIVOT     progress blocked only by pivots smaller than `tiny`
  4 ITER_LIMIT     max_iter successful pivots/flips without termination
"""

from __future__ import annotations

import numpy as np

OPTIMAL = 0
REACHED_STOP = 1
UNBOUNDED = 2
TINY_PIVOT = 3
ITER_LIMIT = 4

_INF = np.inf


def infeasibility(xB: np.ndarray, basis: np.ndarray, n_art_start: int) -> float:
    """Sum of the basic artificials' values, in row order like the C loop.

    ``np.add.accumulate`` adds sequentially, and adding the 0.0 of a
    non-artificial row leaves a partial sum unchanged, so the result equals
    the compiled kernel's loop bit for bit.
    """
    if basis.shape[0] == 0:
        return 0.0
    return float(np.add.accumulate(np.where(basis >= n_art_start, xB, 0.0))[-1])


def run_phase(
    D: np.ndarray,
    z: np.ndarray,
    xB: np.ndarray,
    basis: np.ndarray,
    nb: np.ndarray,
    vstat: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    n_art_start: int,
    phase1: int,
    stop_sum: float,
    dantzig_limit: int,
    max_iter: int,
    opt_tol: float,
    tiny: float,
) -> tuple:
    """Run simplex iterations in place; returns (status, iters)."""
    m, w = D.shape
    iters = 0
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
    zrow = np.empty(w)
    alpha = np.empty(m)
    big = np.empty(m, dtype=bool)
    tt = np.empty(m)
    step = np.empty(m)
    col = np.empty(m)
    outer = np.empty((m, w))

    while True:
        if phase1 and infeasibility(xB, basis, n_art_start) <= stop_sum:
            return REACHED_STOP, iters
        if iters >= max_iter:
            return ITER_LIMIT, iters

        bland = iters >= dantzig_limit
        sign_ok, free_ok = sign, free  # masked copies once a column is banned
        banned_any = False

        while True:
            # ---- pricing: score > opt_tol is eligible; ties go to the lowest id ----
            np.multiply(z, sign_ok, out=score)
            if any_free:
                np.absolute(z, out=score, where=free_ok)
            if bland:
                elig = np.flatnonzero(score > opt_tol)
                if not elig.shape[0]:
                    return (TINY_PIVOT if banned_any else OPTIMAL), iters
                p = int(elig[nb[elig].argmin()])
            else:
                p = int(score.argmax()) if w else 0
                if not (w and score[p] > opt_tol):
                    return (TINY_PIVOT if banned_any else OPTIMAL), iters
                ties = np.flatnonzero(score == score[p])
                if ties.shape[0] > 1:
                    p = int(ties[nb[ties].argmin()])
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

            t_limit = hi[q] - lo[q]  # inf when either bound is infinite
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

            if t_limit == _INF:
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

        t = t_limit
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
            leave_to = 1 if alpha[r] > 0.0 else 2
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
            zq = z[p]
            z[p] = 0.0
            np.multiply(row, zq, out=zrow)
            z -= zrow
            col[r] = 0.0
            np.multiply(col[:, None], row, out=outer)
            D -= outer
            basis[r] = q
            nb[p] = leaving
            vstat[q] = 0
            vstat[leaving] = leave_to
            if leaving >= n_art_start:
                lo[leaving] = 0.0
                hi[leaving] = 0.0
            if lo[leaving] == hi[leaving]:
                sign[p] = 0.0
            else:
                sign[p] = -1.0 if leave_to == 1 else 1.0
            free[p] = False
            blo[r] = lo[q]
            bhi[r] = hi[q]
        iters += 1
