"""Pure-NumPy bounded-variable simplex kernel.

This is the fallback for the compiled kernel in ``_simplex_c``.  The two
implementations are kept *bitwise* interchangeable: every floating-point
expression is written as the same sequence of elementwise multiply/divide/
subtract operations (the extension is compiled with -ffp-contract=off so no
FMA contraction sneaks in), every reduction is sequential in row
order, and all tie-breaking is strict-inequality / lowest-index.  The
benchmark and parity tests assert identical pivot sequences and end states.

State arrays (owned by the driver in lp.py):
  T     (m, N) float64  tableau B^-1 A over all columns
  z     (N,)   float64  reduced costs for the current basis
  xB    (m,)   float64  values of the basic variables
  basis (m,)   int64    basic column per row
  vstat (N,)   int64    0 basic, 1 at lower bound, 2 at upper bound, 3 free
  lo,hi (N,)   float64  column bounds (+-inf allowed); lo==hi means pinned

Columns >= n_art_start are phase-1 artificials; they are pinned to [0, 0]
the moment they leave the basis and are never eligible to re-enter.

Kept in step for the whole call, not rebuilt per pivot: the entry masks
``may_inc`` (nonbasic, lo != hi, vstat 1 or 3) and ``may_dec`` (vstat 2 or
3), and the basic bounds ``blo = lo[basis]`` and ``bhi = hi[basis]``.  A
pivot updates them at the entering column, the leaving column (an
artificial that leaves is pinned, so it closes) and the pivot row; a bound
flip at the entering column.  A column banned on the TINY_PIVOT path is
cleared in masked copies.  Each call allocates these once, with its work
vectors and one (m, N) buffer for the rank-1 update; the pivot loop writes
into them with ``out=``.

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
    T: np.ndarray,
    z: np.ndarray,
    xB: np.ndarray,
    basis: np.ndarray,
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
    m, n = T.shape
    iters = 0
    # entry masks, kept in step with vstat/lo/hi at the columns a step touches
    is_open = (vstat != 0) & (lo != hi)
    may_inc = is_open & ((vstat == 1) | (vstat == 3))
    may_dec = is_open & ((vstat == 2) | (vstat == 3))
    blo = lo[basis]  # bounds of the basic variables, kept in step with basis
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
        inc_ok, dec_ok = may_inc, may_dec  # masked copies once a column is banned
        banned_any = False

        while True:
            # ---- pricing ----
            np.less(z, -opt_tol, out=can_inc)
            can_inc &= inc_ok
            np.greater(z, opt_tol, out=can_dec)
            can_dec &= dec_ok
            if bland:
                elig = can_inc | can_dec
                if not elig.any():
                    return (TINY_PIVOT if banned_any else OPTIMAL), iters
                q = int(elig.argmax())
            else:
                score.fill(-_INF)
                np.copyto(score, z, where=can_dec)
                np.negative(z, out=score, where=can_inc)
                q = int(score.argmax())
                if not score[q] > opt_tol:
                    return (TINY_PIVOT if banned_any else OPTIMAL), iters
            sq = vstat[q]
            d = 1.0 if (sq == 1 or (sq == 3 and z[q] < 0.0)) else -1.0

            # ---- ratio test ----
            Tq = T[:, q]
            np.multiply(Tq, d, out=alpha)
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
                        inc_ok, dec_ok = may_inc.copy(), may_dec.copy()
                        banned_any = True
                    inc_ok[q] = dec_ok[q] = False
                    continue
                return UNBOUNDED, iters
            break

        t = t_limit
        tstep = d * t
        np.multiply(Tq, tstep, out=step)
        if r < 0:
            # ---- bound flip ----
            xB -= step
            vstat[q] = 2 if d > 0.0 else 1
            may_inc[q] = d < 0.0
            may_dec[q] = d > 0.0
        else:
            # ---- pivot ----
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
