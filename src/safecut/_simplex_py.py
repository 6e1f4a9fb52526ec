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
    banned = np.zeros(n, dtype=np.int8)

    while True:
        if phase1 and infeasibility(xB, basis, n_art_start) <= stop_sum:
            return REACHED_STOP, iters
        if iters >= max_iter:
            return ITER_LIMIT, iters

        bland = iters >= dantzig_limit
        if banned.any():
            banned[:] = 0
        banned_any = False

        while True:
            # ---- pricing ----
            open_col = (vstat != 0) & (lo != hi) & (banned == 0)
            can_inc = open_col & ((vstat == 1) | (vstat == 3)) & (z < -opt_tol)
            can_dec = open_col & ((vstat == 2) | (vstat == 3)) & (z > opt_tol)
            if bland:
                elig = can_inc | can_dec
                if not elig.any():
                    return (TINY_PIVOT if banned_any else OPTIMAL), iters
                q = int(np.argmax(elig))
            else:
                score = np.where(can_inc, -z, np.where(can_dec, z, -_INF))
                q = int(np.argmax(score))
                if not score[q] > opt_tol:
                    return (TINY_PIVOT if banned_any else OPTIMAL), iters
            d = 1.0 if (vstat[q] == 1 or (vstat[q] == 3 and z[q] < 0.0)) else -1.0

            # ---- ratio test ----
            alpha = d * T[:, q]
            blo = lo[basis]
            bhi = hi[basis]
            tt = np.full(m, _INF)
            pos = alpha > tiny
            neg = alpha < -tiny
            tt[pos] = (xB[pos] - blo[pos]) / alpha[pos]
            tt[neg] = (xB[neg] - bhi[neg]) / alpha[neg]
            np.maximum(tt, 0.0, out=tt)

            span = hi[q] - lo[q]
            t_limit = span  # inf when either bound is infinite
            r = -1
            if m > 0:
                if bland:
                    tmin = tt.min()
                    if tmin < t_limit:
                        ties = np.nonzero(tt == tmin)[0]
                        r = int(ties[np.argmin(basis[ties])])
                        t_limit = tmin
                else:
                    rmin = int(np.argmin(tt))
                    if tt[rmin] < t_limit:
                        r = rmin
                        t_limit = tt[rmin]

            if t_limit == _INF:
                # a row with a sub-tiny nonzero coefficient may still block;
                # never report unbounded over an ignored tiny pivot
                small_pos = (alpha > 0.0) & ~pos
                small_neg = (alpha < 0.0) & ~neg
                if (small_pos & np.isfinite(blo)).any() or (
                    small_neg & np.isfinite(bhi)
                ).any():
                    banned[q] = 1
                    banned_any = True
                    continue
                return UNBOUNDED, iters
            break

        t = t_limit
        if r < 0:
            # ---- bound flip ----
            tstep = d * t
            xB -= tstep * T[:, q]
            vstat[q] = 2 if d > 0.0 else 1
        else:
            # ---- pivot ----
            leaving = int(basis[r])
            leave_to = 1 if alpha[r] > 0.0 else 2
            if vstat[q] == 1:
                vq = lo[q]
            elif vstat[q] == 2:
                vq = hi[q]
            else:
                vq = 0.0
            tstep = d * t
            xB -= tstep * T[:, q]
            xB[r] = vq + d * t
            piv = T[r, q]
            T[r, :] /= piv
            zq = z[q]
            z -= zq * T[r, :]
            col = T[:, q].copy()
            col[r] = 0.0
            T -= col[:, None] * T[r, :]
            basis[r] = q
            vstat[q] = 0
            vstat[leaving] = leave_to
            if leaving >= n_art_start:
                lo[leaving] = 0.0
                hi[leaving] = 0.0
        iters += 1
