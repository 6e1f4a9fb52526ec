"""Pure-NumPy bounded-variable simplex: a dual phase 1, a primal phase 2.

``dual_phase`` is the ``py`` kernel; the compiled ``_simplex_c.dual_phase``
is the ``ext`` one, with the same signature (kernels.py picks one).
``primal_phase`` is the only phase 2, whichever kernel ran phase 1.  The
two dual phases are kept *bitwise* interchangeable: every floating-point
expression is written as the same sequence of elementwise
multiply/divide/subtract operations (the extension is compiled with
-ffp-contract=off so no FMA contraction sneaks in), and every tie breaks by
strict inequality and the lowest variable id.  So phase 2 continues from
either one's state with the same bits; the benchmark and parity tests
assert identical pivot sequences and end states.

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
the lowest id of all eligible.  ``argmax`` returns the first maximum, so the
maximum is unique exactly when the first maximum of the reversed scores is
the same entry; only a real tie pays for the equality mask and the id
search.

Kept in step for the whole call, not rebuilt per pivot (`_kept`): one score
sign per column of D (-1 may increase, +1 may decrease, 0 closed; a free
column is flagged apart and scores the magnitude), in phase 1 its negation
``nsign`` too, and the basic bounds ``blo = lo[basis]`` and
``bhi = hi[basis]``.  A column's score is its pricing vector times its
sign: ``z * sign`` in phase 2, and in phase 1 ``D[r] * sign`` for a row
that must rise, ``D[r] * nsign`` for one that must fall, one multiply
either way.  Multiplying by -1 is exact and the sign of a zero product is
the xor of its factors' signs, so these are the bits of row r oriented
first and signed after.  A pivot updates the kept arrays at the entering
column, which the leaving variable now holds, and the pivot row; a bound
flip at the entering column.  Phase 2 updates ``z`` from the pivot row as
the pivot divides it, before the pivot.  A column banned on the TINY_PIVOT
path is cleared in masked copies.  Each call allocates these once, with its
work vectors and one (m, n) buffer for the rank-1 update; the pivot loop
writes into them with ``out=`` and reads scalars with ``.item()``, a Python
float with the same bits.  The rank-1 update stays three full passes
(broadcast copy, broadcast multiply, subtract): a one-step product such as
``einsum``, a k = 1 ``matmul`` (both compute ``0 + a*b``) or skipping the
rows whose ``col`` entry is zero changes the sign of some zeros.

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
# the score sign of an open nonbasic column by its vstat: -1 may increase,
# +1 may decrease, 0 for a free column (scored by magnitude) and any other
# code (take(mode="clip") maps every code to 0..3)
SCORE_SIGN = np.array([0.0, -1.0, 1.0, 0.0])


def _pick(score: np.ndarray, ids: np.ndarray, thresh: float, bland: bool, eq: np.ndarray) -> int:
    """Position of the largest score above `thresh`, the lowest id on ties;
    under Bland's rule the lowest id of all above it.  -1 when none is.
    `eq` is a bool buffer of the score's length."""
    if bland:
        elig = np.greater(score, thresh, out=eq).nonzero()[0]
        return int(elig[ids[elig].argmin()]) if elig.shape[0] else -1
    n = score.shape[0]
    if not n:
        return -1
    p = int(score.argmax())
    s = score.item(p)
    if not s > thresh:
        return -1
    # argmax takes the first maximum, so the maximum is unique iff the
    # first one from the end is the same entry
    if p == n - 1 - int(score[::-1].argmax()):
        return p
    ties = np.equal(score, s, out=eq).nonzero()[0]
    return int(ties[ids[ties].argmin()])


def _kept(D, xB, basis, nb, vstat, lo, hi):
    """What a phase keeps in step with the state for the whole call:
    ``(sign, free, any_free, blo, bhi, score, eq, step)``.  ``score`` and
    ``eq`` are the column pick's buffers; ``step(r, p, q, sq, d, t,
    leave_to)`` moves the variable q (vstat sq) of column p by ``d * t``,
    then flips it to its other bound (r < 0) or pivots it into row r, whose
    variable leaves with vstat ``leave_to``."""
    m, w = D.shape
    # score signs and free flags, kept in step with vstat/lo/hi at the
    # column a step touches
    vs = vstat[nb]
    is_open = lo[nb] != hi[nb]
    sign = np.where(is_open, SCORE_SIGN.take(vs, mode="clip"), 0.0)
    free = is_open & (vs == 3)
    blo = lo[basis]  # bounds of the basic variables, kept in step with basis
    bhi = hi[basis]
    dx = np.empty(m)
    col = np.empty(m)
    col_t = col[:, None]
    outer = np.empty((m, w))
    multiply, subtract = np.multiply, np.subtract

    def step(r, p, q, sq, d, t, leave_to):
        Dp = D[:, p]
        tstep = d * t
        multiply(Dp, tstep, out=dx)
        subtract(xB, dx, out=xB)
        if r < 0:
            # ---- bound flip ----
            vstat[q] = 2 if d > 0.0 else 1
            sign[p] = d
            return
        # ---- pivot: the leaving variable takes column p as e_r ----
        leaving = basis.item(r)
        if sq == 1:
            vq = lo.item(q)
        elif sq == 2:
            vq = hi.item(q)
        else:
            vq = 0.0
        xB[r] = vq + tstep
        col[...] = Dp
        Dp.fill(0.0)
        Dp[r] = 1.0
        row = D[r]
        row /= col.item(r)
        col[r] = 0.0
        # outer[i, j] = row[j] * col[i]: the product commutes, so these
        # are the bits of col[i] * row[j]
        outer[...] = row
        multiply(outer, col_t, out=outer)
        subtract(D, outer, out=D)
        basis[r] = q
        nb[p] = leaving
        vstat[q] = 0
        vstat[leaving] = leave_to
        if lo.item(leaving) == hi.item(leaving):
            sign[p] = 0.0
        else:
            sign[p] = -1.0 if leave_to == 1 else 1.0
        free[p] = False
        blo[r] = lo.item(q)
        bhi[r] = hi.item(q)

    any_free = np.count_nonzero(free) > 0
    return sign, free, any_free, blo, bhi, np.empty(w), np.empty(w, dtype=bool), step


def dual_phase(D, xB, basis, nb, vstat, lo, hi, viol_tol, dantzig_limit, max_iter, tiny,
               dead) -> tuple:
    """Run phase 1, the dual simplex at zero cost, in place; returns
    (status, iters).  ``dead[0]`` is set to the row that ends it INFEASIBLE,
    -1 on every other outcome."""
    iters = 0
    dead[0] = -1
    sign, free, any_free, blo, bhi, score, eq_col, step = _kept(D, xB, basis, nb, vstat, lo, hi)
    nsign = np.negative(sign)  # orients a row that must fall
    m = xB.shape[0]
    viol = np.empty(m)
    below = np.empty(m)
    eq_row = np.empty(m, dtype=bool)
    multiply, subtract = np.multiply, np.subtract

    while True:
        if iters >= max_iter:
            return ITER_LIMIT, iters
        bland = iters >= dantzig_limit
        # ---- the most violated basic variable leaves ----
        subtract(blo, xB, out=below)
        subtract(xB, bhi, out=viol)
        np.maximum(below, viol, out=viol)
        r = _pick(viol, basis, viol_tol, bland, eq_row)
        if r < 0:
            return OPTIMAL, iters
        xr = xB.item(r)
        up = xr < blo.item(r)  # the repair raises x_B[r]
        # ---- the column that repairs row r with the largest |D[r, j]| ----
        row = D[r]
        multiply(row, sign if up else nsign, out=score)
        if any_free:
            np.absolute(row, out=score, where=free)
        p = _pick(score, nb, tiny, bland, eq_col)
        if p < 0:
            dead[0] = r
            return INFEASIBLE, iters
        q = nb.item(p)
        sq = vstat.item(q)
        drp = row.item(p)
        # a free column moves the way its oriented entry is negative
        d = 1.0 if (sq == 1 or (sq == 3 and (drp < 0.0 if up else drp > 0.0))) else -1.0
        t = (xr - (blo.item(r) if up else bhi.item(r))) / (d * drp)
        step(r, p, q, sq, d, t, 1 if up else 2)
        nsign[p] = -sign.item(p)
        iters += 1


def primal_phase(D, z, xB, basis, nb, vstat, lo, hi, dantzig_limit, max_iter, opt_tol,
                 tiny) -> tuple:
    """Run phase 2, the primal simplex on the reduced costs `z`, in place
    from a feasible basis; returns (status, iters).  A `z` whose shape is
    not ``(D.shape[1],)`` raises ValueError before any array is touched."""
    m, w = D.shape
    if z.shape != (w,):
        raise ValueError(f"z has shape {z.shape}, D has {w} columns")
    iters = 0
    sign, free, any_free, blo, bhi, score, eq_col, step = _kept(D, xB, basis, nb, vstat, lo, hi)
    zrow = np.empty(w)
    alpha = np.empty(m)
    big = np.empty(m, dtype=bool)
    tt = np.empty(m)
    multiply, subtract = np.multiply, np.subtract

    while True:
        if iters >= max_iter:
            return ITER_LIMIT, iters
        bland = iters >= dantzig_limit
        sign_ok, free_ok = sign, free  # masked copies once a column is banned
        banned_any = False
        while True:
            # ---- pricing: score > opt_tol is eligible ----
            multiply(z, sign_ok, out=score)
            if any_free:
                np.absolute(z, out=score, where=free_ok)
            p = _pick(score, nb, opt_tol, bland, eq_col)
            if p < 0:
                return (TINY_PIVOT if banned_any else OPTIMAL), iters
            q = nb.item(p)
            sq = vstat.item(q)
            d = 1.0 if (sq == 1 or (sq == 3 and z.item(p) < 0.0)) else -1.0

            # ---- ratio test ----
            Dp = D[:, p]
            multiply(Dp, d, out=alpha)
            np.greater(np.absolute(alpha), tiny, out=big)
            tt.fill(_INF)
            subtract(xB, np.where(alpha > 0.0, blo, bhi), out=tt, where=big)
            np.divide(tt, alpha, out=tt, where=big)
            np.maximum(tt, 0.0, out=tt)

            t = hi.item(q) - lo.item(q)  # inf when either bound is infinite
            r = -1
            if m > 0:
                if bland:
                    tmin = tt.min().item()
                    if tmin < t:
                        ties = np.flatnonzero(tt == tmin)
                        r = int(ties[basis[ties].argmin()])
                        t = tmin
                else:
                    rmin = int(tt.argmin())
                    tr = tt.item(rmin)
                    if tr < t:
                        r = rmin
                        t = tr

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
        if r >= 0:
            # z less zq times the pivot row as the pivot divides it, which
            # puts 1/pivot at column p
            piv = Dp.item(r)
            np.divide(D[r], piv, out=zrow)
            zrow[p] = 1.0 / piv
            zq = z.item(p)
            z[p] = 0.0
            multiply(zrow, zq, out=zrow)
            subtract(z, zrow, out=z)
        step(r, p, q, sq, d, t, 1 if r >= 0 and alpha.item(r) > 0.0 else 2)
        iters += 1
