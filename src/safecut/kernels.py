"""Simplex kernel: the compiled dual phase when it was built, else NumPy.

A kernel is a dual phase 1 with the signature of ``_simplex_py.dual_phase``:
``(D, xB, basis, nb, vstat, lo, hi, viol_tol, dantzig_limit, max_iter, tiny,
dead) -> (status, iters)``, in place; ``dead``, a one-element int64 array,
receives the row that ends the phase INFEASIBLE, which lp.py checks instead
of searching for one.  ``py`` is ``_simplex_py.dual_phase``; ``ext``,
present when the build produced ``_simplex_c``, is that module's
``dual_phase``.  The two produce bitwise-identical pivot sequences and
states, so the choice changes speed only, and ``ext`` is used whenever it
is there.  Every branch-and-bound node is a phase 1 alone; phase 2,
``_simplex_py.primal_phase``, is not a kernel choice and continues from
either kernel's state.  ``verify(kernel=...)`` and
``solve_dense(kernel=...)`` take any entry of ``available_kernels()``.
"""

from __future__ import annotations

from . import _simplex_py

OPTIMAL = _simplex_py.OPTIMAL
INFEASIBLE = _simplex_py.INFEASIBLE
UNBOUNDED = _simplex_py.UNBOUNDED
TINY_PIVOT = _simplex_py.TINY_PIVOT
ITER_LIMIT = _simplex_py.ITER_LIMIT

_KERNELS = {"py": _simplex_py.dual_phase}
try:
    from . import _simplex_c
except ImportError:
    pass
else:
    _KERNELS["ext"] = _simplex_c.dual_phase


def available_kernels() -> dict:
    """Name -> dual phase callable for every kernel usable in this build."""
    return dict(_KERNELS)


KERNEL_NAME = "ext" if "ext" in _KERNELS else "py"
run_phase = _KERNELS[KERNEL_NAME]  # the kernel of solve_dense(kernel=None)
