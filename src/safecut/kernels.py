"""Simplex kernel: the compiled extension when it was built, else NumPy.

The compiled kernel (``_simplex_c``) and the NumPy kernel (``_simplex_py``)
implement the same contract, one ``run_phase`` for the dual phase 1 and the
primal phase 2, and produce bitwise-identical pivot sequences, so the
choice changes speed only: the compiled one is used whenever the
build produced it.  ``run_phase`` returns ``(status, iters)``; its last
argument, a one-element int64 array, receives the row that ends the dual
phase INFEASIBLE, which lp.py checks instead of searching for one.
``verify(kernel=...)`` and ``solve_dense(kernel=...)`` take any entry of
``available_kernels()``.
"""

from __future__ import annotations

from . import _simplex_py

OPTIMAL = _simplex_py.OPTIMAL
INFEASIBLE = _simplex_py.INFEASIBLE
UNBOUNDED = _simplex_py.UNBOUNDED
TINY_PIVOT = _simplex_py.TINY_PIVOT
ITER_LIMIT = _simplex_py.ITER_LIMIT

try:
    from . import _simplex_c
except ImportError:
    _simplex_c = None


def available_kernels() -> dict:
    """Name -> run_phase callable for every kernel usable in this build."""
    kernels = {"py": _simplex_py.run_phase}
    if _simplex_c is not None:
        kernels["ext"] = _simplex_c.run_phase
    return kernels


KERNEL_NAME = "py" if _simplex_c is None else "ext"
run_phase = available_kernels()[KERNEL_NAME]
