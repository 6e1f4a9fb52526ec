"""Simplex kernel: the compiled dual phase when it was built, else NumPy.

Every kernel is a ``run_phase`` with the contract of ``_simplex_py``: the
dual phase 1 or the primal phase 2 in place, returning ``(status, iters)``;
its last argument, a one-element int64 array, receives the row that ends
the dual phase INFEASIBLE, which lp.py checks instead of searching for one.
``py`` is the NumPy kernel.  ``ext``, present when the build produced
``_simplex_c``, runs phase 1 in that module's ``dual_phase`` and phase 2 in
the NumPy kernel: every branch-and-bound node is a phase 1 alone, and phase
2 runs only when the witness polish re-solves a leaf.  The two phase 1s
produce bitwise-identical pivot sequences and states, so the choice changes
speed only, and ``ext`` is used whenever it is there.
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


def _compiled(module):
    """The run_phase of a compiled kernel module: phase 1 in its
    ``dual_phase``, any other phase in the NumPy kernel."""
    dual_phase = module.dual_phase

    def run_phase(D, z, xB, basis, nb, vstat, lo, hi, phase, viol_tol, dantzig_limit,
                  max_iter, opt_tol, tiny, dead):
        if phase == 1:
            # phase 1 leaves z alone, but it is the state phase 2 continues from
            if D.ndim == 2 and z.shape != (D.shape[1],):
                raise ValueError(f"z has shape {z.shape}, D.shape gives ({D.shape[1]},)")
            return dual_phase(D, xB, basis, nb, vstat, lo, hi, viol_tol, dantzig_limit,
                              max_iter, tiny, dead)
        return _simplex_py.run_phase(D, z, xB, basis, nb, vstat, lo, hi, phase, viol_tol,
                                     dantzig_limit, max_iter, opt_tol, tiny, dead)

    return run_phase


_KERNELS = {"py": _simplex_py.run_phase}
try:
    from . import _simplex_c
except ImportError:
    pass
else:
    _KERNELS["ext"] = _compiled(_simplex_c)


def available_kernels() -> dict:
    """Name -> run_phase callable for every kernel usable in this build."""
    return dict(_KERNELS)


KERNEL_NAME = "ext" if "ext" in _KERNELS else "py"
run_phase = _KERNELS[KERNEL_NAME]
