"""The compiled kernel must be a bit-exact drop-in for the reference one."""

import numpy as np
import pytest

from safecut import kernels
from safecut.lp import OPTIMAL, solve_dense, _initial_state

import synth

HAVE_EXT = "ext" in kernels.available_kernels()

pytestmark = pytest.mark.skipif(
    not HAVE_EXT, reason="compiled kernel not built in this environment"
)


def test_both_kernels_registered():
    av = kernels.available_kernels()
    assert "py" in av
    assert kernels.KERNEL_NAME in av


def test_compiled_kernel_is_the_default():
    assert kernels.KERNEL_NAME == "ext"
    assert kernels.run_phase is kernels.available_kernels()["ext"]


def test_outcomes_bitwise_identical_on_random_lps():
    av = kernels.available_kernels()
    rng = np.random.default_rng(2024)
    statuses = set()
    for _ in range(150):
        c, A, rels, b, lo, hi = synth.random_lp(rng)
        out_py = solve_dense(c, A, rels, b, lo, hi, kernel=av["py"])
        out_ext = solve_dense(c, A, rels, b, lo, hi, kernel=av["ext"])
        statuses.add(out_py.status)
        assert out_py.status == out_ext.status
        if out_py.status == OPTIMAL:
            # not approx-equal: equal to the last bit, including the point
            assert out_py.objective_value == out_ext.objective_value
            assert np.array_equal(out_py.point, out_ext.point)
            # a warm re-solve with column 0 pinned, each from its own state
            lo2, hi2 = lo.copy(), hi.copy()
            hi2[0] = lo2[0]
            warm_py = solve_dense(
                c, A, rels, b, lo2, hi2, kernel=av["py"], start=out_py.state
            )
            warm_ext = solve_dense(
                c, A, rels, b, lo2, hi2, kernel=av["ext"], start=out_ext.state
            )
            assert warm_py.status == warm_ext.status
            assert warm_py.pivots == warm_ext.pivots
            if warm_py.status == OPTIMAL:
                assert warm_py.objective_value == warm_ext.objective_value
                assert np.array_equal(warm_py.point, warm_ext.point)
    assert OPTIMAL in statuses


def test_run_phase_state_arrays_match_bitwise():
    av = kernels.available_kernels()
    rng = np.random.default_rng(77)
    for _ in range(40):
        c, A, rels, b, lo, hi = synth.random_lp(rng)
        m, n = A.shape
        states = {}
        for name, kern in av.items():
            T, xB, basis, vstat, lo_all, hi_all, n_art = _initial_state(
                c, A, rels, b, lo, hi
            )
            if n_art == 0:
                continue
            n_all = T.shape[1]
            c1 = np.zeros(n_all)
            c1[n + m :] = 1.0
            z = c1 - np.dot(c1[basis], T)
            z[basis] = 0.0
            status, iters = kern(
                T, z, xB, basis, vstat, lo_all, hi_all,
                n + m, 1, 1e-9, 10 * (m + n_all), 50_000, 1e-7, 1e-11,
            )
            states[name] = (status, iters, T, xB, basis.copy(), vstat.copy())
        if not states:
            continue
        s_py, s_ext = states["py"], states["ext"]
        assert s_py[0] == s_ext[0] and s_py[1] == s_ext[1]
        assert np.array_equal(s_py[2], s_ext[2])  # tableau, every byte
        assert np.array_equal(s_py[3], s_ext[3])
        assert np.array_equal(s_py[4], s_ext[4])
        assert np.array_equal(s_py[5], s_ext[5])
