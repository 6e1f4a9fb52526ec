"""The compiled kernel must be a bit-exact drop-in for the reference one.

A kernel is a dual phase 1: ``_simplex_py.dual_phase`` or the compiled
``_simplex_c.dual_phase``.  Phase 2 is ``_simplex_py.primal_phase`` after
either one, so the phase-2 cases check that it continues from the compiled
phase 1's state with the same bits.

When ``safecut._simplex_c`` is not importable, the ``ext`` fixture builds it
with the repository's ``setup.py`` into a temporary directory, so these
tests run from a plain checkout; they skip only when there is no C compiler.
"""

import dataclasses
import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig

import numpy as np
import pytest

import safecut
import safecut.lp as lp_module
import safecut.verifier
from safecut import _simplex_py, kernels, verify
from safecut.errors import NumericalBreakdownError
from safecut.lp import (
    INFEASIBLE, OPTIMAL, UNBOUNDED, VIOL_TOL, LinearProgram, _is_dead, _slack_basis, _warm_state,
    solve_dense,
)

import oracles
import synth
from harness import child_env

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _c_compiler():
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    return shutil.which(shlex.split(cc)[0])


@pytest.fixture(scope="session")
def ext(tmp_path_factory):
    """(compiled kernel module, directory to put on a child's path).

    The directory is None when the module is importable in place; otherwise
    it holds a copy of the package under test beside the freshly built
    module, so a child process importing ``safecut`` from it selects ``ext``.
    """
    try:
        return importlib.import_module("safecut._simplex_c"), None
    except ImportError:
        pass
    if _c_compiler() is None:
        pytest.skip("no C compiler found to build safecut._simplex_c")
    lib = tmp_path_factory.mktemp("ext")
    subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(lib), "--build-temp", str(lib / "temp")],
        cwd=REPO, check=True, capture_output=True,
    )
    built = sorted((lib / "safecut").glob("_simplex_c.*"))
    assert built, "setup.py build_ext produced no safecut._simplex_c"
    shutil.copytree(
        os.path.dirname(safecut.__file__), lib / "safecut", dirs_exist_ok=True,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    spec = importlib.util.spec_from_file_location("safecut._simplex_c", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module, str(lib)


@pytest.fixture
def av(ext):
    return {"py": _simplex_py.dual_phase, "ext": ext[0].dual_phase}


def test_both_kernels_registered():
    av = kernels.available_kernels()
    assert "py" in av
    assert kernels.KERNEL_NAME in av


def test_compiled_kernel_is_the_default(ext):
    env = child_env() if ext[1] is None else child_env(PYTHONPATH=ext[1])
    code = (
        "from safecut import kernels\n"
        "print(kernels.KERNEL_NAME, "
        "kernels.run_phase is kernels.available_kernels()['ext'])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    )
    assert out.stdout.split() == ["ext", "True"]


def test_outcomes_bitwise_identical_on_random_lps(av):
    rng = np.random.default_rng(2024)
    statuses = set()
    for _ in range(150):
        c, A, rels, b, lo, hi = synth.random_lp(rng)
        lp = LinearProgram(c, A, rels, b, lo, hi)
        out_py = solve_dense(lp, kernel=av["py"])
        out_ext = solve_dense(lp, kernel=av["ext"])
        statuses.add(out_py.status)
        assert (out_py.status, out_py.proof_row) == (out_ext.status, out_ext.proof_row)
        if out_py.status == OPTIMAL:
            # not approx-equal: equal to the last bit, including the point
            assert out_py.objective_value == out_ext.objective_value
            assert np.array_equal(out_py.point, out_ext.point)
            # a warm re-solve with column 0 pinned, each from its own state
            lo2, hi2 = lo.copy(), hi.copy()
            hi2[0] = lo2[0]
            warm_py = solve_dense(lp, lo2, hi2, kernel=av["py"], start=out_py.state)
            warm_ext = solve_dense(lp, lo2, hi2, kernel=av["ext"], start=out_ext.state)
            assert (warm_py.status, warm_py.pivots) == (warm_ext.status, warm_ext.pivots)
            assert warm_py.proof_row == warm_ext.proof_row
            if warm_py.status == OPTIMAL:
                assert warm_py.objective_value == warm_ext.objective_value
                assert np.array_equal(warm_py.point, warm_ext.point)
    assert {OPTIMAL, INFEASIBLE} <= statuses


def _pick_reference(score, ids, thresh, bland):
    """The pick rule restated: among the scores above `thresh`, the lowest
    id of all (Bland) or of those equal to the largest; -1 when none is."""
    elig = [i for i in range(score.shape[0]) if score[i] > thresh]
    if not elig:
        return -1
    if not bland:
        top = max(score[i] for i in elig)
        elig = [i for i in elig if score[i] == top]
    return min(elig, key=lambda i: ids[i])


def test_pick_matches_its_definition_on_tie_heavy_scores():
    rng = np.random.default_rng(3)
    ties = 0
    for _ in range(3000):
        k = int(rng.integers(0, 9))
        score = rng.choice(np.array([0.0, -0.0, 1.0, -1.0, 2.0, -2.0]), k)
        ids = rng.permutation(3 * k + 1)[:k].astype(np.int64)
        thresh = float(rng.choice([-1.5, 0.0, 0.5, 1.5, 2.0]))
        eq = np.empty(k, dtype=bool)
        for bland in (False, True):
            got = _simplex_py._pick(score, ids, thresh, bland, eq)
            assert got == _pick_reference(score, ids, thresh, bland)
        ties += k > 1 and int((score == score.max()).sum()) > 1 and score.max() > thresh
    assert ties >= 500

    # verifier-size vectors (the deep suite's tableaus are 76 x 48), with the
    # maximum placed at the first and the last entry, alone or tied, and
    # ties of +0.0 with -0.0: the cases `_pick`'s uniqueness test (first
    # argmax against the last one) compares
    seen = dict(first=0, last=0, both=0, signed_zero=0)
    for _ in range(3000):
        k = int(rng.integers(9, 81))
        score = rng.choice(np.array([0.0, -0.0, -1.0, -2.0, 0.5, 1.0]), k)
        top = float(rng.choice([0.0, -0.0, 1.0, 2.0]))
        np.minimum(score, top, out=score)
        where = int(rng.integers(4))  # neither, first, last, both ends
        if where & 1:
            score[0] = top
        if where & 2:
            score[-1] = top
        if top == 0.0 and where and rng.random() < 0.5:
            # the other zero at the other end, or in the middle
            score[k - 1 if where == 1 else 0 if where == 2 else k // 2] = -top
        ids = rng.permutation(2 * k)[:k].astype(np.int64)
        thresh = float(rng.choice([-0.5, -1e-300, 0.0, 0.5, 1.5]))
        eq = np.empty(k, dtype=bool)
        for bland in (False, True):
            got = _simplex_py._pick(score, ids, thresh, bland, eq)
            assert got == _pick_reference(score, ids, thresh, bland)
        at_top = score == score.max()
        if score.max() > thresh:
            seen["first"] += bool(at_top[0]) and int(at_top.sum()) == 1
            seen["last"] += bool(at_top[-1]) and int(at_top.sum()) == 1
            seen["both"] += bool(at_top[0] and at_top[-1])
            seen["signed_zero"] += score.max() == 0.0 and len(set(np.signbit(score[at_top]))) == 2
    assert min(seen.values()) >= 100, seen


def _gaussian_lp(rng):
    """A Gaussian LP, some columns with an infinite bound or none at all."""
    n, m = int(rng.integers(1, 7)), int(rng.integers(0, 8))
    c = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    rels = rng.choice(np.array([-1, 0, 1], dtype=np.int8), m)
    lo = rng.normal(size=n) - 1.0
    hi = lo + rng.exponential(2.0, n)
    lo[rng.random(n) < 0.25] = -np.inf
    hi[rng.random(n) < 0.25] = np.inf
    return c, A, rels, rng.normal(size=m), lo, hi


def _anchored_lp(rng, zero_objective, integral):
    """An LP of verifier size, 140 rows by 90 columns in [-5, 5], drawn around
    an anchor x0 in [-1, 1] that meets every <= row with room to spare; a >=
    row's rhs lies in [A x0 - 4, A x0 + 2], so the anchor may miss it.  With
    a zero objective the solve is the dual phase 1 alone, as at a
    branch-and-bound node; otherwise phase 2 follows, 250-400 pivots in all.
    Integral entries make equal scores common, as the verifier's +-1 rows
    do; with Gaussian ones the kernels' tie-breaks rarely decide a pivot."""
    n, m = 90, 140
    A = rng.integers(-5, 6, (m, n)).astype(np.float64) if integral else rng.normal(size=(m, n))
    x0 = rng.uniform(-1.0, 1.0, n)
    rels = rng.choice(np.array([-1, 1], dtype=np.int8), m)
    b = A @ x0 + rng.uniform(0.0, 2.0, m)
    b = np.where(rels == 1, b - rng.uniform(0.0, 4.0, m), b)
    c = np.zeros(n) if zero_objective else rng.normal(size=n)
    return c, A, rels, b, np.full(n, -5.0), np.full(n, 5.0)


class _Recorder:
    """Solves with one kernel and counts what each phase call exercised."""

    def __init__(self, run):
        self.run = run
        self.seen = dict(dual=0, phase2=0, free=0, flips=0)

    def _count(self, kind, run, vstat, args):
        before = vstat.copy()
        status, iters = run(*args)
        self.seen[kind] += iters > 0
        self.seen["free"] += bool((before == 3).any())
        # a nonbasic column that ends at its other bound: mostly bound flips
        self.seen["flips"] += int((before * vstat == 2).sum())
        return status, iters

    def dual(self, *args):  # (D, xB, basis, nb, vstat, ...)
        return self._count("dual", self.run, args[4], args)

    def primal(self, *args):  # (D, z, xB, basis, nb, vstat, ...)
        return self._count("phase2", _simplex_py.primal_phase, args[5], args)

    def solve(self, monkeypatch, *args, **kwargs):
        monkeypatch.setattr(lp_module, "primal_phase", self.primal)
        return solve_dense(*args, kernel=self.dual, **kwargs)


def _assert_same_outcome(a, b):
    assert (a.status, a.pivots, a.proof_row) == (b.status, b.pivots, b.proof_row)
    if a.status == OPTIMAL:
        assert a.point.tobytes() == b.point.tobytes()
        assert a.objective_value == b.objective_value
    assert (a.state is None) == (b.state is None)
    for x, y in zip(a.state or (), b.state or ()):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def test_phase2_and_warm_chain_states_match_bitwise(av, monkeypatch):
    # every solve of a cold start and three warm children in a row, each
    # kernel from its own previous state: the same outcome, point, proof row
    # and seven state arrays to the byte after phase 2, not only after the
    # dual phase 1; small LPs first, then a dozen of verifier size
    rng = np.random.default_rng(8)
    rec = {name: _Recorder(run) for name, run in av.items()}
    statuses = set()
    for k in range(312):
        if k < 300:
            c, A, rels, b, lo, hi = (synth.random_lp if k % 2 else _gaussian_lp)(rng)
        else:
            c, A, rels, b, lo, hi = _anchored_lp(rng, k % 2 == 0, integral=k % 4 >= 2)
        lp = LinearProgram(c, A, rels, b, lo, hi)
        outs = {name: rec[name].solve(monkeypatch, lp) for name in av}
        assert k < 300 or outs["py"].status == OPTIMAL  # so warm children follow
        for depth in range(4):  # the cold solve, then three warm children
            _assert_same_outcome(outs["py"], outs["ext"])
            statuses.add(outs["py"].status)
            if depth == 3 or outs["py"].status != OPTIMAL:
                break
            j = int(rng.integers(len(c)))
            x = outs["py"].point[j]
            lo, hi = lo.copy(), hi.copy()
            if rng.random() < 0.5:
                hi[j] = max(lo[j], np.floor(x)) if np.floor(x) < x else x - 0.5
            else:
                lo[j] = min(hi[j], np.ceil(x)) if np.ceil(x) > x else x + 0.5
            if rng.random() < 0.3:  # a new objective, as the witness polish sets
                lp = dataclasses.replace(lp, c=rng.normal(size=len(c)))
            outs = {
                name: rec[name].solve(monkeypatch, lp, lo, hi, start=out.state)
                for name, out in outs.items()
            }
    assert rec["py"].seen == rec["ext"].seen
    assert min(rec["py"].seen.values()) >= 20, rec["py"].seen
    assert {OPTIMAL, INFEASIBLE, UNBOUNDED} <= statuses


def test_verify_searches_alike_with_both_kernels(av):
    # the whole branch-and-bound run of a pinned 24-unstable member: the same
    # verdict, and the same search, node for node and pivot for pivot
    net, query = synth.ladder_member()
    by_kernel = {name: verify(net, query, kernel=run) for name, run in av.items()}
    py, ext = by_kernel["py"], by_kernel["ext"]
    assert py.status == ext.status
    keys = ("nodes_explored", "lp_solves", "pivots", "max_depth")
    assert [py.stats[k] for k in keys] == [ext.stats[k] for k in keys]
    assert py.stats["nodes_explored"] >= 100


def _phase1_args(c, A, rels, b, lo, hi):
    """Dual phase arrays (D, xB, basis, nb, vstat, lo, hi) of the LP's slack
    start, or None if no row of it is violated."""
    state = _warm_state(_slack_basis(A, rels, b, lo, hi), A, lo, hi)
    D, xB, basis, nb, vstat, lo_all, hi_all = state
    if not (np.maximum(lo_all[basis] - xB, xB - hi_all[basis]) > VIOL_TOL).any():
        return None
    return list(state)


# (dantzig_limit, tiny): the solver's Dantzig-then-Bland schedule; Bland's
# rule from the first pivot, with the lowest-basis-index row of the dual and
# the primal ratio test's tie-break; and a pivot threshold large enough to
# end the dual with INFEASIBLE more often and to ban columns in phase 2
@pytest.mark.parametrize(
    "dantzig_limit, tiny", [(None, 1e-11), (0, 1e-11), (0, 0.3)]
)
def test_run_phase_state_arrays_match_bitwise(av, dantzig_limit, tiny):
    # each kernel's dual phase 1 from a slack start, then the primal phase 2
    # on a random cost from where that kernel's phase 1 ended: status,
    # iterations, every array and the row handed back in `dead` to the byte
    # after each; an infeasible dual phase hands back a row that is dead
    rng = np.random.default_rng(77)
    statuses = {1: set(), 2: set()}
    for _ in range(400):
        lp = synth.random_lp(rng)
        if _phase1_args(*lp) is None:
            continue
        arrays = {name: _phase1_args(*lp) for name in av}
        m, N = arrays["py"][1].shape[0], arrays["py"][4].shape[0]
        cost = rng.normal(size=N)
        limit = 10 * (m + N) if dantzig_limit is None else dantzig_limit
        out = {}
        for name, kern in av.items():
            dead = np.full(1, 7, dtype=np.int64)
            status, iters = kern(*arrays[name], VIOL_TOL, limit, 50_000, tiny, dead)
            if status != kernels.INFEASIBLE:
                assert dead[0] == -1
            elif tiny == 1e-11:  # the pivot floor solve_dense checks with
                assert _is_dead(arrays[name], int(dead[0]))
            out[name] = (status, iters, int(dead[0]), [a.tobytes() for a in arrays[name]])
        assert out["py"] == out["ext"]  # every byte, zero signs too
        statuses[1].add(out["py"][0])
        if out["py"][0] != kernels.OPTIMAL:
            continue
        for name in av:
            D, _, basis, nb = arrays[name][:4]
            P = cost[basis][:, None] * D
            z = cost[nb] - np.add.accumulate(P, axis=0)[-1]
            status, iters = _simplex_py.primal_phase(
                D, z, *arrays[name][1:], limit, 50_000, 1e-7, tiny
            )
            out[name] = (status, iters, [a.tobytes() for a in [z] + arrays[name]])
        assert out["py"] == out["ext"]
        statuses[2].add(out["py"][0])
    assert statuses[1] == {kernels.OPTIMAL, kernels.INFEASIBLE}
    assert kernels.OPTIMAL in statuses[2]
    if tiny == 0.3:
        assert kernels.TINY_PIVOT in statuses[2]


def _refused_args():
    """Dual phase arrays of an LP with at least 2 rows and 2 columns."""
    rng = np.random.default_rng(5)
    while True:
        args = _phase1_args(*synth.random_lp(rng))
        if args is not None and min(args[0].shape) >= 2:
            return args


@pytest.mark.parametrize(
    "case",
    [
        "fortran_T", "int32_basis", "int64_T", "flat_T", "long_xB",
        "bad_basis", "short_nb", "bad_nb", "long_vstat", "float_dead", "long_dead",
        "readonly_dead",
    ],
)
def test_ext_refuses_malformed_arrays(av, case):
    D, xB, basis, nb, vstat, lo, hi = _refused_args()
    dead = np.full(1, 7, dtype=np.int64)
    # "T" in a case id is the tableau, D
    if case == "fortran_T":
        D = np.asfortranarray(D)
    elif case == "int32_basis":
        basis = basis.astype(np.int32)
    elif case == "int64_T":
        D = D.astype(np.int64)
    elif case == "flat_T":
        D = D.ravel()
    elif case == "long_xB":
        xB = np.append(xB, 0.0)
    elif case == "bad_basis":
        basis = basis.copy()
        basis[0] = vstat.shape[0]
    elif case == "short_nb":
        nb = nb[:-1].copy()
    elif case == "bad_nb":
        nb = nb.copy()
        nb[0] = -1
    elif case == "long_vstat":
        vstat = np.append(vstat, 1)
    elif case == "float_dead":
        dead = dead.astype(np.float64)
    elif case == "long_dead":
        dead = np.append(dead, 7)
    elif case == "readonly_dead":
        dead.setflags(write=False)
    bad = [D, xB, basis, nb, vstat, lo, hi, dead]
    before = [a.copy() for a in bad]
    with pytest.raises((ValueError, BufferError)):
        av["ext"](*bad[:7], 1e-9, 100, 50_000, 1e-11, dead)
    for a, a0 in zip(bad, before):
        assert a.tobytes() == a0.tobytes()


def test_primal_phase_refuses_a_z_of_the_wrong_shape():
    # phase 2 reads z at every column of D: a z one short, or of length 1,
    # which NumPy would broadcast, raises ValueError and leaves every array
    # as it was
    D, xB, basis, nb, vstat, lo, hi = _refused_args()
    w = D.shape[1]
    rng = np.random.default_rng(6)
    for z in (rng.normal(size=w - 1), rng.normal(size=1)):
        arrays = [D, z, xB, basis, nb, vstat, lo, hi]
        before = [a.tobytes() for a in arrays]
        with pytest.raises(ValueError, match="z has shape"):
            _simplex_py.primal_phase(*arrays, 100, 50_000, 1e-7, 1e-11)
        assert [a.tobytes() for a in arrays] == before


class _Lockstep:
    """Solves every LP with both kernels and with the full-tableau reference.

    Each of the three walks its own chain of warm starts; the states of one
    solve are filed under the state its caller will hand back as ``start``
    (the ``py`` one).  After every phase, the kernel's dual phase 1 and
    ``primal_phase``, which `safecut.lp` calls through its module attribute,
    each kernel's solve must match the reference: status, iterations, xB,
    basis, vstat and bounds to the byte, z after phase 2, ``D`` equal to
    ``T[:, nb]``, zero signs included, and the row handed back in ``dead``;
    an infeasible outcome must name the reference's proof row.
    """

    # (dead row, arrays) of a call's arguments: the dual phase's
    # (D, xB, ..., dead), the primal phase's (D, z, xB, ...) and the
    # reference's (T, z, xB, basis, vstat, lo, hi, ..., dead)
    _DUAL = staticmethod(lambda a: (int(a[-1][0]), (a[0], None) + a[1:7]))
    _PRIMAL = staticmethod(lambda a: (-1, a[:8]))
    _REF = staticmethod(lambda a: (int(a[-1][0]), a[:7]))

    def __init__(self, av, monkeypatch):
        self.av = av
        self.monkeypatch = monkeypatch
        self.chains = {}  # id(py state) -> (py state, {name: start})
        self.phases = 0
        self.statuses = set()

    @staticmethod
    def _recording(run, log, unpack):
        def recorded(*args):
            status, iters = run(*args)
            dead, arrays = unpack(args)
            log.append((status, iters, dead, [None if a is None else a.copy() for a in arrays]))
            return status, iters

        return recorded

    def solve(self, lp, lo=None, hi=None, kernel=None, start=None):
        starts = {"py": None, "ext": None, "ref": None}
        if start is not None:
            starts = self.chains[id(start)][1]
        logs = {name: [] for name in starts}
        outs = {}
        for name, run in self.av.items():
            primal = self._recording(_simplex_py.primal_phase, logs[name], self._PRIMAL)
            self.monkeypatch.setattr(lp_module, "primal_phase", primal)
            try:
                outs[name] = solve_dense(
                    lp, lo, hi, kernel=self._recording(run, logs[name], self._DUAL),
                    start=starts[name],
                )
            except NumericalBreakdownError:
                outs[name] = None
        ref = oracles.tableau_solve(
            lp, lo, hi,
            run=self._recording(oracles.tableau_run_phase, logs["ref"], self._REF),
            start=starts["ref"],
        )
        for name in self.av:
            self._assert_phases_match(logs[name], logs["ref"])
            out = outs[name]
            if out is None:
                assert ref[0] == "breakdown"
                continue
            assert (out.status, out.pivots, out.proof_row) == (ref[0], ref[1], ref[4])
            if out.status == OPTIMAL:
                assert out.point.tobytes() == ref[2].tobytes()
        self.phases += len(logs["ref"])
        self.statuses.add(ref[0])
        if outs["py"] is None:
            raise NumericalBreakdownError("the reference broke down too")
        if outs["py"].status == OPTIMAL:
            nxt = {"py": outs["py"].state, "ext": outs["ext"].state, "ref": ref[3]}
            self.chains[id(outs["py"].state)] = (outs["py"].state, nxt)
        return outs["py"]

    @staticmethod
    def _assert_phases_match(got, want):
        assert len(got) == len(want)
        for (status, iters, dead, arrays), (w_status, w_iters, w_dead, w_arrays) in zip(got, want):
            assert (status, iters, dead) == (w_status, w_iters, w_dead)
            D, z, xB, basis, nb, vstat, lo, hi = arrays
            T, wz, wxB, wbasis, wvstat, wlo, whi = w_arrays
            for a, w in ((xB, wxB), (basis, wbasis), (vstat, wvstat), (lo, wlo), (hi, whi)):
                assert a.dtype == w.dtype and a.tobytes() == w.tobytes()
            assert np.array_equal(np.sort(nb), np.flatnonzero(wvstat != 0))
            assert D.tobytes() == np.ascontiguousarray(T[:, nb]).tobytes()
            assert z is None or z.tobytes() == wz[nb].tobytes()


def test_both_kernels_match_the_full_tableau_reference(av, monkeypatch):
    # random LPs and chains of warm children, then a whole branch and bound:
    # after every phase both nonbasic-only kernels hold exactly the values
    # the full tableau holds, and they reach the same outcomes and proof rows
    lock = _Lockstep(av, monkeypatch)
    rng = np.random.default_rng(12)
    for k in range(200):
        c, A, rels, b, lo, hi = (synth.random_lp if k % 2 else _gaussian_lp)(rng)
        lp = LinearProgram(c, A, rels, b, lo, hi)
        out = lock.solve(lp)
        for _ in range(3):
            if out.status != OPTIMAL:
                break
            j = int(rng.integers(len(c)))
            lo, hi = lo.copy(), hi.copy()
            if rng.random() < 0.5:
                hi[j] = max(lo[j], np.floor(out.point[j]))
            else:
                lo[j] = min(hi[j], np.ceil(out.point[j]))
            out = lock.solve(lp, lo, hi, start=out.state)
    assert {OPTIMAL, INFEASIBLE, UNBOUNDED} <= lock.statuses
    phases = lock.phases
    monkeypatch.setattr(safecut.verifier, "solve_dense", lock.solve)
    net, query = synth.ladder_member(32)
    verdict = verify(net, query)
    assert verdict.status == "safe"
    assert verdict.stats["lp_solves"] >= 100
    assert phases >= 400 and lock.phases - phases >= 150
