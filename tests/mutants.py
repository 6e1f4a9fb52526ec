"""Committed mutants of safecut's soundness guards, and their runner.

Each entry of MUTANTS is ``(file, old text, new text, test ids)``: the file
under ``src/safecut``, an exact piece of it that must occur there once, what
it becomes in the mutant, and the tests of which every one must fail
against it.  A mutant weakens one guard; if its tests still pass, nothing
would notice that guard going away.

    python tests/mutants.py

applies each mutant to a temporary copy of ``src/``, runs only its tests
there in a subprocess (``PYTHONPATH`` puts the copy first) and prints the
outcome and the time.  It exits 1 when a mutant survives, when its old text
does not occur exactly once, or when its tests fail to run at all.  A
refactor that moves a guard must move its mutant with it;
``tests/test_mutants.py`` checks the old texts in tier-1.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple, Optional, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    kills: Tuple[str, ...]


MUTANTS = (
    # lp._is_dead: a row the kernel names dead must be violated beyond VIOL_TOL
    Mutant(
        "lp.py",
        "    if not max(blo - x, x - bhi) > VIOL_TOL:\n        return False\n",
        "",
        (
            "tests/test_lp.py::test_dead_row_check_matches_the_tableau_reference",
            "tests/test_lp.py::test_a_kernel_naming_a_repairable_row_dead_breaks_down",
        ),
    ),
    # lp.solve_dense: a phase-2 optimum is re-checked against every constraint
    Mutant(
        "lp.py",
        "msg = _recheck(x, A, rels, b, lo, hi)",
        "msg = None",
        ("tests/test_lp.py::test_only_a_phase_2_optimum_is_rechecked",),
    ),
    # milp._shift: an inexact rhs of a <= row is rounded up, never down
    Mutant(
        "milp.py",
        "return float(np.nextafter(s, np.inf)) if err > 0.0 else s",
        "return s",
        ("tests/test_milp.py::test_inexact_rhs_is_rounded_outward[<=]",),
    ),
    # verifier._Search._solve: a warm breakdown is retried cold before the
    # node is given up
    Mutant(
        "verifier.py",
        "            if start is not None:\n"
        "                return self._solve(lp, lo, hi, None, what)\n",
        "",
        ("tests/test_verifier.py::test_warm_breakdown_falls_back_to_cold_solve",),
    ),
    # monitor.violations: NaN compares false both ways, so it is outside
    Mutant(
        "monitor.py",
        "box = ~((acts >= bounds.lo) & (acts <= bounds.hi))",
        "box = (acts < bounds.lo) | (acts > bounds.hi)",
        (
            "tests/test_monitor.py::test_batch_violations_match_per_index_loop[False]",
            "tests/test_monitor.py::test_batch_violations_match_per_index_loop[True]",
        ),
    ),
    # stats._covers: the coverage target 1 - delta is rounded up
    Mutant(
        "stats.py",
        "math.nextafter(1.0 - delta, 2.0)",
        "(1.0 - delta)",
        ("tests/test_stats.py::test_covers_nothing_it_has_not_certified_at_one_minus_delta",),
    ),
    # _simplex_py.primal_phase: a z that would broadcast is refused
    Mutant(
        "_simplex_py.py",
        "    if z.shape != (w,):\n",
        "    if False:\n",
        ("tests/test_kernels.py::test_primal_phase_refuses_a_z_of_the_wrong_shape",),
    ),
    # cli.cmd_monitor: an undecodable byte fails its row, not the run
    Mutant(
        "cli.py",
        'block.decode(sys.stdin.encoding, "surrogateescape")',
        "block.decode(sys.stdin.encoding, sys.stdin.errors)",
        ("tests/test_cli.py::test_monitor_reports_an_undecodable_byte_as_its_rows_error",),
    ),
)


def misplaced(m: Mutant) -> Optional[str]:
    """Why `m` cannot be applied as written, or None."""
    with open(os.path.join(SRC, "safecut", m.file), encoding="utf-8") as f:
        count = f.read().count(m.old)
    if count != 1:
        return f"old text occurs {count} times in {m.file}, not once"
    if m.old == m.new or not m.kills:
        return "the mutant changes nothing or names no test"
    for test in m.kills:
        path, name = test.split("::")
        with open(os.path.join(REPO, path), encoding="utf-8") as f:
            if f"def {name.split('[')[0]}(" not in f.read():
                return f"no test {test}"
    return None


def run(m: Mutant) -> Optional[str]:
    """Why `m` was not killed, or None when every one of its tests failed."""
    with tempfile.TemporaryDirectory(prefix="safecut-mutant-") as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        path = os.path.join(src, "safecut", m.file)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        with open(path, "w", encoding="utf-8") as f:
            f.write(text.replace(m.old, m.new))
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *m.kills],
            cwd=REPO, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
    failed = {
        line[len("FAILED "):].split(" - ")[0].strip()
        for line in out.stdout.splitlines() if line.startswith("FAILED ")
    }
    if out.returncode != 1:  # 0: all passed; 2 and up: the tests did not run
        return f"pytest exited {out.returncode}\n{out.stdout[-2000:]}{out.stderr[-2000:]}"
    survived = [t for t in m.kills if t not in failed]
    return f"not failed: {survived}" if survived else None


def main() -> int:
    start = time.perf_counter()
    bad = 0
    for k, m in enumerate(MUTANTS):
        t0 = time.perf_counter()
        why = misplaced(m) or run(m)
        bad += why is not None
        status = "killed" if why is None else f"NOT KILLED: {why}"
        print(f"mutant {k} ({m.file}): {status} [{time.perf_counter() - t0:.1f} s]", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed in "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
