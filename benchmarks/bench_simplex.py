"""Compare the simplex kernels (pure NumPy vs compiled) on random LPs.

The kernels pivot identically, so every outcome is asserted bitwise-equal
before any timing is reported: status, pivots, proof row, point and every
state array; the table is purely a speed comparison.  The "feas" classes
have a zero objective, so they run the dual phase 1 alone, as each
branch-and-bound node does; the others add the primal phase 2.  A "-warm"
class branches one variable of each LP away from its solution and re-solves
that child from the parent's final state, as branch-and-bound does; the
parents are solved outside the timed region.  Each class is timed
``REPEAT`` times per kernel, the kernels alternating, and the table gives
the median rate with its quartiles.

    python3 benchmarks/bench_simplex.py [--count N] [--seed S]
"""

import argparse
import time

import numpy as np

from safecut import kernels
from safecut.lp import LinearProgram, solve_dense

# (label, n_vars, n_rows, zero objective, warm) — "node" mirrors a typical
# branch-and-bound relaxation from the verifier; the larger classes stress
# the tableau loop
CLASSES = [
    ("node", 12, 18, False, False),
    ("medium", 40, 60, False, False),
    ("large", 90, 140, False, False),
    ("node-warm", 12, 18, False, True),
    ("feas", 40, 60, True, False),
    ("feas-warm", 40, 60, True, True),
]

REPEAT = 5  # timed runs per class and kernel


def random_instances(rng, n, m, count, feasibility):
    out = []
    for _ in range(count):
        A = rng.normal(0.0, 1.0, (m, n))
        x0 = rng.uniform(-1.0, 1.0, n)  # a feasible anchor so most LPs solve
        b = A @ x0 + rng.uniform(0.0, 2.0, m)
        rels = rng.choice([-1, 1], m)
        b = np.where(rels == 1, b - rng.uniform(0.0, 4.0, m), b)
        c = rng.normal(0.0, 1.0, n)
        if feasibility:
            c = np.zeros(n)
        lo = np.full(n, -5.0)
        hi = np.full(n, 5.0)
        out.append(LinearProgram(c, A, rels, b, lo, hi))
    return out


def warm_children(kernel, parents, cols):
    """Children (lp, lo, hi) that branch column j of each solved parent at 0,
    away from the parent's solution, with the parent states to start them from."""
    children, starts = [], []
    for lp, j in zip(parents, cols):
        out = solve_dense(lp, kernel=kernel)
        if out.status != "optimal":
            continue
        lo, hi = lp.lo.copy(), lp.hi.copy()
        if out.point[j] > 0.0:
            hi[j] = 0.0
        else:
            lo[j] = 0.0
        children.append((lp, lo, hi))
        starts.append(out.state)
    return children, starts


def run(kernel, instances, starts):
    t0 = time.perf_counter()
    outcomes = [
        solve_dense(lp, lo, hi, kernel=kernel, start=start)
        for (lp, lo, hi), start in zip(instances, starts)
    ]
    return time.perf_counter() - t0, outcomes


def assert_identical(base, other):
    assert len(base) == len(other), "kernel outcomes diverge"
    for a, o in zip(base, other):
        assert (a.status, a.pivots, a.proof_row) == (o.status, o.pivots, o.proof_row), (
            "kernel outcomes diverge"
        )
        if a.status == "optimal":
            assert a.objective_value == o.objective_value
            assert a.point.tobytes() == o.point.tobytes()
        assert (a.state is None) == (o.state is None)
        for x, y in zip(a.state or (), o.state or ()):
            assert x.tobytes() == y.tobytes(), "kernel states diverge"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=150, help="LPs per size class")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    av = kernels.available_kernels()
    print(f"kernels available: {', '.join(av)}  (active: {kernels.KERNEL_NAME})")
    if len(av) == 1:
        print("compiled kernel not built; timings cover the fallback only")
    print(f"LPs per second: median [quartiles] of {REPEAT} runs of {args.count} LPs")

    rng = np.random.default_rng(args.seed)
    header = f"{'class':<10} {'size':<8} {'piv/LP':>7} " + "".join(f"{k:>24} " for k in av)
    if len(av) > 1:
        header += f"{'speedup':>8}"
    print(header)
    print("-" * len(header))

    for label, n, m, feasibility, warm in CLASSES:
        instances = random_instances(rng, n, m, args.count, feasibility)
        cols = rng.integers(0, n, args.count)
        work, outcomes, rates = {}, {}, {}
        for name, kern in av.items():
            if warm:
                work[name] = warm_children(kern, instances, cols)
            else:
                work[name] = [(lp, None, None) for lp in instances], [None] * len(instances)
            rates[name] = []
        for rep in range(REPEAT):
            order = list(av) if rep % 2 == 0 else list(av)[::-1]
            for name in order:
                dt, outs = run(av[name], *work[name])
                rates[name].append(len(outs) / dt)
                outcomes.setdefault(name, outs)

        names = list(av)
        base = outcomes[names[0]]
        for other in names[1:]:
            assert_identical(base, outcomes[other])

        q = {k: np.percentile(rates[k], [25, 50, 75]) for k in av}
        pivots = sum(o.pivots for o in base) / len(base)
        row = f"{label:<10} {f'{n}x{m}':<8} {pivots:>7.1f} "
        row += "".join(f"{q[k][1]:>8.0f} [{q[k][0]:>6.0f}-{q[k][2]:>6.0f}] " for k in av)
        if len(av) > 1:
            row += f"{q['ext'][1] / q['py'][1]:>7.2f}x"
        print(row)

    if len(av) > 1:
        print("\nall kernel outcomes bitwise-identical")


if __name__ == "__main__":
    main()
