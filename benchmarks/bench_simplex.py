"""Compare the simplex kernels (pure NumPy vs compiled) on random LPs.

The kernels pivot identically, so every outcome is asserted bitwise-equal
before any timing is reported; the table is purely a speed comparison.
The "node-warm" class branches one variable of each "node" LP away from
its optimum and re-solves that child from the parent's final state, as
branch-and-bound does; the parents are solved outside the timed region.

    python3 benchmarks/bench_simplex.py [--count N] [--seed S]
"""

import argparse
import time

import numpy as np

from safecut import kernels
from safecut.lp import solve_dense

# (label, n_vars, n_rows) — "node" mirrors a typical branch-and-bound
# relaxation from the verifier; the larger classes stress the tableau loop
SIZES = [("node", 12, 18), ("medium", 40, 60), ("large", 90, 140)]


def random_instances(rng, n, m, count):
    out = []
    for _ in range(count):
        A = rng.normal(0.0, 1.0, (m, n))
        x0 = rng.uniform(-1.0, 1.0, n)  # a feasible anchor so most LPs solve
        b = A @ x0 + rng.uniform(0.0, 2.0, m)
        rels = rng.choice([-1, 1], m)
        b = np.where(rels == 1, b - rng.uniform(0.0, 4.0, m), b)
        c = rng.normal(0.0, 1.0, n)
        lo = np.full(n, -5.0)
        hi = np.full(n, 5.0)
        out.append((c, A, rels, b, lo, hi))
    return out


def warm_children(kernel, parents, cols):
    """Children that branch column j of each optimal parent at 0, away from
    the parent's optimum, with the parent states to start them from."""
    children, starts = [], []
    for (c, A, rels, b, lo, hi), j in zip(parents, cols):
        out = solve_dense(c, A, rels, b, lo, hi, kernel=kernel)
        if out.status != "optimal":
            continue
        lo, hi = lo.copy(), hi.copy()
        if out.point[j] > 0.0:
            hi[j] = 0.0
        else:
            lo[j] = 0.0
        children.append((c, A, rels, b, lo, hi))
        starts.append(out.state)
    return children, starts


def run(kernel, instances, starts):
    t0 = time.perf_counter()
    outcomes = [
        solve_dense(*inst, kernel=kernel, start=start)
        for inst, start in zip(instances, starts)
    ]
    return time.perf_counter() - t0, outcomes


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=150, help="LPs per size class")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    av = kernels.available_kernels()
    print(f"kernels available: {', '.join(av)}  (active: {kernels.KERNEL_NAME})")
    if len(av) == 1:
        print("compiled kernel not built; timings cover the fallback only")

    rng = np.random.default_rng(args.seed)
    header = f"{'class':<10} {'size':<8} {'piv/LP':>7} " + "".join(f"{k:>12} " for k in av)
    if len(av) > 1:
        header += f"{'speedup':>9}"
    print(header)
    print("-" * len(header))

    for label, n, m in SIZES + [("node-warm", 12, 18)]:
        instances = random_instances(rng, n, m, args.count)
        if label == "node-warm":
            cols = rng.integers(0, n, args.count)
        times, all_outcomes = {}, {}
        for name, kern in av.items():
            if label == "node-warm":
                insts, starts = warm_children(kern, instances, cols)
            else:
                insts, starts = instances, [None] * len(instances)
            times[name], all_outcomes[name] = run(kern, insts, starts)

        names = list(av)
        base = all_outcomes[names[0]]
        for other in names[1:]:
            assert len(base) == len(all_outcomes[other]), "kernel outcomes diverge"
            for a, o in zip(base, all_outcomes[other]):
                assert a.status == o.status, "kernel outcomes diverge"
                assert a.pivots == o.pivots, "kernel pivot counts diverge"
                if a.status == "optimal":
                    assert a.objective_value == o.objective_value
                    assert np.array_equal(a.point, o.point)

        pivots = sum(o.pivots for o in base) / len(base)
        row = f"{label:<10} {f'{n}x{m}':<8} {pivots:>7.1f} "
        row += "".join(
            f"{len(base) / times[k]:>9.0f} /s " for k in av
        )
        if len(av) > 1:
            row += f"{times['py'] / times['ext']:>8.2f}x"
        print(row)

    print("\nall kernel outcomes bitwise-identical")


if __name__ == "__main__":
    main()
