"""The in-process workloads: `sweep` and `deep`.

Queries are written to files, loaded through safecut's public loaders and
decided by `safecut.verify` one at a time, as a library user would.  Each
verify() call is timed on its own; its verdict is checked afterwards.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict

import numpy as np

import inputs
import reference
import tracing

SWEEP_QUERIES = 600


def percentile(values, q):
    """Nearest-rank percentile of a nonempty sequence."""
    ordered = sorted(values)
    rank = -(-q * len(ordered) // 100)  # ceil
    return ordered[max(0, min(len(ordered), int(rank)) - 1)]


def prepare(run):
    """Write the workload's queries; returns (query dir, instances, expected statuses)."""
    qroot = os.path.join(run.work, "queries")
    highs = []
    if run.workload == "sweep":
        insts = inputs.make_sweep(qroot, run.seed, SWEEP_QUERIES)
        expected = []
        for inst in insts:
            status, secs = reference.reference_verdict(inst)
            expected.append(status)
            highs.append(secs)
    else:
        optima = []

        def optimum(inst):
            t0 = time.perf_counter()
            opt = reference.reference_max(inst, [1.0, 0.0])
            highs.append(time.perf_counter() - t0)
            optima.append(opt)
            return opt

        insts = inputs.make_deep(qroot, run.seed, optimum)
        # the threshold sits strictly above the HiGHS maximum, so the
        # reference model with the risk row is infeasible: safe
        expected = ["safe" if opt < inst["risk"][0][2] else "unsafe" for opt, inst in zip(optima, insts)]
    run.report["reference.highs_s"] = float(np.median(highs))
    run.report["reference.highs_total_s"] = float(np.sum(highs))
    run.report["reference.safe"] = expected.count("safe")
    run.report["reference.unsafe"] = expected.count("unsafe")
    return qroot, insts, expected


def load(qroot):
    from safecut import load_network
    from safecut.milp import load_query

    return [
        (load_network(os.path.join(qroot, d, "net.json")), load_query(os.path.join(qroot, d, "query.json")))
        for d in sorted(os.listdir(qroot))
    ]


def verify_pass(problems, kernel=None, tracer=None):
    """Verify every query once; returns (verdicts, per-query seconds)."""
    from safecut import verify

    verdicts, times = [], []
    for net, query in problems:
        t0 = time.perf_counter()
        if tracer is None:
            v = verify(net, query, kernel=kernel)
        else:
            with tracer.span("verifier"):
                v = verify(net, query, kernel=kernel)
        times.append(time.perf_counter() - t0)
        verdicts.append(v)
    return verdicts, times


def check(run, insts, expected, verdicts):
    for i, (inst, want, v) in enumerate(zip(insts, expected, verdicts)):
        run.record(("verify", i), reference.verdict_failures(inst, want, v.status, v.witness))


def measure(run):
    qroot, insts, expected = prepare(run)
    problems = load(qroot)
    if run.trace:
        return measure_traced(run, insts, expected, problems)
    metrics = measure_plain(run, insts, expected, problems)
    metrics["setup_s"] = run.setup_s(qroot)
    return metrics


def measure_plain(run, insts, expected, problems):
    """Whole passes over the queries until --seconds have gone by."""
    samples = defaultdict(list)
    nodes = 0
    t_end = time.perf_counter() + run.seconds
    passes, last = 0, 0.0
    while passes == 0 or t_end - time.perf_counter() > last:  # whole passes only
        t0 = time.perf_counter()
        verdicts, times = verify_pass(problems)
        last = time.perf_counter() - t0
        for i, dt in enumerate(times):
            samples[i].append(dt)
        check(run, insts, expected, verdicts)
        nodes = sum(v.stats["nodes_explored"] for v in verdicts)
        passes += 1
    flat = [t for ts in samples.values() for t in ts]
    pass_s = sum(statistics.median(ts) for ts in samples.values())
    run.report.update({"passes": passes, "verdict_samples": len(flat), "verifier.nodes_per_pass": nodes})
    if run.workload == "deep":
        run.report["proof_s"] = pass_s
    return {
        "verdict_ms.p50": statistics.median(flat) * 1e3,
        "verdict_ms.p90": percentile(flat, 90) * 1e3,
        "pass_s": pass_s,
        "throughput_per_s": len(flat) / sum(flat),
    }


def measure_traced(run, insts, expected, problems):
    """One untraced pass, then the same pass with spans on every layer."""
    from safecut import kernels

    verdicts, times = verify_pass(problems)
    check(run, insts, expected, verdicts)
    tracer = tracing.Tracer()
    with tracing.traced_safecut(tracer):
        with tracer.span("bench"):
            verdicts, _ = verify_pass(problems, kernel=tracer.kernel(kernels.run_phase), tracer=tracer)
    check(run, insts, expected, verdicts)
    return tracing.layer_metrics(run, tracer, verdicts, sum(times))
