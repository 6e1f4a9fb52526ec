"""Spans around calls into safecut's modules, recorded from outside.

Nothing inside safecut changes: `Tracer.wrap` swaps a module attribute (such
as ``safecut.verifier.solve_dense``) for a wrapper that times each call, and
the simplex kernel is counted by handing `Tracer.kernel` to
``verify(..., kernel=...)``.  Spans nest on one stack, so a layer's self
time is its span time minus the time of the spans opened inside it, and the
self times of all layers add up to the root span.  `layer_metrics` turns a
traced run into the per-layer metrics.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)  # layer -> time inside its spans
        self.self_time = defaultdict(float)  # layer -> total minus child spans
        self.calls = defaultdict(int)
        self.pivots = 0
        self.problems = []  # MilpProblem of every encode call
        self.replays = 0
        self.accepted = 0
        self._children = [0.0]  # child-span time per open span
        self._restore = []

    @contextmanager
    def span(self, layer):
        self._children.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            children = self._children.pop()
            self._children[-1] += dur
            self.total[layer] += dur
            self.self_time[layer] += dur - children
            self.calls[layer] += 1

    def wrap(self, module, attr, layer, on_result=None):
        """Time every call of module.attr as `layer` until `restore()`."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(layer):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def restore(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def kernel(self, run_phase):
        """Counting wrapper for a simplex kernel's run_phase."""

        def counted(*args):
            with self.span("kernels"):
                status, iters = run_phase(*args)
            self.pivots += int(iters)
            return status, iters

        return counted

    def on_replay(self, rep):
        self.replays += 1
        self.accepted += bool(rep["in_bounds"] and rep["characterizer"] == 1 and rep["risk_satisfied"])


@contextmanager
def traced_safecut(tracer):
    """Spans on the verifier's calls into milp, lp, network and its replay."""
    import safecut.characterizer
    import safecut.monitor
    import safecut.verifier

    tracer.wrap(safecut.verifier, "encode", "milp", tracer.problems.append)
    tracer.wrap(safecut.verifier, "solve_dense", "lp")
    tracer.wrap(safecut.verifier, "replay_witness", "verifier.replay", tracer.on_replay)
    tracer.wrap(safecut.verifier, "forward", "network")
    tracer.wrap(safecut.characterizer, "forward", "network")
    tracer.wrap(safecut.monitor, "forward", "network")
    tracer.wrap(safecut.monitor, "check", "monitor")
    try:
        yield tracer
    finally:
        tracer.restore()


def _relu_layer_labels(prob):
    """'suffix1', 'suffix2', 'head1', ... for every ReluInfo of an encoded problem.

    The encoder names a ReLU's output column "<s|h><layer>_<neuron>"; the
    n-th distinct ReLU layer of the suffix (s) or the head (h) gets label n.
    """
    tags = [prob.lp.names[info.post_col].split("_")[0] for info in prob.relus]
    labels = {}
    for prefix, word in (("s", "suffix"), ("h", "head")):
        layers = sorted({t for t in tags if t[0] == prefix}, key=lambda t: int(t[1:]))
        labels.update({t: f"{word}{k}" for k, t in enumerate(layers, start=1)})
    return [labels[t] for t in tags]


RELU_LAYERS = ("suffix1", "suffix2", "head1")


def problem_metrics(problems):
    """Mean MILP size per encoded query, and unstable ReLUs / widths per layer."""
    out = {
        "milp.rows": float(np.mean([p.lp.num_rows for p in problems])),
        "milp.cols": float(np.mean([p.lp.num_vars for p in problems])),
        "milp.unstable_relus": float(np.mean([len(p.binaries) for p in problems])),
    }
    split = defaultdict(list)
    width = defaultdict(list)
    for p in problems:
        per_layer = defaultdict(int)
        for info, layer in zip(p.relus, _relu_layer_labels(p)):
            per_layer[layer] += info.kind == "split"
            width[layer].append(info.xhi - info.xlo)
        for layer in RELU_LAYERS:
            split[layer].append(per_layer[layer])
    for layer in RELU_LAYERS:
        out[f"milp.unstable_relus.{layer}"] = float(np.mean(split[layer]))
        out[f"intervals.mean_width.{layer}"] = float(np.mean(width[layer])) if width[layer] else 0.0
    return out


def layer_metrics(run, tracer, verdicts, untraced_s):
    """Per-layer metrics of a traced run, from spans, counters and verdict stats."""
    wall = tracer.total["bench"]
    self_sum = sum(tracer.self_time.values())
    if abs(self_sum - wall) > 1e-9 + 1e-9 * wall:
        run.failures.append(("wrong", f"layer self times sum to {self_sum}, traced wall is {wall}"))
    nodes = sum(v.stats["nodes_explored"] for v in verdicts)
    lp_solves = sum(v.stats["lp_solves"] for v in verdicts)
    verify_s = tracer.total["verifier"]
    m = {
        "kernels.run_phase_s": tracer.self_time["kernels"],
        "kernels.calls": tracer.calls["kernels"],
        "kernels.pivots": tracer.pivots,
        "kernels.pivots_per_solve": tracer.pivots / tracer.calls["lp"] if tracer.calls["lp"] else 0.0,
        "lp.solve_s": tracer.total["lp"],
        "lp.solves": tracer.calls["lp"],
        "lp.self_s": tracer.self_time["lp"],
        "milp.encode_s": tracer.total["milp"],
        "verifier.nodes": nodes,
        "verifier.nodes_per_s": nodes / verify_s if verify_s else 0.0,
        "verifier.lp_solves": lp_solves,
        "verifier.polish_solves": lp_solves - nodes,
        "verifier.replays": tracer.replays,
        "verifier.replay_s": tracer.total["verifier.replay"],
        "verifier.witness_yield": tracer.accepted / tracer.replays if tracer.replays else 0.0,
        "verifier.self_s": tracer.self_time["verifier"] + tracer.self_time["verifier.replay"],
        "network.forward_s": tracer.self_time["network"],
        "network.forward_calls": tracer.calls["network"],
        "monitor.check_s": tracer.self_time["monitor"],
        "monitor.rows": tracer.calls["monitor"],
        "bench.self_s": tracer.self_time["bench"],
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_s,
        "trace.overhead": wall / untraced_s - 1.0,
        "monitor.false_alarms": 0,  # the cli workload counts them against its rows
        "cli.import_s": run.import_s(),
    }
    m.update(problem_metrics(tracer.problems))
    return m
