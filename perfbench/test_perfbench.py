"""Self-tests of the benchmark: input determinism, the checkers, the tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os

import numpy as np
import pytest

import inputs
import reference
import tracing
from inproc import percentile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tree_bytes(directory):
    out = {}
    for base, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = fh.read()
    return out


def _deep_optimum(inst):
    return reference.reference_max(inst, [1.0, 0.0])


@pytest.mark.parametrize(
    "make",
    [
        lambda d, seed: inputs.make_sweep(d, seed, 40),
        lambda d, seed: inputs.make_deep(d, seed, _deep_optimum),
        inputs.make_cli,
    ],
    ids=["sweep", "deep", "cli"],
)
def test_same_seed_gives_byte_identical_inputs(tmp_path, make):
    make(str(tmp_path / "a"), 7)
    make(str(tmp_path / "b"), 7)
    make(str(tmp_path / "c"), 8)
    a, b, c = (_tree_bytes(str(tmp_path / k)) for k in "abc")
    assert a and a == b
    assert a != c


def _toy(risk):
    """Cut box [0,1]^2, identity suffix, head x0 >= 0.5."""
    return {
        "net": [inputs.dense(np.eye(2), np.zeros(2))],
        "cut": 0,
        "head": [inputs.dense([[1.0, 0.0]], [-0.5])],
        "env": {"lo": np.zeros(2), "hi": np.ones(2), "diff_lo": None, "diff_hi": None},
        "risk": risk,
    }


def test_reference_decides_toy_queries():
    assert reference.reference_verdict(_toy([(np.array([0.0, 1.0]), ">=", 2.0)]))[0] == "safe"
    assert reference.reference_verdict(_toy([(np.array([0.0, 1.0]), ">=", 0.5)]))[0] == "unsafe"
    assert reference.reference_max(_toy(None), [0.0, 1.0]) == pytest.approx(1.0)


def test_checker_flags_wrong_status():
    inst = _toy([(np.array([0.0, 1.0]), ">=", 2.0)])
    assert reference.verdict_failures(inst, "safe", "safe", None) == []
    assert [k for k, _ in reference.verdict_failures(inst, "safe", "unsafe", [0.6, 0.5])] == ["wrong"]
    assert [k for k, _ in reference.verdict_failures(inst, "unsafe", "safe", None)] == ["wrong"]
    assert [k for k, _ in reference.verdict_failures(inst, "safe", "unknown", None)] == ["unknown"]


def test_checker_flags_bad_witness():
    inst = _toy([(np.array([0.0, 1.0]), ">=", 0.5)])
    assert reference.verdict_failures(inst, "unsafe", "unsafe", [0.75, 0.75]) == []
    for bad in ([0.25, 0.75], [0.75, 0.25], [1.5, 0.75], [0.75], [np.nan, 0.75]):
        failures = reference.verdict_failures(inst, "unsafe", "unsafe", bad)
        assert failures and all(kind == "wrong" for kind, _ in failures), bad


def test_checker_flags_wrong_monitor_rows():
    expected = [True, False, True]
    good = [{"sample_id": str(i), "contained": c, "violations": []} for i, c in enumerate(expected)]
    assert reference.monitor_failures(good, expected) == [[], [], []]
    alarm = [dict(r) for r in good]
    alarm[0]["contained"] = False
    assert [[k for k, _ in f] for f in reference.monitor_failures(alarm, expected)] == [["false_alarm"], [], []]
    missed = [dict(r) for r in good]
    missed[1]["contained"] = True
    assert [[k for k, _ in f] for f in reference.monitor_failures(missed, expected)] == [[], ["wrong"], []]
    assert reference.monitor_failures(good[:2], expected)[2][0][0] == "wrong"


def test_layer_self_times_sum_to_root():
    tracer = tracing.Tracer()
    with tracer.span("bench"):
        for _ in range(3):
            with tracer.span("lp"):
                with tracer.span("kernels"):
                    sum(range(1000))
            with tracer.span("milp"):
                pass
    assert tracer.calls["lp"] == 3 and tracer.calls["kernels"] == 3
    assert sum(tracer.self_time.values()) == pytest.approx(tracer.total["bench"], rel=1e-9)
    assert tracer.self_time["lp"] == pytest.approx(tracer.total["lp"] - tracer.total["kernels"])


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile([3.0, 1.0], 90) == 3.0
    assert percentile([5.0], 50) == 5.0


def test_benchmark_json_matches_the_metrics_emitted():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["deep", "cli"]


def test_repeated_operations_count_once():
    import run

    r = run.Run("cli", 1, 1.0, 0)
    for _ in range(3):  # three passes over the same two operations
        r.record(("row", 0), [])
        r.record(("row", 1), [("false_alarm", "row 1 flagged")])
    assert (r.attempted, r.failed, r.wrong) == (2, 1, False)
    assert len(r.failures) == 1
    r.record(("row", 0), [("wrong", "row 0 missed")])
    assert (r.attempted, r.failed, r.wrong) == (2, 2, True)
