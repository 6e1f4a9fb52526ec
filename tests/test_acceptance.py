"""Acceptance gate.

One test per acceptance criterion, each printing a single PASS/FAIL line
(visible even under plain `pytest`, via capsys.disabled).  Tolerances are
pinned where the criterion pins them; everything else is exact.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from safecut.bounds import InputBox, dataset_bounds, static_bounds
from safecut.lp import REL_LE
from safecut.milp import encode, load_query
from safecut.monitor import check_containment
from safecut.network import (
    Dataset,
    forward,
    load_network,
    save_network,
)
from safecut.stats import ConfusionEstimate, estimate_confusion, gamma_upper_bound, guarantee
from safecut.verifier import replay_witness, verify

import oracles
import synth
from harness import child_env
from synth import save_dataset

SWEEP_SEED = 20260817
SWEEP_SIZE = 200


def _emit(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _run_sweep():
    """Generate the pinned 200-instance suite and verify each one."""
    rng = np.random.default_rng(SWEEP_SEED)
    out = []
    t0 = time.monotonic()
    for i in range(SWEEP_SIZE):
        net, query = synth.random_suffix_instance(rng)
        want, _ = oracles.oracle_verify(net, query)
        got = verify(net, query)
        out.append((i, net, query, want, got))
    return out, time.monotonic() - t0


@pytest.fixture(scope="session")
def sweep():
    return _run_sweep()


@pytest.fixture(scope="session")
def road_pipeline(tmp_path_factory):
    """Criterion 4 artifacts, produced through the installed CLI."""
    d = tmp_path_factory.mktemp("road")
    t0 = time.monotonic()
    results = {}
    for tag, under in (("well", False), ("under", True)):
        net, X = synth.road_regressor(seed=7, undertrained=under)
        y = (synth.road_signal(X) > 0).astype(np.int64)
        save_network(net, str(d / f"net_{tag}.json"))
        save_dataset(Dataset(inputs=X, labels=y), str(d / f"road_{tag}.csv"))
        results[tag] = _road_stage(d, tag)
    return d, results, time.monotonic() - t0


# exit code `safecut verify` must give per regressor: safe 0, unsafe 1
ROAD_VERIFY_EXIT = {"well": 0, "under": 1}


def _cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "safecut.cli", *[str(a) for a in args]],
        capture_output=True, text=True, cwd=str(cwd), env=child_env(),
    )


def _check_exit(r, want):
    """Fail with the command and its stderr unless it exited with `want`."""
    assert r.returncode == want, (
        f"safecut {' '.join(r.args[3:])} exited {r.returncode}, expected {want}:\n"
        f"{r.stderr}"
    )


def _road_stage(d, tag, suffix=""):
    """bounds -> train-characterizer -> verify for one regressor variant,
    each stage checked for its expected exit code."""
    r1 = _cli(
        ["bounds", f"net_{tag}.json", f"bounds_{tag}{suffix}.json",
         "--data", f"road_{tag}.csv", "--layer", 3, "--diffs"], d,
    )
    _check_exit(r1, 0)
    r2 = _cli(
        ["train-characterizer", f"net_{tag}.json", f"road_{tag}.csv",
         f"head_{tag}{suffix}.json", "--layer", 3,
         "--property-id", "bends-right"], d,
    )
    _check_exit(r2, 0)
    (d / f"query_{tag}{suffix}.json").write_text(
        json.dumps(
            {
                "cut_layer": 3,
                "bounds": f"bounds_{tag}{suffix}.json",
                "characterizer": f"head_{tag}{suffix}.json",
                # "suggests steering far left": first waypoint coord <= -0.5
                "risk": [{"coeffs": [1.0, 0.0], "op": "<=", "rhs": -0.5}],
            }
        )
    )
    r3 = _cli(
        ["verify", f"net_{tag}.json", f"query_{tag}{suffix}.json",
         f"verdict_{tag}{suffix}.json"], d,
    )
    _check_exit(r3, ROAD_VERIFY_EXIT[tag])
    return {"bounds": r1, "train": r2, "verify": r3}


def test_criterion_1_oracle_equivalence(sweep, capsys):
    """verify agrees with exhaustive ReLU-phase enumeration on all 200."""
    results, elapsed = sweep
    mismatches = [
        (i, want, got.status) for i, _, _, want, got in results if got.status != want
    ]
    ok = not mismatches and elapsed < 300.0
    detail = (
        f"oracle agreement {SWEEP_SIZE - len(mismatches)}/{SWEEP_SIZE} "
        f"in {elapsed:.1f}s"
    )
    if mismatches:
        detail += f"; first mismatch: instance {mismatches[0]}"
    _emit(capsys, 1, ok, detail)


def test_criterion_2_witness_validity(sweep, capsys):
    """Every Unsafe verdict carries a witness that replays at 1e-6."""
    results, _ = sweep
    unsafe = [(net, q, got) for _, net, q, _, got in results if got.status == "unsafe"]
    bad = 0
    for net, q, got in unsafe:
        facts = replay_witness(net, q, got.witness, tol=1e-6)
        if not (facts["in_bounds"] and facts["characterizer"] == 1
                and facts["risk_satisfied"]):
            bad += 1
    ok = bad == 0 and len(unsafe) > 0
    _emit(capsys, 2, ok, f"{len(unsafe) - bad}/{len(unsafe)} witnesses replay clean")


def test_criterion_3_abstraction_soundness(capsys):
    """Static box never violated over 20 nets x 10k samples; dataset box
    contains every construction sample at tolerance 0."""
    rng = np.random.default_rng(SWEEP_SEED)
    mc_escapes = 0
    for _ in range(20):
        net, lo, hi = synth.random_full_network(rng)
        cut = max(1, net.depth - 1)
        b = static_bounds(net, InputBox(lo=lo, hi=hi), layer=cut)
        xs = rng.uniform(lo, hi, size=(10_000, len(lo)))
        acts = forward(net, xs, 0, cut)
        mc_escapes += int(((acts < b.lo) | (acts > b.hi)).any(axis=1).sum())

    ds_misses = 0
    for _ in range(5):
        net, lo, hi = synth.random_full_network(rng)
        cut = max(1, net.depth - 1)
        X = rng.uniform(lo, hi, size=(400, len(lo)))
        db = dataset_bounds(net, Dataset(inputs=X), cut)
        acts = forward(net, X, 0, cut)
        ds_misses += sum(not check_containment(db, a) for a in acts)

    ok = mc_escapes == 0 and ds_misses == 0
    _emit(
        capsys, 3, ok,
        f"static: 0 escapes in 200000 samples ({mc_escapes} found); "
        f"dataset: construction replay misses {ds_misses}/2000 at tol 0",
    )


def test_criterion_4_road_scenario(road_pipeline, capsys):
    """Well-trained waypoint net proves Safe (conditional); under-trained
    variant is Unsafe with a replayable witness.  All through the CLI."""
    d, results, elapsed = road_pipeline
    problems = []

    well = results["well"]
    head_acc = json.loads((d / "head_well.json").read_text())["achieved_accuracy"]
    if head_acc != 1.0:
        problems.append(f"well head accuracy {head_acc} != 1.0")
    if well["verify"].returncode != 0:
        problems.append(f"well exit {well['verify'].returncode} != 0")
    else:
        rep = json.loads((d / "verdict_well.json").read_text())
        if rep["status"] != "safe" or rep["conditional"] is not True:
            problems.append(f"well verdict {rep['status']}/{rep['conditional']}")
    if "conditional" not in well["verify"].stderr:
        problems.append("missing assume-guarantee notice on stderr")

    under = results["under"]
    if under["verify"].returncode != 1:
        problems.append(f"under exit {under['verify'].returncode} != 1")
    else:
        rep_u = json.loads((d / "verdict_under.json").read_text())
        if rep_u["status"] != "unsafe":
            problems.append(f"under verdict {rep_u['status']}")
        else:
            net_u = load_network(str(d / "net_under.json"))
            q_u = load_query(str(d / "query_under.json"))
            facts = replay_witness(net_u, q_u, np.array(rep_u["witness"]))
            if not (facts["in_bounds"] and facts["characterizer"] == 1
                    and facts["risk_satisfied"]):
                problems.append("under-trained witness does not replay")

    if elapsed >= 120.0:
        problems.append(f"pipeline took {elapsed:.1f}s >= 120s")
    ok = not problems
    detail = (
        f"safe(conditional) + unsafe(witness) via CLI in {elapsed:.1f}s"
        if ok else "; ".join(problems)
    )
    _emit(capsys, 4, ok, detail)


def test_criterion_5_monitor_consistency(capsys):
    """Monitor containment and the MILP's cut-layer constraints agree on
    10000 random vectors per fixture, tolerance 0."""
    rng = np.random.default_rng(5150)
    fixtures = []
    while len(fixtures) < 4:
        net, query = synth.random_suffix_instance(rng)
        # make sure both diff-ful and diff-free envelopes get covered
        if len(fixtures) < 2 and not query.bounds.has_diffs:
            continue
        fixtures.append((net, query))

    disagreements = 0
    total = 0
    for net, query in fixtures:
        prob = encode(net, query)
        A, rels, b, lo, hi = prob.lp.A, prob.lp.rels, prob.lp.b, prob.lp.lo, prob.lp.hi
        cut = np.array(prob.cut_cols, dtype=np.int64)
        blo, bhi = query.bounds.lo, query.bounds.hi
        span = bhi - blo
        samples = rng.uniform(blo - 0.5 * span - 0.1, bhi + 0.5 * span + 0.1,
                              size=(10_000, len(cut)))
        for v in samples:
            monitor_says = check_containment(query.bounds, v)
            x = np.zeros(A.shape[1])
            x[cut] = v
            milp_says = bool((v >= lo[cut]).all() and (v <= hi[cut]).all())
            for ri in prob.diff_rows:
                lhs = float(np.dot(A[ri], x))
                ok_row = lhs <= b[ri] if rels[ri] == REL_LE else lhs >= b[ri]
                milp_says = milp_says and ok_row
            total += 1
            disagreements += monitor_says != milp_says
    ok = disagreements == 0
    _emit(
        capsys, 5, ok,
        f"monitor vs MILP cut-set: {total - disagreements}/{total} agree at tol 0",
    )


def test_criterion_6_statistical_pipeline(capsys):
    """Cells match an independent recount; CP bound matches the closed form
    at 1e-9; the point guarantee is exactly 1 - n10/n."""
    problems = []

    rng = np.random.default_rng(606)
    from safecut.characterizer import Characterizer
    from safecut.network import Dense, Network

    d = 3
    eye = Dense(weights=np.eye(d), bias=np.zeros(d))
    net = Network(layers=(eye, eye), input_dim=d)
    w = np.zeros((1, d))
    w[0, 0] = 1.0
    head = Characterizer(
        head=Network(layers=(Dense(weights=w, bias=np.array([-0.2])),), input_dim=d),
        property_id="x0-pos",
        achieved_accuracy=1.0,
    )
    X = rng.normal(size=(1000, d))
    y = rng.integers(0, 2, size=1000)
    est = estimate_confusion(net, head, 1, Dataset(inputs=X, labels=y))
    recount = {"n11": 0, "n10": 0, "n01": 0, "n00": 0}
    for xi, yi in zip(X, y):
        pred = 1 if xi[0] - 0.2 >= 0 else 0
        recount[f"n{yi}{pred}"] += 1
    if (est.n11, est.n10, est.n01, est.n00) != (
        recount["n11"], recount["n10"], recount["n01"], recount["n00"]
    ):
        problems.append(f"cells {est} != recount {recount}")

    cp = gamma_upper_bound(0, 100, 0.05)
    closed = 1.0 - 0.05 ** (1.0 / 100.0)
    if abs(cp - closed) > 1e-9:
        problems.append(f"CP zero-failure bound {cp} vs closed form {closed}")

    for n10, n in ((0, 100), (7, 50), (123, 1000)):
        e = ConfusionEstimate(n11=n - n10, n10=n10, n01=0, n00=0)
        g = guarantee(e, delta=0.05)
        if g.point_guarantee != 1.0 - n10 / n:
            problems.append(f"point guarantee off at n10={n10}, n={n}")

    ok = not problems
    _emit(capsys, 6, ok,
          "recount exact; CP within 1e-9 of closed form; point guarantee exact"
          if ok else "; ".join(problems))


def _sweep_report_bytes(results):
    obj = []
    for i, _, _, _, got in results:
        stats = {k: v for k, v in got.stats.items() if k != "wall_time"}
        obj.append(
            {
                "instance": i,
                "status": got.status,
                "witness": None if got.witness is None else got.witness.tolist(),
                "stats": stats,
            }
        )
    return json.dumps(obj, sort_keys=True, indent=2).encode()


def test_criterion_7_determinism(sweep, road_pipeline, capsys):
    """Fixed seeds reproduce criteria 1 and 4 bitwise (reports compared as
    raw bytes, wall-clock fields excluded)."""
    problems = []

    first = _sweep_report_bytes(sweep[0])
    second = _sweep_report_bytes(_run_sweep()[0])
    if first != second:
        problems.append("criterion-1 sweep reports differ between runs")

    d, _, _ = road_pipeline
    for tag in ("well", "under"):
        _road_stage(d, tag, suffix="_rerun")
        for stem in ("bounds", "head", "verdict"):
            a = (d / f"{stem}_{tag}.json").read_bytes()
            b = (d / f"{stem}_{tag}_rerun.json").read_bytes()
            if a != b:
                problems.append(f"{stem}_{tag} differs between pipeline runs")

    ok = not problems
    _emit(capsys, 7, ok,
          "sweep + road pipeline reports byte-identical across reruns"
          if ok else "; ".join(problems))
