import json
import subprocess
import sys

import numpy as np
import pytest
from pytest import approx

from safecut import cli, stats
from safecut.characterizer import (
    Characterizer, TrainConfig, save_characterizer, train_characterizer,
)
from safecut.errors import EmptyDatasetError, InvalidDeltaError, UnlabeledDataError
from safecut.milp import RiskClause, RiskCondition
from safecut.network import Dataset, Dense, Network, save_dataset, save_network
from safecut.stats import (
    ConfusionEstimate,
    check_premise,
    estimate_confusion,
    gamma_upper_bound,
    guarantee,
    stats_report_obj,
)

from harness import child_env


def _identity_net(d=1):
    eye = Dense(weights=np.eye(d), bias=np.zeros(d))
    return Network(layers=(eye, eye), input_dim=d)


def _sign_head(d=1):
    # decide 1 iff first coordinate >= 0
    w = np.zeros((1, d))
    w[0, 0] = 1.0
    return Characterizer(
        head=Network(layers=(Dense(weights=w, bias=np.zeros(1)),), input_dim=d),
        property_id="sign",
        achieved_accuracy=1.0,
    )


def test_cells_from_hand_built_dataset():
    net, head = _identity_net(), _sign_head()
    # truth: label; decision: sign of x.  One sample per cell.
    data = Dataset(
        inputs=np.array([[1.0], [-1.0], [2.0], [-2.0]]),
        labels=np.array([1, 1, 0, 0]),
    )
    est = estimate_confusion(net, head, 1, data)
    assert (est.n11, est.n10, est.n01, est.n00) == (1, 1, 1, 1)
    assert est.alpha == est.beta == est.gamma == approx(0.25)


def test_cells_partition_the_sample():
    rng = np.random.default_rng(12)
    net, head = _identity_net(2), _sign_head(2)
    X = rng.normal(size=(1000, 2))
    y = (X[:, 1] > 0).astype(np.int64)  # truth disagrees with the head's axis
    est = estimate_confusion(net, head, 1, Dataset(inputs=X, labels=y))
    assert est.n == 1000
    assert est.n11 + est.n10 + est.n01 + est.n00 == 1000


def test_recount_matches_independent_loop():
    rng = np.random.default_rng(99)
    net, head = _identity_net(2), _sign_head(2)
    X = rng.normal(size=(500, 2))
    y = rng.integers(0, 2, size=500)
    est = estimate_confusion(net, head, 1, Dataset(inputs=X, labels=y))
    # recount with a plain python loop, no shared code path
    cells = {"n11": 0, "n10": 0, "n01": 0, "n00": 0}
    for xi, yi in zip(X, y):
        pred = 1 if xi[0] >= 0.0 else 0
        cells[f"n{yi}{pred}"] += 1
    assert (est.n11, est.n10, est.n01, est.n00) == (
        cells["n11"], cells["n10"], cells["n01"], cells["n00"]
    )


def test_perfect_head_zeroes_gamma_and_beta():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(200, 2))
    y = (X[:, 0] >= 0).astype(np.int64)
    net, head = _identity_net(2), _sign_head(2)
    est = estimate_confusion(net, head, 1, Dataset(inputs=X, labels=y))
    assert est.gamma == 0.0 and est.beta == 0.0
    assert est.n11 + est.n00 == 200


def test_trained_head_cells_consistent_with_training_accuracy():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(300, 2))
    y = (X @ np.array([1.0, -1.5]) > 0).astype(np.int64)
    data = Dataset(inputs=X, labels=y)
    net = _identity_net(2)
    h = train_characterizer(net, data, 1, TrainConfig(seed=0))
    est = estimate_confusion(net, h, 1, data)
    assert (est.n11 + est.n00) / est.n == approx(h.achieved_accuracy)


def test_gamma_upper_bound_zero_failures_closed_form():
    # zero observed failures: CP upper bound is 1 - delta^(1/n)
    got = gamma_upper_bound(0, 100, 0.05)
    assert got == approx(1.0 - 0.05 ** (1.0 / 100.0), abs=1e-9)


def test_gamma_upper_bound_all_failures_is_one():
    assert gamma_upper_bound(100, 100, 0.05) == 1.0
    assert gamma_upper_bound(150, 100, 0.05) == 1.0


def test_gamma_upper_bound_exceeds_point_estimate():
    ub = gamma_upper_bound(10, 100, 0.05)
    assert ub > 0.10
    assert ub < 0.20  # sanity: the exact bound for 10/100 sits near 0.162


def test_gamma_upper_bound_is_the_beta_quantile():
    from scipy.stats import beta

    for delta in (0.01, 0.05, 0.1):
        for n in range(1, 60):
            for n10 in range(n):
                want = float(beta.ppf(1.0 - delta, n10 + 1, n - n10))
                assert gamma_upper_bound(n10, n, delta) == want


def test_importing_the_cli_does_not_import_scipy():
    # scipy costs every safecut process about a second; only `stats` needs it
    code = (
        "import sys, safecut.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    r = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_gamma_upper_bound_monotone_in_delta():
    # more confidence (smaller delta) -> looser (larger) upper bound
    bounds = [gamma_upper_bound(5, 200, d) for d in (0.2, 0.1, 0.05, 0.01)]
    assert all(a < b for a, b in zip(bounds, bounds[1:]))


def test_invalid_delta_rejected():
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(InvalidDeltaError):
            gamma_upper_bound(0, 10, bad)


def test_empty_estimate_rejected():
    with pytest.raises(EmptyDatasetError):
        ConfusionEstimate(n11=0, n10=0, n01=0, n00=0)
    with pytest.raises(ValueError):
        ConfusionEstimate(n11=-1, n10=1, n01=1, n00=1)


def test_unlabeled_data_rejected():
    net, head = _identity_net(), _sign_head()
    with pytest.raises(UnlabeledDataError):
        estimate_confusion(net, head, 1, Dataset(inputs=np.zeros((3, 1))))


def test_point_guarantee_is_exactly_one_minus_gamma():
    est = ConfusionEstimate(n11=70, n10=10, n01=5, n00=15)
    g = guarantee(est, delta=0.05)
    assert g.point_guarantee == 1.0 - 10 / 100  # exact float arithmetic
    assert g.conservative_guarantee == approx(1.0 - gamma_upper_bound(10, 100, 0.05))
    assert g.confidence == 0.95
    assert g.premise_checked is False


def test_conservative_guarantee_never_beats_point():
    for n10, n in ((0, 50), (3, 120), (17, 400)):
        est = ConfusionEstimate(n11=n - n10, n10=n10, n01=0, n00=0)
        g = guarantee(est, delta=0.05)
        assert g.conservative_guarantee <= g.point_guarantee


def test_check_premise_true_when_omitted_samples_avoid_risk():
    net, head = _identity_net(), _sign_head()
    # label-1 sample at x=-1 is omitted (head says 0); risk is y >= 5 (not hit)
    data = Dataset(inputs=np.array([[-1.0], [1.0]]), labels=np.array([1, 1]))
    risk = RiskCondition(clauses=(RiskClause(coeffs=np.array([1.0]), op=">=", rhs=5.0),))
    assert check_premise(net, head, 1, data, risk) is True


def test_check_premise_false_when_an_omitted_sample_hits_risk():
    net, head = _identity_net(), _sign_head()
    data = Dataset(inputs=np.array([[-6.0], [1.0]]), labels=np.array([1, 1]))
    risk = RiskCondition(clauses=(RiskClause(coeffs=np.array([1.0]), op="<=", rhs=-5.0),))
    assert check_premise(net, head, 1, data, risk) is False


def test_check_premise_vacuous_without_omissions():
    net, head = _identity_net(), _sign_head()
    data = Dataset(inputs=np.array([[1.0], [2.0]]), labels=np.array([1, 1]))
    risk = RiskCondition(clauses=(RiskClause(coeffs=np.array([1.0]), op="<=", rhs=-9.0),))
    assert check_premise(net, head, 1, data, risk) is True


def test_report_obj_carries_all_fields():
    est = ConfusionEstimate(n11=70, n10=10, n01=5, n00=15)
    obj = stats_report_obj(est, guarantee(est, delta=0.1, premise=True))
    assert obj["counts"] == {"n11": 70, "n10": 10, "n01": 5, "n00": 15}
    assert obj["gamma"] == approx(0.1)
    assert obj["confidence"] == approx(0.9)
    assert obj["premise_checked"] is True


def test_stats_with_risk_passes_over_the_dataset_once(tmp_path, monkeypatch, capsys):
    # the confusion cells and the premise share one pass to the cut and one
    # through the head; only the omitted samples run on to the output
    net, head = _identity_net(), _sign_head()
    data = Dataset(inputs=np.array([[-2.0], [-1.0], [1.0], [2.0]]), labels=np.array([1, 1, 0, 1]))
    save_network(net, str(tmp_path / "net.json"))
    save_characterizer(head, str(tmp_path / "head.json"))
    save_dataset(data, str(tmp_path / "data.csv"))
    (tmp_path / "risk.json").write_text(
        json.dumps([{"coeffs": [1.0], "op": "<=", "rhs": -1.5}])
    )
    rows = []
    real = stats.forward_batch

    def counted(net_, xs, *args):
        rows.append(len(xs))
        return real(net_, xs, *args)

    monkeypatch.setattr(stats, "forward_batch", counted)
    argv = [str(tmp_path / name) for name in ("net.json", "head.json", "data.csv")]
    assert cli.main(["stats", *argv, "--layer", "1", "--risk", str(tmp_path / "risk.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["counts"] == {"n11": 1, "n10": 2, "n01": 1, "n00": 0}
    assert report["premise_checked"] is False  # the omitted x = -2 meets the risk
    assert rows.count(len(data)) == 2 and rows.count(2) == 1, rows
