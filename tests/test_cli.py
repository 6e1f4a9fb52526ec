"""End-to-end CLI checks, through subprocesses (real exit codes); the
monitor's chunk parser is also checked in process, against the row path."""

import argparse
import contextlib
import io
import json
import select
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from safecut import cli
from safecut.bounds import ActivationBounds, load_bounds, save_bounds
from safecut.monitor import monitor_stream, report_to_obj
from safecut.network import (
    Dataset, Dense, Network, Relu, load_network, save_dataset, save_network,
)
from safecut.verifier import replay_witness
from safecut.milp import encode, load_query

import synth
from harness import child_env


def run_cli(args, cwd, stdin_text=None):
    return subprocess.run(
        [sys.executable, "-m", "safecut.cli", *[str(a) for a in args]],
        capture_output=True,
        text=True,
        input=stdin_text,
        cwd=str(cwd),
        env=child_env(),
    )


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    """One small trained pipeline shared by all CLI tests.

    y = relu(x0) + relu(x1); the property is "x0 clearly above 0.3" with a
    margin band removed, so the default logistic head separates it exactly.
    """
    d = tmp_path_factory.mktemp("cli")
    net = Network(
        layers=(
            Dense(weights=np.eye(2), bias=np.zeros(2)),
            Relu(dimension=2),
            Dense(weights=np.array([[1.0, 1.0]]), bias=np.zeros(1)),
        ),
        input_dim=2,
    )
    save_network(net, str(d / "net.json"))

    rng = np.random.default_rng(0)
    rows = []
    while len(rows) < 80:
        x = rng.uniform(-1.0, 1.0, 2)
        if abs(x[0] - 0.3) > 0.1:
            rows.append(x)
    X = np.array(rows)
    y = (X[:, 0] > 0.3).astype(np.int64)
    save_dataset(Dataset(inputs=X, labels=y), str(d / "data.csv"))

    r = run_cli(
        ["bounds", "net.json", "bounds.json", "--data", "data.csv",
         "--layer", 1, "--diffs"],
        d,
    )
    assert r.returncode == 0, r.stderr
    r = run_cli(
        ["train-characterizer", "net.json", "data.csv", "head.json",
         "--layer", 1, "--property-id", "x0-high"],
        d,
    )
    assert r.returncode == 0, r.stderr

    def query(name, rhs):
        (d / name).write_text(
            json.dumps(
                {
                    "cut_layer": 1,
                    "bounds": "bounds.json",
                    "characterizer": "head.json",
                    "risk": [{"coeffs": [1.0], "op": ">=", "rhs": rhs}],
                }
            )
        )

    query("query_safe.json", 2.5)    # beyond the envelope's reach
    query("query_unsafe.json", 1.2)  # reachable where the head says phi
    return d


def test_verify_safe_exit_zero_and_conditional_notice(workdir):
    r = run_cli(["verify", "net.json", "query_safe.json", "safe.json"], workdir)
    assert r.returncode == 0, r.stderr
    rep = json.loads((workdir / "safe.json").read_text())
    assert rep["status"] == "safe"
    assert rep["conditional"] is True
    assert rep["witness"] is None
    assert "wall_time" not in rep["stats"]
    assert "conditional" in r.stderr  # assume-guarantee notice on stderr


def test_verify_unsafe_exit_one_with_replayable_witness(workdir):
    r = run_cli(["verify", "net.json", "query_unsafe.json", "unsafe.json"], workdir)
    assert r.returncode == 1, r.stderr
    rep = json.loads((workdir / "unsafe.json").read_text())
    assert rep["status"] == "unsafe"
    w = np.array(rep["witness"], dtype=np.float64)
    from safecut.network import load_network

    net = load_network(str(workdir / "net.json"))
    q = load_query(str(workdir / "query_unsafe.json"))
    facts = replay_witness(net, q, w)
    assert facts["in_bounds"] and facts["characterizer"] == 1
    assert facts["risk_satisfied"]


def test_verify_report_is_bitwise_idempotent(workdir):
    run_cli(["verify", "net.json", "query_safe.json", "rep_a.json"], workdir)
    run_cli(["verify", "net.json", "query_safe.json", "rep_b.json"], workdir)
    a = (workdir / "rep_a.json").read_bytes()
    b = (workdir / "rep_b.json").read_bytes()
    assert a == b
    assert a.endswith(b"\n")


def test_verify_timing_flag_adds_wall_time(workdir):
    r = run_cli(
        ["verify", "net.json", "query_safe.json", "timed.json", "--timing"], workdir
    )
    assert r.returncode == 0
    rep = json.loads((workdir / "timed.json").read_text())
    assert "wall_time" in rep["stats"]


def test_verify_budget_unknown_exit_three(workdir, tmp_path):
    # fractional-only root relaxation: one straddling relu, phi excludes it
    net = Network(
        layers=(
            Dense(weights=np.eye(1), bias=np.zeros(1)),
            Relu(dimension=1),
            Dense(weights=np.eye(1), bias=np.zeros(1)),
        ),
        input_dim=1,
    )
    save_network(net, str(tmp_path / "n.json"))
    (tmp_path / "b.json").write_text(
        json.dumps(
            {"layer": 1, "lo": [-1.0], "hi": [2.0], "provenance": "static",
             "sample_count": 0}
        )
    )
    (tmp_path / "h.json").write_text(
        json.dumps(
            {
                "property_id": "p",
                "decision_rule": "logit_ge_zero",
                "achieved_accuracy": 1.0,
                "network": {
                    "input_dim": 1,
                    "layers": [
                        {"type": "dense", "weights": [[-1.0]], "bias": [-0.5]}
                    ],
                },
            }
        )
    )
    (tmp_path / "q.json").write_text(
        json.dumps(
            {
                "cut_layer": 1,
                "bounds": "b.json",
                "characterizer": "h.json",
                "risk": [
                    {"coeffs": [1.0], "op": "<=", "rhs": 0.25},
                    {"coeffs": [1.0], "op": ">=", "rhs": 0.25},
                ],
            }
        )
    )
    r = run_cli(
        ["verify", "n.json", "q.json", "out.json", "--max-nodes", 1], tmp_path
    )
    assert r.returncode == 3, r.stderr
    rep = json.loads((tmp_path / "out.json").read_text())
    assert rep["status"] == "unknown"


def test_missing_network_file_is_input_error(workdir):
    r = run_cli(["verify", "nope.json", "query_safe.json", "x.json"], workdir)
    assert r.returncode == 2
    assert "error" in r.stderr.lower()


def test_garbage_query_is_input_error(workdir, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = run_cli(["verify", "net.json", str(bad), "x.json"], workdir)
    assert r.returncode == 2


def _malformed(workdir, tmp_path, case):
    """Write one malformed artifact into tmp_path; returns (its name, argv)."""
    for f in ("net.json", "bounds.json", "head.json", "data.csv"):
        (tmp_path / f).write_bytes((workdir / f).read_bytes())
    query = {
        "cut_layer": 1,
        "bounds": "bounds.json",
        "characterizer": "head.json",
        "risk": [{"coeffs": [1.0], "op": ">=", "rhs": 2.5}],
    }
    verify = ["verify", "net.json", "q.json", "v.json"]
    if case == "query-cut-layer-list":
        name, obj = "q.json", dict(query, cut_layer=[2])
    elif case == "query-cut-layer-fraction":  # int() would verify at cut 1
        name, obj = "q.json", dict(query, cut_layer=1.9)
    elif case == "bounds-lo-above-hi":  # the decoder's own check, nested
        name, obj = "b.json", json.loads((workdir / "bounds.json").read_text())
        obj["lo"] = [v + 1e3 for v in obj["hi"]]
        (tmp_path / "q.json").write_text(json.dumps(dict(query, bounds=name)))
    elif case == "head-accuracy-list":  # referenced by a valid query
        head = json.loads((workdir / "head.json").read_text())
        name, obj = "h.json", dict(head, achieved_accuracy=[1])
        (tmp_path / "q.json").write_text(json.dumps(dict(query, characterizer=name)))
    elif case in ("dense-weights-object", "network-layers-empty"):
        name, obj = "n.json", json.loads((workdir / "net.json").read_text())
        if case == "dense-weights-object":
            obj["layers"][0]["weights"] = {}
        else:
            obj["layers"] = []
        (tmp_path / "q.json").write_text(json.dumps(query))
        verify[1] = name
    else:
        name, obj = "r.json", {"cut_layer": 1}
        verify = ["stats", "net.json", "head.json", "data.csv", "--layer", 1, "--risk", name]
    (tmp_path / name).write_text(json.dumps(obj))
    return name, verify


@pytest.mark.parametrize(
    "case",
    [
        "query-cut-layer-list", "head-accuracy-list", "dense-weights-object", "risk-missing",
        "query-cut-layer-fraction", "bounds-lo-above-hi", "network-layers-empty",
    ],
)
def test_malformed_artifact_is_input_error_naming_the_file(workdir, tmp_path, case):
    name, argv = _malformed(workdir, tmp_path, case)
    r = run_cli(argv, tmp_path)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    # the message starts with the malformed file's own path, even when it is
    # nested in a valid query
    errors = [line.split(": ")[2] for line in r.stderr.splitlines()
              if line.startswith("safecut: error: ")]
    assert len(errors) == 1 and errors[0].endswith(name), r.stderr
    assert not (tmp_path / "v.json").exists()


def test_static_without_box_is_usage_error(workdir):
    # an envelope comes from --data or from --box, and from exactly one
    r = run_cli(["bounds", "net.json", "x.json", "--layer", 1], workdir)
    assert r.returncode == 2
    assert "one of the arguments --data --box is required" in r.stderr, r.stderr
    assert not (workdir / "x.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["bounds", "net.json", "x.json", "--static", "--box=-1,1", "--layer", 1],
     "unrecognized arguments: --static"),
    (["bounds", "net.json", "x.json", "--data", "data.csv", "--box=-1,1", "--layer", 1],
     "argument --box: not allowed with argument --data"),
    (["--seed", 3, "train-characterizer", "net.json", "data.csv", "x.json", "--layer", 1],
     "invalid choice"),
    (["--debug-lp-dump", "x.lp", "verify", "net.json", "query_safe.json", "x.json"],
     "invalid choice"),
], ids=["static", "data-and-box", "top-level-seed", "top-level-dump"])
def test_old_option_spellings_exit_2(workdir, argv, message):
    # each option lives on the one subcommand that reads it, and --box alone
    # asks for a static envelope; the old spellings are usage errors that
    # write nothing
    r = run_cli(argv, workdir)
    assert r.returncode == 2 and message in r.stderr, r.stderr
    assert not (workdir / "x.json").exists() and not (workdir / "x.lp").exists()


def test_train_characterizer_reads_its_seed(workdir, tmp_path):
    # the seed draws a hidden head's initial weights: the same seed gives
    # the same file, another seed another head
    def head(seed, name):
        r = run_cli(["train-characterizer", "net.json", "data.csv", str(tmp_path / name),
                     "--layer", 1, "--hidden", 3, "--epochs", 3, "--seed", seed], workdir)
        assert r.returncode == 0, r.stderr
        return (tmp_path / name).read_bytes()

    assert head(1, "a.json") == head(1, "b.json") != head(2, "c.json")


def test_static_bounds_give_unconditional_verdict(workdir, tmp_path):
    r = run_cli(
        ["bounds", "net.json", str(tmp_path / "sb.json"), "--box=-1,1", "--layer", 1],
        workdir,
    )
    assert r.returncode == 0, r.stderr
    q = tmp_path / "q.json"
    q.write_text(
        json.dumps(
            {
                "cut_layer": 1,
                "bounds": str(tmp_path / "sb.json"),
                "characterizer": str(workdir / "head.json"),
                "risk": [{"coeffs": [1.0], "op": ">=", "rhs": 2.5}],
            }
        )
    )
    r = run_cli(["verify", "net.json", str(q), str(tmp_path / "v.json")], workdir)
    assert r.returncode == 0, r.stderr
    rep = json.loads((tmp_path / "v.json").read_text())
    assert rep["conditional"] is False
    assert r.stderr.strip() == ""  # no assume-guarantee notice for static proofs


def test_monitor_ldjson_stream(workdir):
    stdin = "0.5,0.5\n0.0,0.0\n9.0,9.0\nbad,row\n0.1,0.2\n"
    r = run_cli(["monitor", "net.json", "bounds.json"], workdir, stdin_text=stdin)
    assert r.returncode == 0, r.stderr
    lines = [json.loads(l) for l in r.stdout.splitlines() if l.strip()]
    assert len(lines) == 5
    assert lines[0]["contained"] is True
    assert lines[2]["contained"] is False
    assert any(v["kind"] == "box" for v in lines[2]["violations"])
    assert "error" in lines[3]
    assert lines[4]["contained"] is True
    assert [l.get("sample_id") for l in lines] == ["0", "1", "2", "3", "4"]


def test_monitor_activation_rows(workdir):
    # rows are already cut-layer activations (the cut here is the identity,
    # but --activations must skip the forward entirely)
    r = run_cli(
        ["monitor", "net.json", "bounds.json", "--activations"],
        workdir,
        stdin_text="0.2,0.2\n5.0,5.0\n",
    )
    lines = [json.loads(l) for l in r.stdout.splitlines() if l.strip()]
    assert lines[0]["contained"] is True and lines[1]["contained"] is False


def test_monitor_has_no_tolerance_flag(workdir):
    # the monitor checks exactly the bounds file; slack goes in at build time
    r = run_cli(["monitor", "net.json", "bounds.json", "--tolerance", "0"], workdir,
                stdin_text="0.5,0.5\n")
    assert r.returncode == 2 and "unrecognized arguments: --tolerance" in r.stderr, r.stderr


def _stream_lines(workdir, rows, **kwargs):
    """What `monitor` must print for `rows` (lists of raw cells), from the library."""
    net = load_network(str(workdir / "net.json"))
    b = load_bounds(str(workdir / "bounds.json"))
    return [
        json.dumps(report_to_obj(r), sort_keys=True)
        for r in monitor_stream(net, b, rows, **kwargs)
    ]


def test_monitor_crlf_and_malformed_rows_in_one_chunk(workdir):
    # one read holds good rows, bad ones, blank lines and padded cells; the
    # lines and the sample_id sequence are those of the per-row stream
    rows = ["0.5,0.5", " 0.0 , 0.0", "9.0,9.0", "bad,row", "0.1", "",
            "0.1,0.2,0.3", "0.3,-0.4", "1e-3,nan", "0.2,,0.1", "0.4,0.1"]
    want = _stream_lines(
        workdir, [[p.strip() for p in r.split(",")] for r in rows if r.strip()]
    )
    for eol in ("\n", "\r\n"):
        r = run_cli(["monitor", "net.json", "bounds.json"], workdir,
                    stdin_text=eol.join(rows))  # no newline after the last row
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines() == want
        ids = [json.loads(line)["sample_id"] for line in r.stdout.splitlines()]
        assert ids == [str(k) for k in range(10)]
    # a chunk of good rows only, one of them outside
    good = ["0.5,0.5", "9.0,9.0", " 0.1 ,0.2"]
    r = run_cli(["monitor", "net.json", "bounds.json"], workdir,
                stdin_text="\r\n".join(good) + "\r\n")
    assert r.stdout.splitlines() == _stream_lines(
        workdir, [[p.strip() for p in g.split(",")] for g in good]
    )
    # a chunk whose rows all parse but have the wrong width
    r = run_cli(["monitor", "net.json", "bounds.json"], workdir,
                stdin_text="1,2,3\r\n4,5,6\r\n")
    assert r.stdout.splitlines() == _stream_lines(workdir, [["1", "2", "3"], ["4", "5", "6"]])
    assert all("error" in json.loads(line) for line in r.stdout.splitlines())


# cells the chunk parser must read as float() does, or hand to the row path
_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(lambda v: "%.16e" % v),
    st.floats(-2.0, 2.0).map(repr),
    st.floats(-2.0, 2.0).map(lambda v: " %r\t" % v),
    st.sampled_from(["1_0", "\u0967", "nan", "inf", "-inf", "#1", "0x10", "", " "]),
)
_ROWS = st.lists(
    st.one_of(st.lists(_CELLS, min_size=2, max_size=2), st.lists(_CELLS, max_size=3)),
    min_size=1, max_size=12,
)


def _monitor_in_process(net_path, bounds_path, text, activations):
    """`safecut monitor` stdout for stdin `text`, without a child process."""
    args = argparse.Namespace(
        network=net_path, bounds=bounds_path, activations=activations
    )
    stdin, out = sys.stdin, io.StringIO()
    sys.stdin = io.TextIOWrapper(io.BufferedReader(io.BytesIO(text.encode())), "utf-8")
    try:
        with contextlib.redirect_stdout(out):
            assert cli.cmd_monitor(args) == 0
    finally:
        sys.stdin = stdin
    return out.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rows=_ROWS, eol=st.sampled_from(["\n", "\r\n"]), activations=st.booleans())
@example(rows=[["0.5", "0.5"], ["#1", "0.2"], ["9.0", "9.0"]], eol="\n", activations=False)
@example(rows=[["1_0", " 0.5"], ["0.1", "\u0967"], ["9.0", "9.0"]], eol="\n", activations=False)
def test_monitor_chunk_parse_matches_row_by_row_path(workdir, rows, eol, activations):
    text = eol.join(",".join(r) for r in rows) + eol
    lines = [line for line in map(str.strip, text.replace("\r\n", "\n").split("\n")) if line]
    want = _stream_lines(
        workdir, [[p.strip() for p in line.split(",")] for line in lines],
        precomputed=activations,
    )
    got = _monitor_in_process(
        str(workdir / "net.json"), str(workdir / "bounds.json"), text, activations
    )
    assert got.splitlines() == want


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_monitor_reports_non_finite_rows_as_errors(tiny_path, tmp_path):
    r = run_cli(["bounds", tiny_path, "b.json", "--box=-1,1", "--layer", 1],
                tmp_path)
    assert r.returncode == 0, r.stderr
    # -1.7e308 - 1.7e308 overflows to -inf in the third cut unit
    rows = ["0.1,0.2", "1e-3,nan", "inf,-inf", "-1.7e308,1.7e308", "9,9", "0.5,0.5"]
    r = run_cli(["monitor", tiny_path, "b.json"], tmp_path, stdin_text="\n".join(rows))
    assert r.returncode == 0 and r.stderr == ""
    out = [json.loads(line, parse_constant=_refuse_constant) for line in r.stdout.splitlines()]
    assert [o["sample_id"] for o in out] == [str(k) for k in range(len(rows))]
    assert ["error" in o for o in out] == [False, True, True, True, False, False]
    assert [o.get("contained") for o in out] == [True, None, None, None, False, True]


def test_monitor_and_verify_refuse_nan_envelope(tiny_path, tmp_path):
    r = run_cli(["bounds", tiny_path, "b.json", "--box=-1,1", "--layer", 1],
                tmp_path)
    assert r.returncode == 0, r.stderr
    b = json.loads((tmp_path / "b.json").read_text())
    b["lo"][0] = float("nan")
    (tmp_path / "nan.json").write_text(json.dumps(b))  # writes a bare NaN
    head = {
        "property_id": "p", "decision_rule": "logit_ge_zero", "achieved_accuracy": 1.0,
        "network": {"input_dim": 3, "layers": [
            {"type": "dense", "weights": [[1.0, 0.0, 0.0]], "bias": [0.0]}]},
    }
    (tmp_path / "q.json").write_text(json.dumps({
        "cut_layer": 1, "bounds": "nan.json", "characterizer": head,
        "risk": [{"coeffs": [1.0, 0.0], "op": ">=", "rhs": 5.0}],
    }))
    for args, stdin in (
        (["monitor", tiny_path, "nan.json"], "-7.0,0.0\n"),
        (["verify", tiny_path, "q.json", "v.json"], None),
    ):
        r = run_cli(args, tmp_path, stdin_text=stdin)
        assert r.returncode == 2, (args, r.stderr)
        assert "lo[0] is NaN" in r.stderr and "unbounded" not in r.stderr
        assert r.stdout == ""
    assert not (tmp_path / "v.json").exists()


def test_infinite_box_gives_infinite_envelope_that_verify_refuses(tiny_path, tmp_path):
    r = run_cli(["bounds", tiny_path, "b.json", "--box=-inf,inf", "--layer", 1],
                tmp_path)
    assert r.returncode == 0 and r.stderr == "", r.stderr
    b = load_bounds(str(tmp_path / "b.json"))
    assert b.lo.tolist() == [-np.inf] * 3 and b.hi.tolist() == [np.inf] * 3
    head = {
        "property_id": "p", "decision_rule": "logit_ge_zero", "achieved_accuracy": 1.0,
        "network": {"input_dim": 3, "layers": [
            {"type": "dense", "weights": [[1.0, 0.0, 0.0]], "bias": [0.0]}]},
    }
    (tmp_path / "q.json").write_text(json.dumps({
        "cut_layer": 1, "bounds": "b.json", "characterizer": head,
        "risk": [{"coeffs": [1.0, 0.0], "op": ">=", "rhs": 5.0}],
    }))
    r = run_cli(["verify", tiny_path, "q.json", "v.json"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert "ReLU s1_0 has unbounded pre-activation interval [-inf, inf]" in r.stderr
    assert not (tmp_path / "v.json").exists()


def test_overflowing_widen_and_tolerance_are_silent(tiny_path, tmp_path):
    # a finite -1e308 bound padded by --widen overflows to the infinity on
    # its own side, and --widen 0 keeps an infinite bound as it is; with
    # RuntimeWarnings made errors, as CI sets them, both exit 0 with nothing
    # on stderr
    env = child_env(PYTHONWARNINGS="error::RuntimeWarning")
    box = ["--box=-1e308,1e308", "--layer", 1]

    def run(args, stdin_text=None):
        return subprocess.run(
            [sys.executable, "-m", "safecut.cli", *[str(a) for a in args]],
            capture_output=True, text=True, input=stdin_text, cwd=str(tmp_path), env=env,
        )

    r = run(["bounds", tiny_path, "wide.json", *box, "--widen", 1])
    assert r.returncode == 0 and r.stderr == "", r.stderr
    b = load_bounds(str(tmp_path / "wide.json"))
    assert b.lo.tolist() == [-np.inf] * 3 and b.hi.tolist() == [np.inf] * 3

    r = run(["bounds", tiny_path, "env.json", *box, "--widen", 0])
    assert r.returncode == 0 and r.stderr == "", r.stderr
    assert load_bounds(str(tmp_path / "env.json")).lo.tolist() == [-1e308, -1e308, -np.inf]


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_monitor_overflowing_difference_is_a_strict_json_error_line(tiny_path, tmp_path):
    # 1e308 - -1e308 overflows; the row's report would print -Infinity, so it
    # is an error line like a non-finite activation, and the run goes on
    save_bounds(
        ActivationBounds(layer=1, lo=np.full(3, -1e308), hi=np.full(3, 1e308),
                         diff_lo=np.full(2, -1.0), diff_hi=np.full(2, 1.0)),
        str(tmp_path / "env.json"),
    )
    r = subprocess.run(
        [sys.executable, "-m", "safecut.cli", "monitor", tiny_path, "env.json", "--activations"],
        capture_output=True, text=True, input="1e308,-1e308,0\n0.5,0,0\n", cwd=str(tmp_path),
        env=child_env(PYTHONWARNINGS="error::RuntimeWarning"),
    )
    assert r.returncode == 0 and r.stderr == "", r.stderr
    lines = [json.loads(line, parse_constant=_refuse_constant) for line in r.stdout.splitlines()]
    assert lines == [
        {"sample_id": "0", "error": "adjacent difference of the cut activation is not finite"},
        {"sample_id": "1", "contained": True, "violations": []},
    ]


@pytest.mark.parametrize("box, message", [
    ("nan,1", "input box lo[0] is NaN"),
    ("inf,inf", "input box lo[0] is +inf"),
    ("-inf,-inf", "input box hi[0] is -inf"),
])
def test_bad_box_endpoint_is_input_error(tiny_path, tmp_path, box, message):
    r = run_cli(["bounds", tiny_path, "b.json", f"--box={box}", "--layer", 1],
                tmp_path)
    assert r.returncode == 2 and message in r.stderr, r.stderr
    assert not (tmp_path / "b.json").exists()


def test_monitor_reports_each_row_before_the_next_arrives(workdir):
    proc = subprocess.Popen(
        [sys.executable, "-m", "safecut.cli", "monitor", "net.json", "bounds.json"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=str(workdir), env=child_env(),
    )
    try:
        for k, row in enumerate(["0.5,0.5", "9.0,9.0", "bad,row", "0.1,0.2"]):
            proc.stdin.write(row.encode() + b"\n")
            proc.stdin.flush()
            ready, _, _ = select.select([proc.stdout], [], [], 60.0)
            assert ready, f"no report for row {k} while stdin stayed open"
            assert json.loads(proc.stdout.readline())["sample_id"] == str(k)
    finally:
        proc.stdin.close()
        proc.wait(timeout=60)
        proc.stdout.close()
        proc.stderr.close()
    assert proc.returncode == 0


def test_monitor_flags_none_of_its_own_envelope_rows(tmp_path):
    # the envelope and the monitor share one row-exact forward pass, so the
    # rows the envelope was built from all come back contained
    rng = np.random.default_rng(29)
    net = synth.wide_network(rng)
    X = rng.uniform(-1.0, 1.0, (800, net.input_dim))
    save_network(net, str(tmp_path / "wide.json"))
    save_dataset(Dataset(inputs=X), str(tmp_path / "env.csv"))
    r = run_cli(["bounds", "wide.json", "b.json", "--data", "env.csv",
                 "--layer", synth.WIDE_CUT, "--diffs"], tmp_path)
    assert r.returncode == 0, r.stderr
    rows = "".join(",".join(repr(float(v)) for v in x) + "\n" for x in X)
    r = run_cli(["monitor", "wide.json", "b.json"], tmp_path, stdin_text=rows)
    assert r.returncode == 0, r.stderr
    reports = [json.loads(line) for line in r.stdout.splitlines()]
    assert [rep["sample_id"] for rep in reports] == [str(k) for k in range(len(X))]
    assert [rep for rep in reports if not rep["contained"]] == []


def test_stats_reports_cells_and_guarantee(workdir):
    r = run_cli(
        ["stats", "net.json", "head.json", "data.csv", "--layer", 1,
         "--delta", "0.05"],
        workdir,
    )
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    c = rep["counts"]
    assert c["n11"] + c["n10"] + c["n01"] + c["n00"] == 80
    assert rep["gamma"] == 0.0  # the head is exact on its training data
    assert rep["point_guarantee"] == 1.0
    assert rep["conservative_guarantee"] == pytest.approx(
        0.05 ** (1.0 / 80.0), abs=1e-9
    )
    assert rep["premise_checked"] is False


def test_stats_with_risk_premise(workdir, tmp_path):
    risk = tmp_path / "risk.json"
    risk.write_text(json.dumps({"risk": [{"coeffs": [1.0], "op": ">=", "rhs": 99.0}]}))
    r = run_cli(
        ["stats", "net.json", "head.json", "data.csv", "--layer", 1,
         "--risk", str(risk)],
        workdir,
    )
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["premise_checked"] is True


@pytest.mark.parametrize("field", ["coeffs", "rhs"])
def test_nan_risk_query_refused_before_search_and_dump(workdir, tmp_path, field):
    obj = json.loads((workdir / "query_safe.json").read_text())
    obj["bounds"] = str(workdir / "bounds.json")
    obj["characterizer"] = str(workdir / "head.json")
    clause = obj["risk"][0]
    clause[field] = [float("nan")] if field == "coeffs" else float("nan")
    (tmp_path / "nan.json").write_text(json.dumps(obj))
    dump = tmp_path / "nan.lp"
    r = run_cli(
        ["verify", "net.json", tmp_path / "nan.json", tmp_path / "v.json",
         "--max-nodes", 0, "--debug-lp-dump", dump],
        workdir,
    )
    assert r.returncode == 2, r.stderr
    assert "finite" in r.stderr
    assert not dump.exists() and not (tmp_path / "v.json").exists()


def test_debug_lp_dump(workdir, tmp_path):
    dump = tmp_path / "root.lp"
    r = run_cli(
        ["verify", "net.json", "query_safe.json", str(tmp_path / "v.json"),
         "--debug-lp-dump", str(dump)],
        workdir,
    )
    assert r.returncode == 0, r.stderr
    text = dump.read_text()
    assert "minimize" in text and "binaries" in text
    lp_lines = text.splitlines()
    prob = encode(load_network(str(workdir / "net.json")),
                  load_query(str(workdir / "query_safe.json")))
    top, mid = lp_lines.index("subject to"), lp_lines.index("bounds")
    assert mid - top - 1 == prob.lp.num_rows
    assert lp_lines[mid + 1:-1] == [
        f"  {lo:g} <= {prob.lp.name_of(j)} <= {hi:g}"
        for j, (lo, hi) in enumerate(zip(prob.lp.lo, prob.lp.hi))
    ]
    assert lp_lines[-1].split() == ["binaries"] + [prob.lp.name_of(j) for j in prob.binaries]


@pytest.fixture(scope="session")
def net222(workdir):
    """workdir's network with a 2-unit output, which the layer-1 head would also read."""
    net = Network(
        layers=(
            Dense(weights=np.eye(2), bias=np.zeros(2)),
            Relu(dimension=2),
            Dense(weights=np.array([[1.0, 1.0], [1.0, -1.0]]), bias=np.zeros(2)),
        ),
        input_dim=2,
    )
    save_network(net, str(workdir / "net222.json"))
    return "net222.json"


@pytest.mark.parametrize("layer", [0, 3])
def test_stats_refuses_a_layer_that_is_no_cut(workdir, net222, layer):
    r = run_cli(["stats", net222, "head.json", "data.csv", "--layer", layer], workdir)
    assert r.returncode == 2 and r.stdout == ""
    assert f"cut position {layer} outside [1, 3)" in r.stderr, r.stderr


def _lengthen(b):
    for key in ("lo", "hi", "diff_lo", "diff_hi"):
        b[key].append(b[key][-1])


@pytest.mark.parametrize("edit, message", [
    (lambda b: b.update(layer=3), "cut position 3 outside [1, 3)"),
    (lambda b: b.update(layer=0), "cut position 0 outside [1, 3)"),
    (_lengthen, "bounds dim 3 does not match cut-layer dim 2"),
], ids=["output", "input", "too-long"])
def test_monitor_refuses_bounds_that_do_not_fit_the_network(
    workdir, net222, tmp_path, edit, message
):
    b = json.loads((workdir / "bounds.json").read_text())
    edit(b)
    (tmp_path / "b.json").write_text(json.dumps(b))
    r = run_cli(["monitor", net222, str(tmp_path / "b.json")], workdir,
                stdin_text="0.5,0.5\n0.1,0.2\n")
    assert r.returncode == 2 and r.stdout == ""
    assert message in r.stderr, r.stderr


@pytest.mark.parametrize("weights, box, lo, hi", [
    ([[1.0, 1.0, -1.0, -1.0]], "-1e308,-1e308", [-np.inf], [np.inf]),
    ([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]], "-1e308,1e308",
     [-1e308, -1e308, -np.inf], [1e308, 1e308, np.inf]),
], ids=["nan", "tiny"])
def test_overflowing_static_bounds_are_sound_and_silent(tmp_path, weights, box, lo, hi):
    w = np.array(weights)
    net = Network(
        layers=(Dense(weights=w, bias=np.zeros(w.shape[0])), Relu(dimension=w.shape[0])),
        input_dim=w.shape[1],
    )
    save_network(net, str(tmp_path / "net.json"))
    r = run_cli(["bounds", "net.json", "b.json", f"--box={box}", "--layer", 1],
                tmp_path)
    assert r.returncode == 0 and r.stderr == "", r.stderr
    b = load_bounds(str(tmp_path / "b.json"))
    assert b.lo.tolist() == lo and b.hi.tolist() == hi
