"""The `cli` workload: the user's pipeline as `safecut` subprocesses.

The run first builds the monitor net's envelope (bounds --data --diffs).
Then, one process at a time and while --seconds last, it alternates the
road scenario of one regressor, the well-trained and the undertrained in
turn (bounds --data --diffs, train-characterizer, verify, stats), with a
stream of the envelope's own rows plus fresh ones through `safecut monitor`
on stdin at the default tolerance.  Every process's exit code and output
are checked.
"""

from __future__ import annotations

import fcntl
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

import inputs
import reference
import tracing
from inproc import percentile

BOUNDS_TOL = 1e-9
MONITOR_PIPE_BYTES = 1 << 20
MONITOR_POLL_S = 0.01
_VERDICT_EXIT = {"safe": 0, "unsafe": 1, "unknown": 3}


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def road_instance(run, data, tag):
    """The road query in the benchmark's own form, from the CLI-built files."""
    b = _read_json(os.path.join(run.work, f"bounds_{tag}.json"))
    h = _read_json(os.path.join(run.work, f"head_{tag}.json"))
    return {
        "net": data["road"][tag],
        "cut": inputs.ROAD_CUT,
        "head": inputs.layers_from_obj(h["network"]),
        "env": {k: None if b[k] is None else np.array(b[k]) for k in ("lo", "hi", "diff_lo", "diff_hi")},
        "risk": [(np.array(c["coeffs"]), c["op"], c["rhs"]) for c in inputs.ROAD_RISK],
    }


def _exit_failures(what, code, stderr, want):
    if code == want:
        return []
    kind = "unknown" if code == _VERDICT_EXIT["unknown"] and want in (0, 1) else "wrong"
    return [(kind, f"{what} exited {code}, expected {want}: {stderr.strip()[-300:]}")]


def _bounds_failures(path, want):
    """The CLI's envelope must match the one computed here from the same rows."""
    got = _read_json(path)
    for key in ("lo", "hi", "diff_lo", "diff_hi"):
        if got[key] is None or np.max(np.abs(np.array(got[key]) - want[key])) > BOUNDS_TOL:
            return [("wrong", f"{os.path.basename(path)}: {key} differs from the reference envelope")]
    return []


def record_rows(run, reports, expected, where):
    """Check every monitor row, one operation each; returns the false alarms."""
    alarms = 0
    for i, bad in enumerate(reference.monitor_failures(reports, expected)):
        run.record((where, i), bad)
        alarms += any(kind == "false_alarm" for kind, _ in bad)
    return alarms


TAGS = ("well", "under")
PIPELINE = ("bounds", "train", "verify", "stats")


class Pass:
    """Stage times, verdict samples and monitor streams of the cli processes."""

    def __init__(self, run, data):
        self.run = run
        self.data = data
        self.times = defaultdict(list)
        self.insts = {}
        self.expected = {}
        self.pipelines = defaultdict(list)  # tag -> road pipeline seconds per step
        self.streams = []  # (report lines after the first, first to last line seconds)
        self.first_rows = []  # monitor start to first report line, per stream

    def stage(self, name, argv, want=0):
        dt, proc = self.run.safecut(*argv)
        self.times[name].append(dt)
        return proc, _exit_failures(argv[0], proc.returncode, proc.stderr, want)

    def road(self, tag):
        """The road pipeline of one regressor: bounds, train, verify, stats."""
        done = {s: len(self.times[s]) for s in PIPELINE}
        self.bounds(tag)
        self.train(tag)
        self.verify(tag)
        self.stats(tag)
        self.pipelines[tag].append(sum(sum(self.times[s][done[s]:]) for s in PIPELINE))

    def bounds(self, tag):
        proc, bad = self.stage("bounds", ["bounds", f"net_{tag}.json", f"bounds_{tag}.json",
                                          "--data", "road.csv", "--layer", inputs.ROAD_CUT, "--diffs"])
        if not bad:
            acts = inputs.forward_rows(self.data["road"][tag][: inputs.ROAD_CUT], self.data["road_X"])
            bad = _bounds_failures(os.path.join(self.run.work, f"bounds_{tag}.json"), inputs.envelope(acts))
        self.run.record(("bounds", tag), bad)

    def train(self, tag):
        _, bad = self.stage("train", ["train-characterizer", f"net_{tag}.json", "road.csv",
                                      f"head_{tag}.json", "--layer", inputs.ROAD_CUT,
                                      "--property-id", "bends-right"])
        self.run.record(("train", tag), bad)
        if not bad:
            self.insts[tag] = inst = road_instance(self.run, self.data, tag)
            status, secs = reference.reference_verdict(inst)
            self.expected[tag] = status
            self.run.report[f"reference.highs_s.{tag}"] = secs
            self.run.report[f"reference.verdict.{tag}"] = status
        else:
            self.expected.pop(tag, None)

    def verify(self, tag):
        want = self.expected.get(tag)
        if want is None:
            return  # training failed; already counted
        proc, bad = self.stage("verify", ["verify", f"net_{tag}.json", f"query_{tag}.json",
                                          f"verdict_{tag}.json"], _VERDICT_EXIT[want])
        if proc.returncode in (0, 1, 3):
            rep = _read_json(os.path.join(self.run.work, f"verdict_{tag}.json"))
            bad = bad + reference.verdict_failures(self.insts[tag], want, rep["status"], rep["witness"])
            self.run.report[f"verifier.nodes.{tag}"] = rep["stats"]["nodes_explored"]
        self.run.record(("verify", tag), bad)

    def stats(self, tag):
        proc, bad = self.stage("stats", ["stats", f"net_{tag}.json", f"head_{tag}.json", "road.csv",
                                         "--layer", inputs.ROAD_CUT])
        if not bad and tag in self.insts:
            feats = inputs.forward_rows(self.data["road"][tag][: inputs.ROAD_CUT], self.data["road_X"])
            pred = inputs.forward_rows(self.insts[tag]["head"], feats)[:, 0] >= 0.0
            y = self.data["road_y"] == 1
            want = {"n11": y & pred, "n10": y & ~pred, "n01": ~y & pred, "n00": ~y & ~pred}
            got = json.loads(proc.stdout)["counts"]
            if any(got[k] != int(v.sum()) for k, v in want.items()):
                bad = [("wrong", f"stats counts {got} differ from the recount")]
        self.run.record(("stats", tag), bad)

    def monitor_bounds(self):
        """The envelope of the monitor net's own data, which the streams check against."""
        _, bad = self.stage("monitor_bounds", ["bounds", "mon_net.json", "mon_bounds.json", "--data",
                                               "mon_env.csv", "--layer", inputs.MON_CUT, "--diffs"])
        if not bad:
            bad = _bounds_failures(os.path.join(self.run.work, "mon_bounds.json"), self.data["mon_env"])
        self.run.record(("monitor_bounds",), bad)

    def monitor(self):
        """Stream the monitor rows through `safecut monitor` on stdin."""
        argv = [sys.executable, "-m", "safecut.cli", "monitor", "mon_net.json", "mon_bounds.json"]
        chunks = []  # (arrival time, bytes) of every read from the monitor's stdout
        with open(os.path.join(self.run.work, "mon_rows.csv"), "rb") as rows, open(
            os.path.join(self.run.work, "monitor.err"), "wb"
        ) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.run.work, env=self.run.env, stdin=rows,
                                    stdout=subprocess.PIPE, stderr=err)
            try:
                fd = proc.stdout.fileno()
                try:  # room for ~15k report lines, so the reader's naps never stall the monitor
                    fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, MONITOR_PIPE_BYTES)
                except OSError:
                    pass
                while True:
                    buf = os.read(fd, MONITOR_PIPE_BYTES)
                    if not buf:
                        break
                    chunks.append((time.perf_counter(), buf))
                    # the monitor flushes every line: collect them for a while
                    # rather than wake up for each one on a machine of few cores
                    time.sleep(MONITOR_POLL_S)
                proc.wait(timeout=60)
            finally:
                proc.stdout.close()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - t0
        self.times["monitor"].append(wall)
        with open(os.path.join(self.run.work, "monitor.err"), encoding="utf-8", errors="replace") as err:
            self.run.record(("monitor_exit",), _exit_failures("monitor", proc.returncode, err.read(), 0))
        reports = [json.loads(line) for line in b"".join(b for _, b in chunks).splitlines()]
        self.run.report["monitor.false_alarms.cli"] = record_rows(
            self.run, reports, self.data["mon_expected"], "monitor_row"
        )
        # rate from the first to the last report line; lines arrive in chunks
        stamped = [(t, b.count(b"\n")) for t, b in chunks if b.count(b"\n")]
        if len(stamped) >= 2:
            self.first_rows.append(stamped[0][0] - t0)
            self.streams.append((sum(n for _, n in stamped[1:]), stamped[-1][0] - stamped[0][0]))


def run_rounds(run, data):
    """Steps while --seconds last: a road pipeline, a monitor stream, the other pipeline, ...

    The road pipelines alternate the two regressors, with a monitor stream
    after each, so process start-up, the pipeline and the monitor are each
    sampled all through the run, not in one stretch of it.  The first three
    steps are always made (both regressors and one stream); a traced run
    makes only those, for the stage times.
    """
    p = Pass(run, data)
    p.monitor_bounds()
    t_end = time.perf_counter() + run.seconds
    steps, last = 0, 0.0
    while steps < 3 or (not run.trace and t_end - time.perf_counter() > last):
        t0 = time.perf_counter()
        if steps % 2:
            p.monitor()
        else:
            p.road(TAGS[steps // 2 % len(TAGS)])
        steps += 1
        last = time.perf_counter() - t0
    if not p.streams:
        raise RuntimeError("safecut monitor printed fewer than two report lines")
    rows, secs = (sum(col) for col in zip(*p.streams))
    run.report.update({f"cli.{s}_s": statistics.median(p.times[s]) for s in PIPELINE if s != "verify"})
    run.report.update(
        {
            "steps": steps,
            "cli_pipeline_s": sum(statistics.median(ts) for ts in p.pipelines.values()),
            "cli_verify_s": statistics.median(p.times["verify"]),
            "verdict_samples": len(p.times["verify"]),
            "cli.monitor_bounds_s": statistics.median(p.times["monitor_bounds"]),
            "cli.monitor_s": statistics.median(p.times["monitor"]),
            "monitor_rows_per_s": rows / secs,
            "monitor_first_row_s": statistics.median(p.first_rows),
        }
    )
    return p


def measure(run):
    data = inputs.make_cli(run.work, run.seed)
    p = run_rounds(run, data)
    if run.trace:
        return measure_traced(run, p)
    verify_s = p.times["verify"]
    return {
        "setup_s": run.setup_s(run.work),
        "verdict_ms.p50": statistics.median(verify_s) * 1e3,
        "verdict_ms.p90": percentile(verify_s, 90) * 1e3,
        "pass_s": run.report["cli_pipeline_s"],
        "throughput_per_s": run.report["monitor_rows_per_s"],
    }


def _replay(problems, monitor_args, tracer=None, kernel=None):
    """The two road verdicts and the monitor rows, in process."""
    from safecut import verify
    from safecut.monitor import monitor_stream

    verdicts = []
    for net, query in problems:
        if tracer is None:
            verdicts.append(verify(net, query, kernel=kernel))
        else:
            with tracer.span("verifier"):
                verdicts.append(verify(net, query, kernel=kernel))
    t0 = time.perf_counter()
    reports = [
        {"sample_id": r.sample_id, "contained": r.contained} for r in monitor_stream(*monitor_args)
    ]
    return verdicts, reports, time.perf_counter() - t0


def measure_traced(run, p):
    """Replay the road verdicts and the monitor rows in process, untraced then traced."""
    from safecut import kernels, load_network
    from safecut.bounds import load_bounds
    from safecut.milp import load_query

    tags = [t for t in ("well", "under") if t in p.expected]
    problems = [
        (load_network(os.path.join(run.work, f"net_{t}.json")),
         load_query(os.path.join(run.work, f"query_{t}.json")))
        for t in tags
    ]
    monitor_args = (
        load_network(os.path.join(run.work, "mon_net.json")),
        load_bounds(os.path.join(run.work, "mon_bounds.json")),
        p.data["mon_rows"],
    )
    t0 = time.perf_counter()
    _, _, monitor_s = _replay(problems, monitor_args)
    untraced = time.perf_counter() - t0
    tracer = tracing.Tracer()
    with tracing.traced_safecut(tracer):
        with tracer.span("bench"):
            verdicts, reports, _ = _replay(problems, monitor_args, tracer, tracer.kernel(kernels.run_phase))
    for t, v in zip(tags, verdicts):
        run.record(("verify_in_process", t), reference.verdict_failures(p.insts[t], p.expected[t], v.status, v.witness))
    alarms = record_rows(run, reports, p.data["mon_expected"], "monitor_stream_row")
    m = tracing.layer_metrics(run, tracer, verdicts, untraced)
    m["monitor.false_alarms"] = alarms
    m["cli.monitor_self_s"] = run.report["cli.monitor_s"] - monitor_s
    return m
