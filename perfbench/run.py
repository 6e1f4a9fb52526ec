"""safecut benchmark: time to verdict, CLI pipeline and monitor, all checked.

    python3 perfbench/run.py --workload {sweep|deep|cli} --seed N --seconds S --trace {0|1}

Run it from the root of a safecut checkout.  The package is imported from
./src as it stands; there is no build step, so the NumPy simplex kernel is
used unless the compiled one has been built in place (the kernel name is
recorded in every result).  Inputs are generated from the seed; every
verdict, exit code and monitor row is checked against references computed
here (reference.py) outside the timed region.  The last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, and with --trace 1 the per-layer split
from a separate traced run (tracing.py).  The lines before it list every
metric by name and unit, the error rate and the provenance.

`attempted` counts the distinct operations of the workload's fixed job
(one query, one CLI stage of one regressor, one monitor row), and `failed`
those that went wrong at least once in the run: a verdict that is unknown
or disagrees with the reference, a witness that fails replay, an
unexpected exit code or output, a monitor row answered wrongly.  Every
repetition is checked, but a repetition counts under the operation it
repeats, so both numbers depend on the seed and not on how many passes
fit in --seconds.  `correct` is false when any failure claims something
untrue; an unknown verdict and a monitor false alarm (a row inside the
envelope reported outside) are conservative, so they count as failed
without making the run incorrect.

Workloads:

  deep   a pinned suite of hard safe proofs in process; the kernel dominates
  cli    the road pipeline and `safecut monitor` as subprocesses
  sweep  many small mixed queries in process; per-query overhead dominates

BENCHMARK.json lists deep and cli, each run for 55 s.  sweep runs the same
way but is not listed: on a small shared machine every workload's times
vary from run to run by up to a quarter, runs must be long to average that
out, and three workloads of 55 s do not fit the time the whole benchmark
may take.

End-to-end metrics are reported on every workload, with the meaning the
workload gives them:

  setup_s           a fresh interpreter imports safecut and loads the
                    workload's inputs (median of several)
  verdict_ms.p50    median time to one verdict: verify() in process on sweep
                    and deep; a `safecut verify` process, start to verdict
                    file, on cli (cli_verify_s)
  verdict_ms.p90    90th percentile (nearest rank) of the same samples
  pass_s            one pass over the workload's fixed job: every sweep
                    query once; every deep tree closed (proof_s); the road
                    pipeline of both regressors on cli (cli_pipeline_s)
  throughput_per_s  verdicts/s on sweep, proofs/s on deep, and on cli the
                    steady rate of `safecut monitor`: report lines over
                    first-to-last-line time, summed over every stream of
                    the run (monitor_rows_per_s)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import cliwork
import inproc

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
PROC_TIMEOUT = 150

END_TO_END = {
    "setup_s": "s",
    "verdict_ms.p50": "ms",
    "verdict_ms.p90": "ms",
    "pass_s": "s",
    "throughput_per_s": "1/s",
}

# Per-layer metrics every workload produces.  Times of layers that a
# workload never enters (the monitor, witness replay and the CLI stages on
# deep) are printed in the report lines but not here.
PER_LAYER = {
    "kernels.run_phase_s": "s",
    "kernels.calls": "count",
    "kernels.pivots": "count",
    "kernels.pivots_per_solve": "count",
    "lp.solve_s": "s",
    "lp.solves": "count",
    "lp.self_s": "s",
    "milp.encode_s": "s",
    "milp.rows": "count",
    "milp.cols": "count",
    "milp.unstable_relus": "count",
    "milp.unstable_relus.suffix1": "count",
    "milp.unstable_relus.suffix2": "count",
    "intervals.mean_width.suffix1": "1",
    "intervals.mean_width.suffix2": "1",
    "verifier.nodes": "count",
    "verifier.nodes_per_s": "1/s",
    "verifier.lp_solves": "count",
    "verifier.polish_solves": "count",
    "verifier.replays": "count",
    "verifier.witness_yield": "fraction",
    "verifier.self_s": "s",
    "network.forward_calls": "count",
    "monitor.rows": "count",
    "monitor.false_alarms": "count",
    "cli.import_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead": "fraction",
}


def unit_of(name):
    """Unit of a report-only metric, read off its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "fraction" if name == "error_rate" else ""


class Run:
    """One benchmark run: its settings, operation counts and report."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.join(ROOT, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
        self.ops = {}  # operation key -> whether any repetition of it failed
        self.wrong = False  # some answer claimed something untrue
        self.failures = []  # (kind, detail) of the first failure of each operation
        self.report = {}  # name -> value, printed before the result line
        self.env = dict(os.environ)
        prior = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = SRC + (os.pathsep + prior if prior else "")

    def record(self, key, failures):
        """Check one run of the operation `key`; repeats count under the same key."""
        if failures and not self.ops.get(key):
            self.failures.extend(failures)
        self.ops[key] = self.ops.get(key, False) or bool(failures)
        self.wrong = self.wrong or any(kind == "wrong" for kind, _ in failures)

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed(self):
        return sum(self.ops.values())

    def process(self, argv, cwd=None):
        """Run a process to completion; returns (wall seconds, CompletedProcess)."""
        t0 = time.perf_counter()
        proc = subprocess.run(
            argv, cwd=cwd or self.work, env=self.env, capture_output=True, text=True,
            timeout=PROC_TIMEOUT,
        )
        return time.perf_counter() - t0, proc

    def safecut(self, *argv):
        return self.process([sys.executable, "-m", "safecut.cli", *[str(a) for a in argv]])

    def fresh_interpreter_s(self, argv, repeats):
        """Median wall time of `repeats` fresh interpreters running argv."""
        times = []
        for _ in range(repeats):
            dt, proc = self.process([sys.executable, *argv], cwd=ROOT)
            if proc.returncode != 0:
                raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr.strip()}")
            times.append(dt)
        return statistics.median(times)

    def setup_s(self, inputs_dir):
        return self.fresh_interpreter_s(
            [os.path.join(HERE, "probe.py"), self.workload, inputs_dir], SETUP_REPEATS
        )

    def import_s(self):
        return self.fresh_interpreter_s(["-c", "import safecut.cli"], IMPORT_REPEATS)


def provenance(run):
    import numpy
    import scipy
    from safecut import kernels

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "safecut")
    for name in sorted(os.listdir(pkg)):
        path = os.path.join(pkg, name)
        if os.path.isfile(path):
            digest.update(name.encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "kernel": kernels.KERNEL_NAME,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
    }


def emit(run, metrics, units):
    error_rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"perfbench workload={run.workload} seed={run.seed} trace={run.trace}")
    shown = dict(run.report)
    shown.update(metrics)
    shown["error_rate"] = error_rate
    for name in sorted(shown):
        value = shown[name]
        unit = units.get(name) or unit_of(name)
        print(f"  {name:34s} {value!r} {unit}".rstrip())
    print(f"  attempted={run.attempted} failed={run.failed}")
    for kind, detail in run.failures[:20]:
        print(f"  failure[{kind}]: {detail}")
    print("provenance " + json.dumps(provenance(run), sort_keys=True))
    result = {
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result, sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "deep", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "safecut", "__init__.py")):
        print("perfbench: ./src/safecut not found; run from the root of a safecut checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    run = Run(args.workload, args.seed, args.seconds, args.trace)
    os.makedirs(run.work)
    try:
        metrics = (cliwork if run.workload == "cli" else inproc).measure(run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run.work))
        except OSError:
            pass  # another run still uses it
    emit(run, metrics, PER_LAYER if run.trace else END_TO_END)
    return 0


if __name__ == "__main__":
    sys.exit(main())
