"""Independent correctness reference for verdicts and monitor rows.

Verdicts are judged against ``scipy.optimize.milp`` (HiGHS) on a big-M model
built here from the weights and the envelope, with interval bounds computed
here too, so an encoder change inside safecut is checked by code it does not
touch.  Witnesses are replayed with the benchmark's own forward pass.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from inputs import forward

WITNESS_TOL = 1e-6


class _Model:
    def __init__(self):
        self.lb, self.ub, self.integ, self.rows = [], [], [], []

    def var(self, lo, hi, integer=False):
        self.lb.append(float(lo))
        self.ub.append(float(hi))
        self.integ.append(1 if integer else 0)
        return len(self.lb) - 1

    def row(self, coeffs, lo, hi):
        self.rows.append((coeffs, lo, hi))

    def stack(self, layers, cols, lo, hi):
        """Big-M rows for a dense/ReLU stack; returns the output columns."""
        for layer in layers:
            if layer[0] == "dense":
                W, b = layer[1], layer[2]
                wp, wn = np.maximum(W, 0.0), np.minimum(W, 0.0)
                lo, hi = wp @ lo + wn @ hi + b, wp @ hi + wn @ lo + b
                new = []
                for k in range(W.shape[0]):
                    z = self.var(-np.inf, np.inf)
                    coeffs = {c: float(w) for c, w in zip(cols, W[k]) if w != 0.0}
                    coeffs[z] = -1.0
                    self.row(coeffs, -b[k], -b[k])
                    new.append(z)
                cols = new
                continue
            new = []
            for k, z in enumerate(cols):
                if lo[k] >= 0.0:
                    new.append(z)
                elif hi[k] <= 0.0:
                    new.append(self.var(0.0, 0.0))
                else:
                    y = self.var(0.0, hi[k])
                    a = self.var(0.0, 1.0, integer=True)
                    self.row({y: 1.0, z: -1.0}, 0.0, np.inf)  # y >= z
                    self.row({y: 1.0, z: -1.0, a: -lo[k]}, -np.inf, -lo[k])  # y <= z - lo(1-a)
                    self.row({y: 1.0, a: -hi[k]}, -np.inf, 0.0)  # y <= hi a
                    new.append(y)
            cols = new
            lo, hi = np.maximum(lo, 0.0), np.maximum(hi, 0.0)
        return cols

    def solve(self, objective=None):
        n = len(self.lb)
        A = np.zeros((len(self.rows), n))
        for i, (coeffs, _, _) in enumerate(self.rows):
            for j, v in coeffs.items():
                A[i, j] += v
        c = np.zeros(n)
        if objective is not None:
            for j, v in objective.items():
                c[j] += v
        return milp(
            c,
            constraints=LinearConstraint(A, [r[1] for r in self.rows], [r[2] for r in self.rows]),
            integrality=np.array(self.integ),
            bounds=Bounds(self.lb, self.ub),
            options={"mip_rel_gap": 0.0},
        )


def _model(inst, with_risk=True):
    """Cut box, diff rows, suffix, head logit >= 0 and (relaxed) risk rows."""
    env = inst["env"]
    m = _Model()
    cut = [m.var(l, h) for l, h in zip(env["lo"], env["hi"])]
    if env["diff_lo"] is not None:
        for j in range(len(cut) - 1):
            m.row({cut[j + 1]: 1.0, cut[j]: -1.0}, env["diff_lo"][j], env["diff_hi"][j])
    lo, hi = np.asarray(env["lo"], dtype=np.float64), np.asarray(env["hi"], dtype=np.float64)
    out = m.stack(inst["net"][inst["cut"]:], cut, lo, hi)
    (logit,) = m.stack(inst["head"], cut, lo, hi)
    m.row({logit: 1.0}, 0.0, np.inf)
    if with_risk:
        for coeffs, op, rhs in inst["risk"]:
            row = {o: float(v) for o, v in zip(out, coeffs) if v != 0.0}
            if op in ("<=", "<"):
                m.row(row, -np.inf, rhs)
            else:
                m.row(row, rhs, np.inf)
    return m, out


def reference_verdict(inst):
    """("safe" | "unsafe", HiGHS seconds): safe exactly when the model is infeasible."""
    m, _ = _model(inst)
    t0 = time.perf_counter()
    res = m.solve()
    secs = time.perf_counter() - t0
    if res.status == 2:
        return "safe", secs
    if res.status == 0:
        return "unsafe", secs
    raise RuntimeError(f"reference solve did not finish: {res.message}")


def reference_max(inst, coeffs):
    """Maximum of coeffs . output over the envelope where the head accepts."""
    m, out = _model(inst, with_risk=False)
    res = m.solve({o: -float(v) for o, v in zip(out, coeffs)})
    if res.status != 0:
        raise RuntimeError(f"reference maximisation failed: {res.message}")
    return -float(res.fun)


# ---------------------------------------------------------------------------
# checks: each returns a list of (kind, detail) failures, empty when correct.
# kind "wrong" claims something false; "unknown" and "false_alarm" are
# conservative answers that count against the error rate but claim nothing
# untrue.


def witness_failures(inst, witness):
    """Replay a witness: in the envelope, head logit >= 0, risk within tolerance."""
    env = inst["env"]
    w = np.asarray(witness, dtype=np.float64)
    if w.shape != (len(env["lo"]),) or not np.isfinite(w).all():
        return [("wrong", f"witness has shape {w.shape} or non-finite entries")]
    bad = []
    if (w < env["lo"] - WITNESS_TOL).any() or (w > env["hi"] + WITNESS_TOL).any():
        bad.append(("wrong", "witness outside the envelope box"))
    if env["diff_lo"] is not None:
        d = np.diff(w)
        if (d < env["diff_lo"] - WITNESS_TOL).any() or (d > env["diff_hi"] + WITNESS_TOL).any():
            bad.append(("wrong", "witness outside the envelope differences"))
    if forward(inst["head"], w)[0] < 0.0:
        bad.append(("wrong", "head rejects the witness"))
    out = forward(inst["net"][inst["cut"]:], w)
    for coeffs, op, rhs in inst["risk"]:
        lhs = float(np.dot(coeffs, out))
        if (op in ("<=", "<") and lhs > rhs + WITNESS_TOL) or (
            op in (">=", ">") and lhs < rhs - WITNESS_TOL
        ):
            bad.append(("wrong", f"witness output misses risk clause {op} {rhs}"))
    return bad


def verdict_failures(inst, expected, status, witness):
    """Failures of one verdict against the reference status."""
    if status == "unknown":
        return [("unknown", f"verdict unknown, reference says {expected}")]
    if status != expected:
        return [("wrong", f"verdict {status}, reference says {expected}")]
    if status == "unsafe":
        return witness_failures(inst, witness)
    return []


def monitor_failures(reports, expected):
    """Failures per expected row (a list each) from the monitor's reports."""
    out = []
    for i, want in enumerate(expected):
        rep = reports[i] if i < len(reports) else None
        if rep is None or rep.get("sample_id") != str(i) or "contained" not in rep:
            out.append([("wrong", f"row {i}: missing or malformed report {rep}")])
        elif rep["contained"] == bool(want):
            out.append([])
        elif want:
            out.append([("false_alarm", f"row {i} flagged though inside the envelope")])
        else:
            out.append([("wrong", f"row {i}: violation missed")])
    if len(reports) > len(expected):
        out.append([("wrong", f"{len(reports) - len(expected)} reports beyond the last row")])
    return out
