"""Branch-and-bound verification over ReLU indicator variables.

Each node relaxes the remaining binaries to [0,1] and solves the LP
feasibility problem (the dual phase 1 only — the query asks existence,
nothing is optimized).  Infeasible nodes prune; the outcome names the row of
the final basis that proves it (``LpOutcome.proof_row``): the kernel's own
dead row, which lp.py checks in floating point only.  A feasible point with
all binaries integral is replayed through the real network before being
believed.
Feasibility vertices like to sit exactly on the logit = 0 face, where the
replay's exact decide() can flip on a one-ulp recompute, so a leaf whose
candidate fails replay is re-solved once with a logit-maximizing objective
to pull the candidate into the interior of the phi region.  A leaf that
still produces no replayable point poisons any Safe conclusion: the final
verdict degrades to unknown instead (never discard-and-certify).
Exploration is one depth-first loop.  It branches on the unfixed binary
whose ReLU the node's LP point violates most, weighted by the width of its
pre-activation interval: ``(y - max(x, 0)) * (xhi - xlo)`` for pre-activation
x and output y (lowest index on ties), and takes the phase nearer the
binary's LP value first, so witnesses surface early; the node order, the
witness and every stat are deterministic.  The LP has no pre-activation
columns (milp.py); x comes from the encoder's affine map ``pre @ z + pre0``,
evaluated once per node at the LP point z.  A node's LP point is a phase-1
point that lp.py does not re-check: it only steers branching, and a witness
taken from it is replayed.  A node whose binaries are all fixed is a leaf
whatever its point says.  ``stats["max_depth"]`` is the
largest number of fixed binaries at any node solved.
The root LP is solved cold; every child, and the polish re-solve of a leaf,
starts from the final simplex basis of the node it came from (lp.py's warm
start), so the dual phase repairs the fixed binary in a few pivots.  A warm solve that
breaks down numerically is retried once cold before the node is given up;
only a cold breakdown degrades the verdict.

Verdicts: safe — the tree was exhausted; unsafe — a replayed witness exists;
unknown — the node/time budget ran out or an LP broke down numerically
(an unsound prune must never masquerade as a safety proof).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .characterizer import decide
from .errors import NumericalBreakdownError
from .lp import INFEASIBLE, OPTIMAL, LinearProgram, LpOutcome, solve_dense
from .milp import INTEGRALITY_TOL, MilpProblem, SafetyQuery, encode
from .monitor import check_containment
from .network import Network, forward

SAFE = "safe"
UNSAFE = "unsafe"
UNKNOWN = "unknown"

WITNESS_TOL = 1e-6

# (lo, hi, start): a node's column bounds and the final LP state of its
# parent (None at the root); the state is shared by both children and only
# copied when one of them is solved
Node = Tuple[np.ndarray, np.ndarray, Optional[tuple]]


@dataclass(frozen=True)
class Budget:
    max_nodes: int = 200_000
    max_seconds: float = float("inf")


@dataclass
class Verdict:
    status: str
    conditional: bool
    witness: Optional[np.ndarray] = None
    witness_output: Optional[np.ndarray] = None
    stats: dict = field(default_factory=dict)
    warnings: List[str] = field(default_factory=list)


def replay_witness(
    net: Network, query: SafetyQuery, witness, tol: float = WITNESS_TOL
) -> dict:
    """Recompute the three membership facts independently of the solver.

    ``in_bounds`` is the monitor's own exact `check_containment` on the
    query's bounds padded by `tol`, box and difference bounds alike; a pad
    that overflows is the infinity on its own side.  A witness of the wrong
    shape raises ShapeError and a negative `tol` ValueError.
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    b = query.bounds
    with np.errstate(over="ignore"):
        padded = dataclasses.replace(
            b, lo=b.lo - tol, hi=b.hi + tol,
            diff_lo=b.diff_lo - tol if b.has_diffs else None,
            diff_hi=b.diff_hi + tol if b.has_diffs else None,
        )
    w = np.asarray(witness, dtype=np.float64)
    output = forward(net, w, query.cut_layer, net.depth)
    return {
        "in_bounds": check_containment(padded, w),
        "characterizer": decide(query.characterizer, w),
        "risk_satisfied": query.risk.holds_relaxed(output, tol),
        "output": output,
    }


def _pick_branch(
    x: np.ndarray, P: np.ndarray, p0: np.ndarray, post: np.ndarray, width: np.ndarray,
    fixed: np.ndarray,
) -> int:
    """Unfixed binary whose ReLU the LP point `x` violates most, by width.

    Binary j's ReLU has pre-activation ``(P @ x + p0)[j]`` and output
    ``x[post[j]]``; its score is the output's excess over the ReLU of the
    pre-activation, times the width of the pre-activation interval
    (BaBSR-style, Bunel et al., JMLR 2020).  The lowest index breaks ties;
    an all-zero score still returns an unfixed binary.
    """
    score = (x[post] - np.maximum(P @ x + p0, 0.0)) * width
    score[fixed] = -np.inf
    return int(score.argmax())


class _Search:
    """State of one depth-first search: the LP, the counters and the witness."""

    def __init__(self, net, query, prob: MilpProblem, budget: Budget, kernel):
        self.net = net
        self.query = query
        self.prob = prob
        self.budget = budget
        self.kernel = kernel
        self.polish_lp: Optional[LinearProgram] = None  # built on first use
        self.bin_cols = np.array(prob.binaries, dtype=np.int64)
        split = [i for i, r in enumerate(prob.relus) if r.binary_col is not None]
        infos = [prob.relus[i] for i in split]
        assert tuple(r.binary_col for r in infos) == prob.binaries
        self.pre, self.pre0 = prob.pre[split], prob.pre0[split]
        self.post_cols = np.array([r.post_col for r in infos], dtype=np.int64)
        self.widths = np.array([r.xhi - r.xlo for r in infos], dtype=np.float64)
        self.cut_dim = len(prob.cut_cols)
        self.t0 = time.monotonic()
        self.nodes = 0
        self.max_depth = 0
        self.lp_solves = 0
        self.pivots = 0
        self.warnings: List[str] = []
        self.witness: Optional[np.ndarray] = None
        self.witness_output: Optional[np.ndarray] = None
        self.exhausted_budget = False
        self.breakdown = False
        self.incomplete = False  # a feasible leaf yielded no replayable witness

    def out_of_budget(self) -> bool:
        return (
            self.nodes >= self.budget.max_nodes
            or time.monotonic() - self.t0 > self.budget.max_seconds
        )

    def _solve(self, lp: LinearProgram, lo: np.ndarray, hi: np.ndarray, start) -> LpOutcome:
        """One LP solve, warm from `start` when given; a warm breakdown is
        retried cold once (counted as one more LP solve), a cold one raises."""
        out = None
        if start is not None:
            try:
                out = solve_dense(lp, lo, hi, kernel=self.kernel, start=start)
            except NumericalBreakdownError:
                self.lp_solves += 1
        if out is None:
            out = solve_dense(lp, lo, hi, kernel=self.kernel)
        self.pivots += out.pivots
        return out

    def process(self, lo: np.ndarray, hi: np.ndarray, start) -> List[Node]:
        """Solve one node; returns child nodes (near phase last = popped first)."""
        self.nodes += 1
        self.lp_solves += 1
        bin_cols = self.bin_cols
        fixed = lo[bin_cols] == hi[bin_cols]
        depth = int(np.count_nonzero(fixed))
        self.max_depth = max(self.max_depth, depth)
        try:
            out = self._solve(self.prob.lp, lo, hi, start)
        except NumericalBreakdownError as exc:
            self.breakdown = True
            self.warnings.append(f"lp breakdown, node discarded: {exc}")
            return []
        if out.status == INFEASIBLE:
            return []
        x = out.point
        vals = x[bin_cols]
        all_fixed = depth == fixed.shape[0]

        if all_fixed or (np.abs(vals - np.round(vals)) <= INTEGRALITY_TOL).all():
            w, rep, ok = self._try_witness(x[: self.cut_dim])
            if not ok and all_fixed:
                for cand in self._polish_candidates(x, lo, hi, out.state):
                    w, rep, ok = self._try_witness(cand)
                    if ok:
                        break
            if ok:
                self.witness = w
                self.witness_output = rep["output"]
                return []
            if all_fixed:
                self.incomplete = True
                self.warnings.append(
                    "unreplayable-leaf: feasible leaf produced no "
                    "replayable witness; Safe cannot be certified"
                )
                return []
            # integral by luck but not yet fixed — keep branching

        j = _pick_branch(x, self.pre, self.pre0, self.post_cols, self.widths, fixed)
        near = 1.0 if vals.item(j) > 0.5 else 0.0
        col = bin_cols.item(j)
        children = []
        for phase in (1.0 - near, near):  # near pushed last, popped first
            clo, chi = lo.copy(), hi.copy()
            clo[col] = phase
            chi[col] = phase
            children.append((clo, chi, out.state))
        return children

    def _try_witness(self, cand: np.ndarray):
        w = np.clip(cand, self.query.bounds.lo, self.query.bounds.hi)
        rep = replay_witness(self.net, self.query, w)
        ok = rep["in_bounds"] and rep["characterizer"] == 1 and rep["risk_satisfied"]
        return w, rep, ok

    def _polish_candidates(self, x: np.ndarray, lo: np.ndarray, hi: np.ndarray, start):
        """Fallback witness candidates for an all-fixed leaf that failed replay.

        The zero-objective solve lands on an arbitrary vertex, frequently on
        the logit = 0 face where replay's exact decide() is one rounding away
        from rejecting a genuine witness.  Two remedies, tried in order:
        decimal-snapping the candidate to 12, 9 and 6 digits (simplex
        eliminations leave ~1e-15 dirt on coordinates that are really short
        rationals), and re-solving the leaf with a logit-maximizing
        objective to move the candidate as deep into the phi region as the
        leaf allows; it starts from the leaf's own final basis (`start`), so
        it runs phase 2 only.  The polished point is tried as it is: it has
        the largest logit the leaf allows, and snapping it moves it away
        from that optimum.
        """
        for digits in (12, 9, 6):
            yield np.round(x[: self.cut_dim], digits)
        self.lp_solves += 1
        if self.polish_lp is None:  # minimize -logit
            self.polish_lp = dataclasses.replace(self.prob.lp, c=-self.prob.logit)
        try:
            out = self._solve(self.polish_lp, lo, hi, start)
        except NumericalBreakdownError as exc:
            self.breakdown = True
            self.warnings.append(f"lp breakdown during witness polish: {exc}")
            return
        if out.status != OPTIMAL:
            return
        yield out.point[: self.cut_dim]

    def run(self) -> None:
        """Depth-first until the tree closes, a witness replays or the budget ends."""
        stack = [(self.prob.lp.lo.copy(), self.prob.lp.hi.copy(), None)]
        while stack:
            if self.witness is not None:
                return
            if self.out_of_budget():
                self.exhausted_budget = True
                return
            stack.extend(self.process(*stack.pop()))


def verify(
    net: Network,
    query: SafetyQuery,
    budget: Budget = Budget(),
    kernel=None,
) -> Verdict:
    """Decide the safety query; see module docstring for semantics."""
    prob = encode(net, query)
    search = _Search(net, query, prob, budget, kernel)
    search.run()

    wall = time.monotonic() - search.t0
    stats = {
        "nodes_explored": search.nodes,
        "lp_solves": search.lp_solves,
        "pivots": search.pivots,
        "max_depth": search.max_depth,
        "wall_time": wall,
    }
    warnings = search.warnings
    if search.witness is not None:
        status = UNSAFE
        boundary = query.risk.boundary_clauses(search.witness_output)
        if boundary:
            warnings.append(
                "boundary_witness: witness sits exactly on the boundary of "
                f"strict clause(s) {boundary}"
            )
    elif search.exhausted_budget:
        status = UNKNOWN
        warnings.append("budget exhausted before the tree was closed")
    elif search.breakdown or search.incomplete:
        status = UNKNOWN
        warnings.append(
            "search tree incomplete (numerical breakdown or unreplayable "
            "leaf); cannot certify"
        )
    else:
        status = SAFE
    return Verdict(
        status=status,
        conditional=query.bounds.provenance == "dataset",
        witness=search.witness,
        witness_output=search.witness_output,
        stats=stats,
        warnings=warnings,
    )
