"""Big-M MILP encoding of the cut-layer safety verification problem.

Variables cover every neuron from the cut position through the suffix output
plus every neuron of the characterizer head (which consumes the same
cut-layer variables, giving the shared-neuron coupling).  ReLUs whose
pre-activation interval straddles zero get a binary indicator and the four
big-M rows; stable ReLUs are encoded exactly (y=x or y=0).  Interval bounds
come from propagating the cut-layer box only — the adjacent-difference
constraints join the LP as rows but never tighten the intervals.  The
result is one `LinearProgram`, checked once, which the verifier hands to
`solve_dense`.  Zero Dense weights and zero risk coefficients (a `-0.0` among
them) are skipped and so stay `+0.0` entries; BatchNorm scales are written as
given.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bounds import ActivationBounds, bounds_from_obj, load_bounds
from .characterizer import Characterizer, characterizer_from_obj, load_characterizer
from .errors import (
    ParseError,
    ShapeError,
    UnboundedBigMError,
    UnsupportedLayerError,
)
from .jsonio import integer, read_json
from .lp import REL_EQ, REL_GE, REL_LE, LinearProgram
from .network import BatchNorm, Dense, Network, Relu

_OPS = ("<=", ">=", "<", ">")
INTEGRALITY_TOL = 1e-6


@dataclass(frozen=True)
class RiskClause:
    coeffs: np.ndarray
    op: str
    rhs: float

    def __post_init__(self) -> None:
        v = np.asarray(self.coeffs, dtype=np.float64)
        if v.ndim != 1:
            raise ShapeError("risk clause coefficients must be a vector")
        if self.op not in _OPS:
            raise ParseError(f"risk op must be one of {_OPS}, got {self.op!r}")
        if not (np.isfinite(v).all() and np.isfinite(self.rhs)):
            raise ParseError("risk clause coefficients and rhs must be finite")
        object.__setattr__(self, "coeffs", v)
        object.__setattr__(self, "rhs", float(self.rhs))

    @property
    def strict(self) -> bool:
        return self.op in ("<", ">")

    @property
    def relaxed_rel(self) -> str:
        return "<=" if self.op in ("<=", "<") else ">="

    def holds_exact(self, output: np.ndarray) -> bool:
        lhs = float(np.dot(self.coeffs, output))
        if self.op == "<=":
            return lhs <= self.rhs
        if self.op == ">=":
            return lhs >= self.rhs
        if self.op == "<":
            return lhs < self.rhs
        return lhs > self.rhs

    def holds_relaxed(self, output: np.ndarray, tol: float) -> bool:
        """Strict ops treated as non-strict, slack `tol` on the comparison."""
        lhs = float(np.dot(self.coeffs, output))
        if self.op in ("<=", "<"):
            return lhs <= self.rhs + tol
        return lhs >= self.rhs - tol

    def on_boundary(self, output: np.ndarray, tol: float = 1e-9) -> bool:
        return abs(float(np.dot(self.coeffs, output)) - self.rhs) <= tol


@dataclass(frozen=True)
class RiskCondition:
    clauses: Tuple[RiskClause, ...]

    def __post_init__(self) -> None:
        clauses = tuple(self.clauses)
        if not clauses:
            raise ShapeError("risk condition needs at least one clause")
        dims = {c.coeffs.shape[0] for c in clauses}
        if len(dims) != 1:
            raise ShapeError("risk clauses have mismatched output dimensions")
        object.__setattr__(self, "clauses", clauses)

    @property
    def out_dim(self) -> int:
        return self.clauses[0].coeffs.shape[0]

    def holds_exact(self, output: np.ndarray) -> bool:
        return all(c.holds_exact(output) for c in self.clauses)

    def holds_relaxed(self, output: np.ndarray, tol: float) -> bool:
        return all(c.holds_relaxed(output, tol) for c in self.clauses)

    def boundary_clauses(self, output: np.ndarray, tol: float = 1e-9) -> List[int]:
        return [
            i for i, c in enumerate(self.clauses) if c.strict and c.on_boundary(output, tol)
        ]


@dataclass(frozen=True)
class SafetyQuery:
    cut_layer: int
    bounds: ActivationBounds
    characterizer: Characterizer
    risk: RiskCondition

    def __post_init__(self) -> None:
        if self.bounds.layer != self.cut_layer:
            raise ShapeError(
                f"bounds are for layer {self.bounds.layer}, query cuts at {self.cut_layer}"
            )
        if self.characterizer.in_dim != self.bounds.dim:
            raise ShapeError(
                f"characterizer consumes dim {self.characterizer.in_dim}, "
                f"cut layer has dim {self.bounds.dim}"
            )


@dataclass(frozen=True)
class ReluInfo:
    pre_col: int
    post_col: int
    binary_col: Optional[int]
    xlo: float
    xhi: float
    kind: str  # "split" | "pos" | "neg"


@dataclass(frozen=True)
class MilpProblem:
    lp: LinearProgram
    binaries: Tuple[int, ...]
    cut_cols: Tuple[int, ...]
    out_cols: Tuple[int, ...]
    logit_col: int
    diff_rows: Tuple[int, ...]
    relus: Tuple[ReluInfo, ...]


class _Builder:
    """Accumulates columns and rows, then scatters them into a LinearProgram.

    A row records only the coefficients it is given; every other entry of A
    stays +0.0, so a coefficient a caller skips as zero cannot carry a sign
    (a coefficient it passes, a -0.0 BatchNorm scale say, keeps its bits).
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.lo: List[float] = []
        self.hi: List[float] = []
        self.entries: List[Tuple[int, int, float]] = []  # (row, column, value)
        self.rels: List[int] = []
        self.rhs: List[float] = []

    def var(self, name: str, lo: float, hi: float) -> int:
        self.names.append(name)
        self.lo.append(lo)
        self.hi.append(hi)
        return len(self.names) - 1

    def row(self, coeffs: Dict[int, float], rel: int, rhs: float) -> int:
        i = len(self.rhs)
        self.entries.extend((i, j, v) for j, v in coeffs.items())
        self.rels.append(rel)
        self.rhs.append(rhs)
        return i

    def freeze(self) -> LinearProgram:
        n = len(self.names)
        A = np.zeros((len(self.rhs), n))
        rows, cols, vals = zip(*self.entries)
        A[rows, cols] = vals
        return LinearProgram(
            c=np.zeros(n),
            A=A,
            rels=np.array(self.rels, dtype=np.int8),
            b=np.array(self.rhs, dtype=np.float64),
            lo=np.array(self.lo, dtype=np.float64),
            hi=np.array(self.hi, dtype=np.float64),
            names=tuple(self.names),
        )


def _encode_layers(
    bld: _Builder,
    layers: Sequence,
    in_cols: List[int],
    in_lo: np.ndarray,
    in_hi: np.ndarray,
    prefix: str,
    binaries: List[int],
    relus: List[ReluInfo],
) -> List[int]:
    """Emit variables and rows for a Dense/Relu/BatchNorm stack; its output columns."""
    cols = list(in_cols)
    cur_lo, cur_hi = in_lo, in_hi
    for li, layer in enumerate(layers, start=1):
        if not isinstance(layer, (Dense, Relu, BatchNorm)):
            raise UnsupportedLayerError(
                f"cannot encode layer type {type(layer).__name__}"
            )
        out_lo, out_hi = layer.propagate(cur_lo, cur_hi)
        if isinstance(layer, Dense):
            new_cols = []
            for k in range(layer.out_dim):
                y = bld.var(f"{prefix}{li}_{k}", out_lo[k], out_hi[k])
                coeffs = {c: float(w) for c, w in zip(cols, layer.weights[k]) if w != 0.0}
                coeffs[y] = -1.0
                bld.row(coeffs, REL_EQ, -float(layer.bias[k]))
                new_cols.append(y)
            cols = new_cols
        elif isinstance(layer, BatchNorm):
            a, c0 = layer.affine()
            new_cols = []
            for k in range(layer.out_dim):
                y = bld.var(f"{prefix}{li}_{k}", out_lo[k], out_hi[k])
                bld.row({cols[k]: float(a[k]), y: -1.0}, REL_EQ, -float(c0[k]))
                new_cols.append(y)
            cols = new_cols
        elif isinstance(layer, Relu):
            new_cols = []
            for k in range(layer.out_dim):
                xlo, xhi = float(cur_lo[k]), float(cur_hi[k])
                x = cols[k]
                if xlo >= 0.0:
                    y = bld.var(f"{prefix}{li}_{k}", xlo, xhi)
                    bld.row({y: 1.0, x: -1.0}, REL_EQ, 0.0)
                    relus.append(ReluInfo(x, y, None, xlo, xhi, "pos"))
                elif xhi <= 0.0:
                    y = bld.var(f"{prefix}{li}_{k}", 0.0, 0.0)
                    relus.append(ReluInfo(x, y, None, xlo, xhi, "neg"))
                else:
                    if not (np.isfinite(xlo) and np.isfinite(xhi)):
                        raise UnboundedBigMError(
                            f"ReLU {prefix}{li}_{k} has unbounded pre-activation "
                            f"interval [{xlo}, {xhi}]"
                        )
                    y = bld.var(f"{prefix}{li}_{k}", 0.0, xhi)
                    a_col = bld.var(f"a{len(binaries)}", 0.0, 1.0)
                    binaries.append(a_col)
                    bld.row({y: 1.0, x: -1.0}, REL_GE, 0.0)  # y >= x (y >= 0 is a bound)
                    bld.row({y: 1.0, x: -1.0, a_col: -xlo}, REL_LE, -xlo)  # y <= x - xlo(1-a)
                    bld.row({y: 1.0, a_col: -xhi}, REL_LE, 0.0)  # y <= xhi*a
                    relus.append(ReluInfo(x, y, a_col, xlo, xhi, "split"))
                new_cols.append(y)
            cols = new_cols
        cur_lo, cur_hi = out_lo, out_hi
    return cols


def encode(net: Network, query: SafetyQuery) -> MilpProblem:
    """Build the feasibility MILP: bounds ∧ h=1 ∧ risk, over suffix + head."""
    l = query.cut_layer
    query.bounds.check_fits(net)
    d_l = query.bounds.dim
    d_out = net.dim_at(net.depth)
    if query.risk.out_dim != d_out:
        raise ShapeError(
            f"risk clauses have dim {query.risk.out_dim}, network outputs {d_out}"
        )

    bld = _Builder()
    binaries: List[int] = []
    relus: List[ReluInfo] = []
    box_lo = query.bounds.lo
    box_hi = query.bounds.hi

    # (a) cut-layer box as variable bounds
    cut_cols = [bld.var(f"n{j}", float(box_lo[j]), float(box_hi[j])) for j in range(d_l)]

    # (b) adjacent-difference rows
    diff_rows: List[int] = []
    if query.bounds.has_diffs:
        for j in range(d_l - 1):
            coeffs = {cut_cols[j + 1]: 1.0, cut_cols[j]: -1.0}
            diff_rows.append(bld.row(coeffs, REL_LE, float(query.bounds.diff_hi[j])))
            diff_rows.append(bld.row(coeffs, REL_GE, float(query.bounds.diff_lo[j])))

    # (c)+(d) suffix layers after the cut
    out_cols = _encode_layers(
        bld, net.layers[l:], cut_cols, box_lo, box_hi, "s", binaries, relus
    )

    # head shares the cut-layer variables only
    head_cols = _encode_layers(
        bld, query.characterizer.head.layers, cut_cols, box_lo, box_hi, "h",
        binaries, relus,
    )
    logit_col = head_cols[0]

    # (e) characterizer class-1: logit >= 0
    bld.row({logit_col: 1.0}, REL_GE, 0.0)

    # (f) risk clauses, strict relaxed to non-strict
    for clause in query.risk.clauses:
        coeffs = {
            col: float(v) for col, v in zip(out_cols, clause.coeffs) if v != 0.0
        }
        rel = REL_LE if clause.relaxed_rel == "<=" else REL_GE
        bld.row(coeffs, rel, clause.rhs)

    return MilpProblem(
        lp=bld.freeze(),
        binaries=tuple(binaries),
        cut_cols=tuple(cut_cols),
        out_cols=tuple(out_cols),
        logit_col=logit_col,
        diff_rows=tuple(diff_rows),
        relus=tuple(relus),
    )


# ---------------------------------------------------------------------------
# query file loading


def risk_from_obj(obj: list) -> RiskCondition:
    if not isinstance(obj, list) or not obj:
        raise ParseError("'risk' must be a nonempty list of clauses")
    clauses = []
    for i, c in enumerate(obj):
        try:
            clauses.append(
                RiskClause(
                    np.array(c["coeffs"], dtype=np.float64), str(c["op"]), float(c["rhs"])
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"risk clause {i}: {exc}") from None
    return RiskCondition(tuple(clauses))


def load_query(path: str) -> SafetyQuery:
    """Load a query JSON; path-valued fields resolve relative to the file."""
    base = os.path.dirname(os.path.abspath(path))

    def resolve(v):
        return v if os.path.isabs(v) else os.path.join(base, v)

    def decode(obj) -> SafetyQuery:
        if not isinstance(obj, dict):
            raise ParseError("query must be a JSON object")
        cut_layer = integer(obj, "cut_layer")
        bounds_field = obj["bounds"]
        char_field = obj["characterizer"]
        risk = risk_from_obj(obj["risk"])
        bounds = (
            bounds_from_obj(bounds_field)
            if isinstance(bounds_field, dict)
            else load_bounds(resolve(str(bounds_field)))
        )
        h = (
            characterizer_from_obj(char_field)
            if isinstance(char_field, dict)
            else load_characterizer(resolve(str(char_field)))
        )
        return SafetyQuery(cut_layer=cut_layer, bounds=bounds, characterizer=h, risk=risk)

    return read_json(path, decode)
