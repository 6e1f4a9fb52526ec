"""Big-M MILP encoding of the cut-layer safety verification problem.

The LP covers the suffix from the cut position through the output and the
characterizer head, which consumes the same cut-layer columns (the
shared-neuron coupling).  ReLUs whose pre-activation interval straddles
zero get a binary indicator and three big-M rows; stable ReLUs are encoded
exactly (y = x, or y pinned to [0, 0]).  Interval bounds come from
propagating the cut-layer box only; the adjacent-difference constraints
join the LP as rows but never tighten the intervals.

Columns are kept only for the cut activations, every ReLU output (named
``<s|h><layer>_<neuron>``; a stable-inactive one is a [0, 0] column), the
binaries, and a Dense or BatchNorm output that some row cannot take as a
substitution.  Such an output is first an affine map of kept columns, its
copied weights and bias.  A row that holds it with coefficient +-1 and none
of its columns yet (the split-ReLU rows, a stable ReLU's y = x row, the
``logit >= 0`` row, a +-1 risk term) takes the map's coefficients in its
place and moves the bias into its rhs, so every entry of A is still a
weight, a BatchNorm scale, +-1, a big-M constant or a risk coefficient.
An inexact rhs shift (``bias - xlo`` say) is rounded outward for an
inequality, which only loosens it; anywhere else the output gets its column
and its defining equality, as before: a Dense input (composing weights
would round), a BatchNorm input, a risk coefficient other than +-1.  The
maps stay in the `MilpProblem` (``pre`` for the ReLUs, ``logit`` for the
head) for branching and the witness polish.  The result is one
`LinearProgram`, checked once, which the verifier hands to `solve_dense`.
Zero weights, scales and risk coefficients (a ``-0.0`` among them) are
skipped and so stay ``+0.0`` entries.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

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

    def check_fits(self, net: Network) -> None:
        """ShapeError unless `net` has `out_dim` outputs."""
        d_out = net.dim_at(net.depth)
        if self.out_dim != d_out:
            raise ShapeError(f"risk clauses have dim {self.out_dim}, network outputs {d_out}")

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
    post_col: int
    binary_col: Optional[int]
    xlo: float
    xhi: float
    kind: str  # "split" | "pos" | "neg"


@dataclass(frozen=True)
class MilpProblem:
    """The LP with the maps from its columns back to the network.

    Row i of ``pre @ x + pre0`` is the pre-activation of ``relus[i]`` at the
    LP point x, and ``logit @ x + logit0`` the head's logit.
    """

    lp: LinearProgram
    binaries: Tuple[int, ...]
    cut_cols: Tuple[int, ...]
    diff_rows: Tuple[int, ...]
    relus: Tuple[ReluInfo, ...]
    pre: np.ndarray
    pre0: np.ndarray
    logit: np.ndarray
    logit0: float


@dataclass
class _Affine:
    """A Dense or BatchNorm output not (yet) given a column: the sum of
    ``terms`` (column -> copied weight) and ``const`` (the copied bias)."""

    terms: Dict[int, float]
    const: float
    name: str
    lo: float
    hi: float
    col: Optional[int] = None  # its column, once a row needs one


Value = Union[int, _Affine]  # a column, or an affine map of columns


def _shift(rhs: float, t: float, rel: int) -> Optional[float]:
    """``rhs - t`` for a row with relation `rel`: exact, or rounded outward
    (up for <=, down for >=) when the difference is inexact, which only
    loosens the row; None for an inexact equality or an overflow."""
    s = rhs - t
    if not np.isfinite(s):
        return None
    sb = s - rhs  # TwoSum: err is the exact rhs - t - s
    err = (rhs - (s - sb)) + (-t - sb)
    if err == 0.0:
        return s
    if rel == REL_EQ:
        return None
    if rel == REL_LE:
        return float(np.nextafter(s, np.inf)) if err > 0.0 else s
    return float(np.nextafter(s, -np.inf)) if err < 0.0 else s


class _Builder:
    """Accumulates columns and rows, then scatters them into a LinearProgram.

    A row records only the coefficients it is given; every other entry of A
    stays +0.0, and zero weights are never given, so no entry carries a
    sign bit.
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

    def column(self, v: Value) -> int:
        """The column of `v`, made with its defining row on first request."""
        if isinstance(v, int):
            return v
        if v.col is None:
            v.col = self.var(v.name, v.lo, v.hi)
            self.row({**v.terms, v.col: -1.0}, REL_EQ, -v.const)
        return v.col

    def use(self, coeffs: Dict[int, float], v: Value, s: float, rel: int, rhs: float) -> float:
        """Add ``s * v`` to a row's `coeffs`; returns the row's rhs.

        An affine `v` is substituted where that copies its coefficients (s is
        +-1 and the row holds none of its columns yet) and the rhs shift is
        exact or, for an inequality, rounded outward; otherwise `v` gets its
        column.
        """
        copies = abs(s) == 1.0 and isinstance(v, _Affine) and v.col is None
        if copies and not coeffs.keys() & v.terms.keys():
            shifted = _shift(rhs, s * v.const, rel)
            if shifted is not None:
                coeffs.update((j, s * w) for j, w in v.terms.items())
                return shifted
        coeffs[self.column(v)] = s
        return rhs

    def freeze(self) -> LinearProgram:
        n = len(self.names)
        A = np.zeros((len(self.rhs), n))
        if self.entries:
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
    inputs: List[Value],
    in_lo: np.ndarray,
    in_hi: np.ndarray,
    prefix: str,
    binaries: List[int],
    relus: List[Tuple[ReluInfo, Value]],
) -> List[Value]:
    """Emit columns and rows for a Dense/Relu/BatchNorm stack; its outputs.

    Appends each ReLU with its input value to `relus`.
    """
    vals = list(inputs)
    cur_lo, cur_hi = in_lo, in_hi
    for li, layer in enumerate(layers, start=1):
        if not isinstance(layer, (Dense, Relu, BatchNorm)):
            raise UnsupportedLayerError(
                f"cannot encode layer type {type(layer).__name__}"
            )
        out_lo, out_hi = layer.propagate(cur_lo, cur_hi)
        if isinstance(layer, Dense):
            cols = [bld.column(v) for v in vals]  # composing weights would round
            vals = [
                _Affine({c: float(w) for c, w in zip(cols, layer.weights[k]) if w != 0.0},
                        float(layer.bias[k]), f"{prefix}{li}_{k}", out_lo[k], out_hi[k])
                for k in range(layer.out_dim)
            ]
        elif isinstance(layer, BatchNorm):
            a, c0 = layer.affine()
            vals = [
                _Affine({bld.column(v): float(a[k])} if a[k] != 0.0 else {},
                        float(c0[k]), f"{prefix}{li}_{k}", out_lo[k], out_hi[k])
                for k, v in enumerate(vals)
            ]
        elif isinstance(layer, Relu):
            new_vals = []
            for k, x in enumerate(vals):
                xlo, xhi = float(cur_lo[k]), float(cur_hi[k])
                name = f"{prefix}{li}_{k}"
                if xlo >= 0.0:
                    y = bld.var(name, xlo, xhi)
                    coeffs = {y: 1.0}  # y = x
                    rhs = bld.use(coeffs, x, -1.0, REL_EQ, 0.0)
                    bld.row(coeffs, REL_EQ, rhs)
                    info = ReluInfo(y, None, xlo, xhi, "pos")
                elif xhi <= 0.0:
                    y = bld.var(name, 0.0, 0.0)
                    info = ReluInfo(y, None, xlo, xhi, "neg")
                else:
                    if not (np.isfinite(xlo) and np.isfinite(xhi)):
                        raise UnboundedBigMError(
                            f"ReLU {name} has unbounded pre-activation "
                            f"interval [{xlo}, {xhi}]"
                        )
                    y = bld.var(name, 0.0, xhi)
                    a_col = bld.var(f"a{len(binaries)}", 0.0, 1.0)
                    binaries.append(a_col)
                    coeffs = {y: 1.0}  # y >= x (y >= 0 is a bound)
                    rhs = bld.use(coeffs, x, -1.0, REL_GE, 0.0)
                    bld.row(coeffs, REL_GE, rhs)
                    coeffs = {y: 1.0}  # y <= x - xlo(1-a)
                    rhs = bld.use(coeffs, x, -1.0, REL_LE, -xlo)
                    coeffs[a_col] = -xlo
                    bld.row(coeffs, REL_LE, rhs)
                    bld.row({y: 1.0, a_col: -xhi}, REL_LE, 0.0)  # y <= xhi*a
                    info = ReluInfo(y, a_col, xlo, xhi, "split")
                relus.append((info, x))
                new_vals.append(y)
            vals = new_vals
        cur_lo, cur_hi = out_lo, out_hi
    return vals


def _affine_rows(values: Sequence[Value], n: int) -> Tuple[np.ndarray, np.ndarray]:
    """(M, m0) with ``M @ x + m0`` the values at an LP point x of n columns."""
    M = np.zeros((len(values), n))
    m0 = np.zeros(len(values))
    for i, v in enumerate(values):
        if isinstance(v, int) or v.col is not None:
            M[i, v if isinstance(v, int) else v.col] = 1.0
        else:
            M[i, list(v.terms)] = list(v.terms.values())
            m0[i] = v.const
    M.setflags(write=False)
    m0.setflags(write=False)
    return M, m0


def encode(net: Network, query: SafetyQuery) -> MilpProblem:
    """Build the feasibility MILP: bounds ∧ h=1 ∧ risk, over suffix + head."""
    l = query.cut_layer
    query.bounds.check_fits(net)
    d_l = query.bounds.dim
    query.risk.check_fits(net)

    bld = _Builder()
    binaries: List[int] = []
    relus: List[Tuple[ReluInfo, Value]] = []
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
    outs = _encode_layers(
        bld, net.layers[l:], cut_cols, box_lo, box_hi, "s", binaries, relus
    )

    # head shares the cut-layer variables only
    logit = _encode_layers(
        bld, query.characterizer.head.layers, cut_cols, box_lo, box_hi, "h",
        binaries, relus,
    )[0]

    # (e) characterizer class-1: logit >= 0
    coeffs: Dict[int, float] = {}
    rhs = bld.use(coeffs, logit, 1.0, REL_GE, 0.0)
    bld.row(coeffs, REL_GE, rhs)

    # (f) risk clauses, strict relaxed to non-strict
    for clause in query.risk.clauses:
        rel = REL_LE if clause.relaxed_rel == "<=" else REL_GE
        coeffs, rhs = {}, clause.rhs
        for v, ck in zip(outs, clause.coeffs):
            if ck != 0.0:
                rhs = bld.use(coeffs, v, float(ck), rel, rhs)
        bld.row(coeffs, rel, rhs)

    lp = bld.freeze()
    pre, pre0 = _affine_rows([x for _, x in relus], lp.num_vars)
    logit_map, logit0 = _affine_rows([logit], lp.num_vars)
    return MilpProblem(
        lp=lp,
        binaries=tuple(binaries),
        cut_cols=tuple(cut_cols),
        diff_rows=tuple(diff_rows),
        relus=tuple(info for info, _ in relus),
        pre=pre,
        pre0=pre0,
        logit=logit_map[0],
        logit0=float(logit0[0]),
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
