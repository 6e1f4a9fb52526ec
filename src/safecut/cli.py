"""Command-line interface.

Subcommands mirror the pipeline stages: `bounds` builds an activation
envelope from a dataset (`--data`) or an input box (`--box`),
`train-characterizer` fits the property head, `verify` runs the MILP
search, `monitor` checks a stream of samples against the envelope, and
`stats` reports the confusion/guarantee numbers.  Every option is declared
on the one subcommand that reads it (`train-characterizer --seed`, `verify
--debug-lp-dump`); the top-level parser has none.

Exit codes: verify maps Safe=0, Unsafe=1, Unknown=3; 2 is reserved for
input/usage errors everywhere (argparse's own convention), a malformed
artifact among them: invalid JSON or a missing or ill-typed field exits 2
with a `safecut: error:` line that names the file.  Other commands return 0
on success.  One module, `jsonio`, reads every JSON artifact and writes it
canonically (sorted keys, two-space indent, trailing newline) so identical
inputs and seed give bitwise-identical files; `verify --timing` opts into a
wall_time field at the cost of that idempotence.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

import numpy as np

from . import bounds as bounds_mod
from . import monitor as monitor_mod
from . import stats as stats_mod
from .characterizer import TrainConfig, save_characterizer, train_characterizer
from .characterizer import load_characterizer
from .errors import ParseError, SafecutError, ShapeError
from .jsonio import canonical, read_json, write_json
from .lp import format_lp
from .milp import encode, load_query, risk_from_obj
from .network import forward_batch, load_dataset, load_network
from .verifier import Budget, SAFE, UNKNOWN, UNSAFE, verify

_EXIT_OK = 0
_EXIT_UNSAFE = 1
_EXIT_INPUT = 2
_EXIT_UNKNOWN = 3

_VERDICT_EXIT = {SAFE: _EXIT_OK, UNSAFE: _EXIT_UNSAFE, UNKNOWN: _EXIT_UNKNOWN}

_CONDITIONAL_NOTICE = (
    "note: this proof is conditional on the dataset envelope (assume-guarantee); "
    "it holds only while a runtime monitor (`safecut monitor`) confirms cut-layer "
    "activations stay inside the bounds file"
)


def _parse_box(text: str, dim: int) -> bounds_mod.InputBox:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"--box expects 'LO,HI', got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ParseError(f"--box expects two reals, got {text!r}") from None
    return bounds_mod.InputBox(np.full(dim, lo), np.full(dim, hi))


def cmd_bounds(args: argparse.Namespace) -> int:
    net = load_network(args.network)
    if args.box is not None:
        box = _parse_box(args.box, net.input_dim)
        b = bounds_mod.static_bounds(net, box, args.layer)
    else:
        data = load_dataset(args.data, expected_dim=net.input_dim)
        b = bounds_mod.dataset_bounds(net, data, args.layer, with_diffs=args.diffs)
    bounds_mod.save_bounds(bounds_mod.widen(b, args.widen), args.out)
    return _EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    net = load_network(args.network)
    data = load_dataset(args.data, expected_dim=net.input_dim)
    cfg = TrainConfig(
        hidden_units=args.hidden,
        learning_rate=args.lr,
        max_epochs=args.epochs,
        seed=args.seed,
    )
    h = train_characterizer(net, data, args.layer, cfg, property_id=args.property_id)
    save_characterizer(h, args.out)
    if h.achieved_accuracy < 1.0:
        print(
            f"warning: training accuracy {h.achieved_accuracy:.4f} < 100%; "
            "the perfect-characterizer assumption does not hold on this data",
            file=sys.stderr,
        )
    return _EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    net = load_network(args.network)
    query = load_query(args.query)
    if args.debug_lp_dump:
        prob = encode(net, query)
        with open(args.debug_lp_dump, "w", encoding="utf-8") as fh:
            fh.write(format_lp(prob.lp))
            fh.write(
                "binaries " + " ".join(prob.lp.name_of(j) for j in prob.binaries) + "\n"
            )
    budget = Budget(max_nodes=args.max_nodes, max_seconds=args.max_seconds)
    verdict = verify(net, query, budget=budget)

    stats = dict(verdict.stats)
    if not args.timing:
        stats.pop("wall_time", None)  # keep report files bitwise-reproducible
    report = {
        "status": verdict.status,
        "conditional": verdict.conditional,
        "witness": None if verdict.witness is None else verdict.witness.tolist(),
        "witness_output": (
            None if verdict.witness_output is None else verdict.witness_output.tolist()
        ),
        "stats": stats,
        "warnings": list(verdict.warnings),
    }
    write_json(report, args.out)
    if verdict.status == SAFE and verdict.conditional:
        print(_CONDITIONAL_NOTICE, file=sys.stderr)
    return _VERDICT_EXIT[verdict.status]


_MONITOR_READ_BYTES = 1 << 16  # at most this much of stdin per chunk

# what _report_line prints for a contained row
_CONTAINED_LINE = '{"contained": true, "sample_id": "%d", "violations": []}\n'


def _report_line(report, sample_id: int) -> str:
    obj = monitor_mod.report_to_obj(report)
    obj["sample_id"] = str(sample_id)
    return json.dumps(obj, sort_keys=True) + "\n"


def _monitor_chunk(net, b, lines: list, args: argparse.Namespace, first_id: int) -> str:
    """The report lines of one chunk of stdin lines, sample ids from first_id.

    One parse (`np.loadtxt`, in C), one forward and one containment test for
    the whole chunk.  The parser accepts a subset of what `float()` does (no
    `1_0`, no non-ASCII digits) and rounds the same; a chunk it refuses, or
    one with a row of the wrong width or a non-finite cell, activation or
    adjacent difference, goes through `monitor_stream` row by row on the
    split cells, which parses with `float()` and whose StreamError lines name
    the bad rows.
    """
    width = b.dim if args.activations else net.input_dim
    try:
        m = np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
        if m.shape != (len(lines), width):
            raise ShapeError(f"chunk of shape {m.shape}, expected ({len(lines)}, {width})")
        with np.errstate(over="ignore", invalid="ignore"):
            acts = m if args.activations else forward_batch(net, m, 0, b.layer)
            diffs = np.diff(acts, axis=1) if b.has_diffs else acts
        if not (np.isfinite(m).all() and np.isfinite(acts).all() and np.isfinite(diffs).all()):
            raise ValueError("chunk has a non-finite cell, activation or difference")
        found = monitor_mod.violations(b, acts)
    except (ShapeError, ValueError):
        # raw string cells: non-numeric or wrong-length rows become
        # StreamError lines
        rows = [[p.strip() for p in line.split(",")] for line in lines]
        stream = monitor_mod.monitor_stream(net, b, rows, precomputed=args.activations)
        return "".join(_report_line(rep, first_id + k) for k, rep in enumerate(stream))
    out = []
    for k in range(len(lines)):
        bad = found.get(k)
        if bad is None:
            out.append(_CONTAINED_LINE % (first_id + k))
        else:
            report = monitor_mod.MonitorReport(bad)
            out.append(_report_line(report, first_id + k))
    return "".join(out)


def cmd_monitor(args: argparse.Namespace) -> int:
    net = load_network(args.network)
    b = bounds_mod.load_bounds(args.bounds)
    b.check_fits(net)
    stdin = sys.stdin.buffer
    first_id = 0
    pending = b""
    while True:
        # whatever one read returns: a row is reported as soon as its line
        # is complete, never held back to fill a chunk
        data = stdin.read1(_MONITOR_READ_BYTES)
        pending += data
        cut = len(pending) if not data else pending.rfind(b"\n") + 1
        block, pending = pending[:cut], pending[cut:]
        text = block.decode(sys.stdin.encoding, sys.stdin.errors)
        # universal newlines, as text-mode stdin reads them
        text = text.replace("\r\n", "\n").replace("\r", "\n")
        lines = [line for line in map(str.strip, text.split("\n")) if line]
        if lines:
            sys.stdout.write(_monitor_chunk(net, b, lines, args, first_id))
            sys.stdout.flush()
            first_id += len(lines)
        if not data:
            return _EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    net = load_network(args.network)
    h = load_characterizer(args.characterizer)
    data = load_dataset(args.data, expected_dim=net.input_dim)
    cut = stats_mod.head_logits(net, h, args.layer, data)
    est = stats_mod.estimate_confusion(net, h, args.layer, data, cut)
    premise = False
    if args.risk:
        risk = read_json(
            args.risk, lambda obj: risk_from_obj(obj["risk"] if isinstance(obj, dict) else obj)
        )
        premise = stats_mod.check_premise(net, h, args.layer, data, risk, cut)
    g = stats_mod.guarantee(est, args.delta, premise=premise)
    sys.stdout.write(canonical(stats_mod.stats_report_obj(est, g)))
    return _EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safecut",
        description="Safety verification toolkit for feed-forward perception networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="build a cut-layer activation envelope")
    p.add_argument("network", help="network JSON")
    p.add_argument("out", help="output bounds JSON")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="labeled/unlabeled dataset CSV")
    src.add_argument(
        "--box", metavar="LO,HI",
        help="interval propagation from the input box [LO, HI] on every input",
    )
    p.add_argument("--layer", type=int, required=True, help="cut position l in [1, L-1]")
    p.add_argument(
        "--diffs", action="store_true",
        help="also record adjacent-difference bounds (dataset mode)",
    )
    p.add_argument("--widen", type=float, default=0.0, metavar="M",
                   help="pad bounds by M*max(1,|v|) per endpoint")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("train-characterizer", help="fit the property head at the cut")
    p.add_argument("network", help="network JSON")
    p.add_argument("data", help="labeled dataset CSV")
    p.add_argument("out", help="output characterizer JSON")
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--hidden", type=int, default=0,
                   help="hidden ReLU units (0 = logistic regression)")
    p.add_argument("--lr", type=float, default=0.5, help="learning rate")
    p.add_argument("--epochs", type=int, default=2000, help="max epochs")
    p.add_argument("--property-id", default="phi", help="name of the input property")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("verify", help="decide a safety query by MILP search")
    p.add_argument("network", help="network JSON")
    p.add_argument("query", help="query JSON (cut_layer, bounds, characterizer, risk)")
    p.add_argument("out", help="output verdict JSON")
    p.add_argument("--max-nodes", type=int, default=200_000)
    p.add_argument("--max-seconds", type=float, default=float("inf"))
    p.add_argument("--timing", action="store_true",
                   help="include wall_time in the report (breaks bitwise idempotence)")
    p.add_argument("--debug-lp-dump", metavar="PATH", default=None,
                   help="dump the root LP as plain text to PATH")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("monitor", help="stream containment checks (CSV in, LDJSON out)")
    p.add_argument("network", help="network JSON")
    p.add_argument("bounds", help="bounds JSON")
    p.add_argument(
        "--activations", action="store_true",
        help="stdin rows are cut-layer activations, not network inputs",
    )
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("stats", help="confusion cells and statistical guarantee")
    p.add_argument("network", help="network JSON")
    p.add_argument("characterizer", help="characterizer JSON")
    p.add_argument("data", help="labeled evaluation CSV")
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.05,
                   help="1-delta confidence for the conservative bound")
    p.add_argument("--risk", metavar="PATH", default=None,
                   help="risk JSON (list of clauses, or query file) for the premise check")
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SafecutError, ValueError, OSError) as exc:
        print(f"safecut: error: {exc}", file=sys.stderr)
        return _EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
