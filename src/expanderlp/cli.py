"""Command-line front end.

Every subcommand prints a JSON document (except `tables`, which is a text
table) to stdout or to --out.  Exit codes: 0 success; 1 the decoder declared
failure (decode subcommand only); 2 bad input (files, specs, domain errors);
3 an internal invariant was violated, which is always a bug worth reporting.

Graphs and local codes are given either as files (the to_text formats) or as
generator descriptors:

  graphs:  complete:N | cycle:N | random:N:DELTA:SEED | file:PATH
  codes:   repetition:Q:LEN | parity:Q:LEN | grs:Q:LEN:K | file:PATH

Words are one line of space-separated element indices, inline or in a file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import lp_core
from .certificate import find_error_core, find_witness, peel
from .errors import ExpanderLPError, InternalInvariantError
from .expander_code import ExpanderCode, parse_word
from .harness import (ExperimentConfig, bounds_report, format_tables,
                      resolve_graph, resolve_instance, run_sweep)
from .lp_decoder import DEFAULT_INT_TOL, decode
from .ml_oracle import DEFAULT_SCAN_CAP, exhaustive_agreement_scan
from .orientation import OrientationFailure, orient, verify_orientation

EXIT_OK = 0
EXIT_DECODE_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3


def _load_word(arg: str, q: int, length: int) -> np.ndarray:
    # isfile, unlike Path.exists, is False (not OSError) for a name too long to be a path
    text = Path(arg).read_text() if os.path.isfile(arg) else arg.replace(",", " ")
    return parse_word(text, q, length)


def _emit(payload, out: str | None) -> None:
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _jsonable(value):
    if isinstance(value, Fraction):
        return {"fraction": f"{value.numerator}/{value.denominator}",
                "value": float(value)}
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _instance(args) -> ExpanderCode:
    return resolve_instance(args.graph, args.code_a, args.code_b)


def _core_payload(core, n: int):
    """An error core as JSON; B-side vertices renumbered from 0."""
    if core is None:
        return None
    return {
        "edges": sorted(core.edges),
        "vertices_a": sorted(core.vertices_a),
        "vertices_b": sorted(v - n for v in core.vertices_b),
        "zeta_a": str(core.zeta_a),
        "zeta_b": str(core.zeta_b),
    }


def _cmd_decode(args) -> int:
    code = _instance(args)
    y = _load_word(args.received, code.field.q, code.graph.num_edges)
    result = decode(code, y, int_tol=args.int_tol, feas_tol=args.feas_tol,
                    opt_tol=args.opt_tol)
    payload = {
        "status": result.status,
        "codeword": None if result.codeword is None else result.codeword.tolist(),
        "distance": result.distance_to(y),
        "objective": result.objective,
        "lp_iterations": result.lp_iterations,
    }
    _emit(payload, args.out)
    return EXIT_OK if result.status == "codeword" else EXIT_DECODE_FAILURE


def _cmd_certify(args) -> int:
    code = _instance(args)
    c = _load_word(args.sent, code.field.q, code.graph.num_edges)
    y = _load_word(args.received, code.field.q, code.graph.num_edges)
    result = find_witness(code, c, y, mode=args.mode)
    payload = {
        "witness_found": result.witness_found,
        "mode": result.mode,
        "epsilon": None if result.epsilon is None else str(result.epsilon),
        "reason": result.reason,
        "core": _core_payload(result.core, code.graph.n),
    }
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_core(args) -> int:
    code = _instance(args)
    c = _load_word(args.sent, code.field.q, code.graph.num_edges)
    y = _load_word(args.received, code.field.q, code.graph.num_edges)
    trace = peel(code, c, y)
    core = find_error_core(code, trace)
    payload = {
        "terminated_empty": trace.terminated_empty,
        "final_index": len(trace.edge_sets),
        "rounds": len(trace.edge_sets),
        "core_found": core is not None,
        "core": _core_payload(core, code.graph.n),
    }
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_orient(args) -> int:
    graph = resolve_graph(args.graph)
    edges = [int(tok) for tok in args.edges.replace(",", " ").split()]
    result = orient(graph, edges, args.cap_a, args.cap_b)
    if isinstance(result, OrientationFailure):
        payload = {
            "oriented": False,
            "violations": result.violations,
            "blocking_set": _jsonable(result.blocking_set),
            "induced_edges": result.induced_edges,
            "capacity": result.capacity,
        }
    else:
        payload = {
            "oriented": True,
            "head_side": {str(e): result.head_side[e] for e in result.edges},
            "violations": verify_orientation(result),
        }
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_scan(args) -> int:
    code = _instance(args)
    report = exhaustive_agreement_scan(code, max_words=args.max_words,
                                       workers=args.workers,
                                       int_tol=args.int_tol,
                                       feas_tol=args.feas_tol,
                                       opt_tol=args.opt_tol)
    _emit(asdict(report) | {"all_integral_agree": report.all_integral_agree}, args.out)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    code = _instance(args)
    report = bounds_report(code.graph, code.code_a, code.code_b)
    _emit(_jsonable(asdict(report)), args.out)
    return EXIT_OK


def _cmd_tables(args) -> int:
    _emit(format_tables(args.step, args.regime), args.out)
    return EXIT_OK


def _parse_weights(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def _cmd_sweep(args) -> int:
    cfg = ExperimentConfig(
        graph=args.graph, code_a=args.code_a, code_b=args.code_b,
        weights=_parse_weights(args.weights), trials=args.trials,
        seed=args.seed, feas_tol=args.feas_tol, opt_tol=args.opt_tol,
        int_tol=args.int_tol, certify=not args.no_certify,
        check_oracle=args.oracle, workers=args.workers,
        out_csv=args.out_csv, out_summary=args.out_summary,
    )
    result = run_sweep(cfg)
    _emit(result.summary, args.out)
    return EXIT_OK


def _add_instance_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", required=True,
                        help="graph file or descriptor (complete:N, cycle:N, "
                             "random:N:DELTA:SEED)")
    parser.add_argument("--code-a", required=True,
                        help="A-side local code file or descriptor "
                             "(repetition:Q:LEN, parity:Q:LEN, grs:Q:LEN:K)")
    parser.add_argument("--code-b", required=True,
                        help="B-side local code file or descriptor")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expanderlp",
        description="LP decoding of expander codes over small fields")
    parser.add_argument("--seed", type=int, default=0,
                        help="base random seed (sweep sampling)")
    parser.add_argument("--feas-tol", type=float, default=lp_core.DEFAULT_FEAS_TOL)
    parser.add_argument("--opt-tol", type=float, default=lp_core.DEFAULT_OPT_TOL)
    parser.add_argument("--int-tol", type=float, default=DEFAULT_INT_TOL)
    parser.add_argument("--out", default=None, help="write output here, not stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decode", help="LP-decode a received word")
    _add_instance_args(p)
    p.add_argument("--received", required=True, help="word file or inline word")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("certify", help="search for a dual witness")
    _add_instance_args(p)
    p.add_argument("--sent", required=True, help="transmitted codeword")
    p.add_argument("--received", required=True)
    p.add_argument("--mode", choices=("peel", "orient"), default="peel")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("core", help="peel an error pattern and report any core")
    _add_instance_args(p)
    p.add_argument("--sent", required=True)
    p.add_argument("--received", required=True)
    p.set_defaults(func=_cmd_core)

    p = sub.add_parser("orient", help="orient an edge set under in-degree caps")
    p.add_argument("--graph", required=True)
    p.add_argument("--edges", required=True, help="edge ids, space or comma separated")
    p.add_argument("--cap-a", type=int, required=True)
    p.add_argument("--cap-b", type=int, required=True)
    p.set_defaults(func=_cmd_orient)

    p = sub.add_parser("scan", help="exhaustive LP-vs-oracle agreement scan")
    _add_instance_args(p)
    p.add_argument("--max-words", type=int, default=DEFAULT_SCAN_CAP)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("bounds", help="analytic bound report for an instance")
    _add_instance_args(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("tables", help="analytic correctable-fraction tables")
    p.add_argument("--step", type=float, default=None,
                   help="rate grid spacing (default: the standard 0.1 grid)")
    p.add_argument("--regime", choices=("binary", "grs", "both"), default="both",
                   help="print one regime's column, or both")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("sweep", help="Monte Carlo error-weight sweep")
    _add_instance_args(p)
    p.add_argument("--weights", required=True, help="e.g. 0,1,2,3")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--no-certify", action="store_true",
                   help="skip witness construction per trial")
    p.add_argument("--oracle", action="store_true",
                   help="check each decode against the brute-force oracle")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out-csv", default=None)
    p.add_argument("--out-summary", default=None)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    except (ExpanderLPError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
