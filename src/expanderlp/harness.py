"""Experiment driver: Monte Carlo sweeps, bound reports, analytic tables.

A sweep samples, for each requested error weight, a batch of (codeword,
error pattern) pairs, runs the LP decoder and both witness constructions on
each, and writes one CSV row per trial plus a JSON summary holding the
empirical rates next to the analytic thresholds.  Error patterns have exact
weight: the support is a uniform subset of the edges and each erroneous
symbol is offset from the transmitted one by a uniform nonzero field
element, so every wrong symbol is equally likely.

Reproducibility contract: trial (w, t) uses the generator seeded by
[config.seed, w, t], so records do not depend on execution order or worker
count, and rerunning a config byte-reproduces the CSV.  Wall-clock runtime
is kept on the in-memory records and in the summary aggregates but is
deliberately left out of the CSV for exactly that reason.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import lp_core
from .errors import DomainError, InternalInvariantError, NoValidThetaError
from .certificate import find_witness
from .expander_code import (BoundReport, ExpanderCode, compute_theta,
                            correctable_fraction_core,
                            correctable_fraction_orientation,
                            distance_bound_eq1, table_fraction)
from .gf import GF, check_word
from .linear_code import (LocalCode, generalized_reed_solomon, repetition,
                          single_parity_check)
from .lp_decoder import DEFAULT_INT_TOL, decode, map_with_code
from .ml_oracle import ml_decode
from .tanner_graph import (TannerGraph, complete_bipartite, cycle_graph,
                           random_regular_bipartite)

CSV_COLUMNS = ("weight", "trial", "decode_status", "decoded_correct",
               "oracle_agreement", "witness_peel", "witness_orient",
               "core_found")


# -- graph / code descriptors ------------------------------------------------

def resolve_graph(spec: str) -> TannerGraph:
    """Build a graph from a descriptor string.

    Forms: 'file:PATH', 'complete:N', 'cycle:N', 'random:N:DELTA:SEED'.
    A bare path to an existing file also works.
    """
    kind, _, rest = spec.partition(":")
    if kind == "file":
        return TannerGraph.from_text(Path(rest).read_text())
    if kind == "complete":
        return complete_bipartite(int(rest))
    if kind == "cycle":
        return cycle_graph(int(rest))
    if kind == "random":
        parts = rest.split(":")
        if len(parts) != 3:
            raise DomainError(f"random graph spec needs n:delta:seed, got {spec!r}")
        n, delta, seed = (int(p) for p in parts)
        return random_regular_bipartite(n, delta, seed=seed)
    if os.path.isfile(spec):
        return TannerGraph.from_text(Path(spec).read_text())
    raise DomainError(f"unrecognized graph spec {spec!r}")


def resolve_code(spec: str, length: int | None = None) -> LocalCode:
    """Build a local code from a descriptor string.

    Forms: 'file:PATH', 'repetition:Q:LEN', 'parity:Q:LEN', 'grs:Q:LEN:K'.
    A bare path to an existing file also works.  When `length` is given the
    resolved code must match it.
    """
    kind, _, rest = spec.partition(":")
    code: LocalCode
    if kind == "file":
        code = LocalCode.from_text(Path(rest).read_text())
    elif kind in ("repetition", "parity", "grs"):
        parts = rest.split(":")
        if kind == "grs":
            if len(parts) != 3:
                raise DomainError(f"grs spec needs q:len:k, got {spec!r}")
            q, n, k = (int(p) for p in parts)
            code = generalized_reed_solomon(GF(q), n, k)
        else:
            if len(parts) != 2:
                raise DomainError(f"{kind} spec needs q:len, got {spec!r}")
            q, n = (int(p) for p in parts)
            maker = repetition if kind == "repetition" else single_parity_check
            code = maker(GF(q), n)
    elif os.path.isfile(spec):
        code = LocalCode.from_text(Path(spec).read_text())
    else:
        raise DomainError(f"unrecognized code spec {spec!r}")
    if length is not None and code.length != length:
        raise DomainError(
            f"code spec {spec!r} has length {code.length}, graph degree is {length}")
    return code


def resolve_instance(graph_spec: str, code_a_spec: str,
                     code_b_spec: str) -> ExpanderCode:
    """The expander code of a graph spec and the two sides' code specs.

    Equal code specs give both sides one LocalCode, so its field tables,
    parity check, codewords and minimum distance are computed once.  Its
    arrays are read-only, so neither side can change the other's; the
    instance is the one two separately built equal codes give.
    """
    graph = resolve_graph(graph_spec)
    code_a = resolve_code(code_a_spec, graph.delta)
    code_b = code_a if code_b_spec == code_a_spec else resolve_code(code_b_spec, graph.delta)
    return ExpanderCode(graph, code_a, code_b)


# -- sweep configuration and records ----------------------------------------------

@dataclass
class ExperimentConfig:
    """Everything a sweep needs, as plain serializable data."""

    graph: str
    code_a: str
    code_b: str
    weights: list[int]
    trials: int
    seed: int = 0
    feas_tol: float = lp_core.DEFAULT_FEAS_TOL
    opt_tol: float = lp_core.DEFAULT_OPT_TOL
    int_tol: float = DEFAULT_INT_TOL
    certify: bool = True
    check_oracle: bool = False
    workers: int = 1
    out_csv: str | None = None
    out_summary: str | None = None

    def validate(self, code: ExpanderCode) -> ExperimentConfig:
        """This config with its weights and trials as ints.  DomainError
        unless trials is an integer >= 1 and the weights distinct integers
        in [0, E]; an integer-valued float stands for its integer."""
        edges = code.graph.num_edges
        wrong_trials = f"trials must be an integer >= 1, got {self.trials}"
        try:
            trials = int(check_word(self.trials, math.inf, ()))
        except ValueError as exc:
            raise DomainError(wrong_trials) from exc
        if trials < 1:
            raise DomainError(wrong_trials)
        try:
            weights = check_word(self.weights, edges + 1).tolist()
        except ValueError as exc:
            raise DomainError(f"weights {list(self.weights)} must be integers "
                              f"in [0, {edges}]") from exc
        if len(set(weights)) != len(weights):
            raise DomainError(f"weights {list(self.weights)} repeat a weight")
        return replace(self, weights=weights, trials=trials)


@dataclass
class TrialRecord:
    weight: int
    trial: int
    decode_status: str
    decoded_correct: bool
    oracle_agreement: bool | None
    witness_peel: bool
    witness_orient: bool
    core_found: bool
    runtime_ms: float

    def csv_row(self) -> list[str]:
        def fmt(value) -> str:
            if value is None:
                return ""
            if isinstance(value, bool):
                return "true" if value else "false"
            return str(value)
        return [fmt(getattr(self, col)) for col in CSV_COLUMNS]


def sample_error_pattern(code: ExpanderCode, c: np.ndarray, weight: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Corrupt exactly `weight` positions of c, uniformly among wrong symbols."""
    y = c.copy()
    if weight == 0:
        return y
    support = rng.choice(code.graph.num_edges, size=weight, replace=False)
    offsets = rng.integers(1, code.field.q, size=weight)
    y[support] = code.field.add_table[y[support], offsets]
    return y


def run_trial(code: ExpanderCode, weight: int, trial: int,
              cfg: ExperimentConfig) -> TrialRecord:
    """One decode/certify round; raises if a found witness fails to predict."""
    rng = np.random.default_rng([cfg.seed, weight, trial])
    start = time.perf_counter()
    c = code.random_codeword(rng)
    y = sample_error_pattern(code, c, weight, rng)
    result = decode(code, y, int_tol=cfg.int_tol, feas_tol=cfg.feas_tol,
                    opt_tol=cfg.opt_tol)
    decoded_correct = (result.status == "codeword"
                       and np.array_equal(result.codeword, c))

    witness_peel = witness_orient = core_found = False
    if cfg.certify:
        peel_res = find_witness(code, c, y, mode="peel")
        witness_peel = peel_res.witness_found
        core_found = peel_res.core is not None
        orient_res = find_witness(code, c, y, mode="orient")
        witness_orient = orient_res.witness_found
        if (witness_peel or witness_orient) and not decoded_correct:
            raise InternalInvariantError(
                f"witness found at weight {weight} trial {trial} but decode "
                f"returned {result.status}; a feasible witness guarantees the "
                f"transmitted word is the unique LP optimum")

    oracle_agreement: bool | None = None
    if cfg.check_oracle:
        oracle = ml_decode(code, y)
        if result.status == "codeword":
            oracle_agreement = result.distance_to(y) == oracle.distance
        else:
            oracle_agreement = True    # fractional output claims nothing
    runtime_ms = (time.perf_counter() - start) * 1000.0
    return TrialRecord(weight=weight, trial=trial, decode_status=result.status,
                       decoded_correct=decoded_correct,
                       oracle_agreement=oracle_agreement,
                       witness_peel=witness_peel, witness_orient=witness_orient,
                       core_found=core_found, runtime_ms=runtime_ms)


@dataclass
class SweepResult:
    config: ExperimentConfig
    records: list[TrialRecord]
    summary: dict
    csv_text: str


def records_to_csv(records: list[TrialRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow(rec.csv_row())
    return buf.getvalue()


def _summarize(code: ExpanderCode, cfg: ExperimentConfig,
               records: list[TrialRecord], bounds: BoundReport) -> dict:
    per_weight = {}
    for w in cfg.weights:
        rows = [r for r in records if r.weight == w]
        total = len(rows)
        per_weight[str(w)] = {
            "trials": total,
            "decode_success_rate": sum(r.decoded_correct for r in rows) / total,
            "witness_peel_rate": sum(r.witness_peel for r in rows) / total,
            "witness_orient_rate": sum(r.witness_orient for r in rows) / total,
            "core_rate": sum(r.core_found for r in rows) / total,
            "mean_runtime_ms": sum(r.runtime_ms for r in rows) / total,
        }
    edge_count = code.graph.num_edges
    analytic = {
        "gamma": bounds.gamma,
        "num_edges": edge_count,
        "rate_lower_bound": float(bounds.rate_lower_bound),
        "distance_lower_bound_edges": (None if bounds.distance_lower_bound is None
                                       else bounds.distance_lower_bound * edge_count),
        "core_fraction": bounds.core_fraction,
        "core_threshold_edges": (None if bounds.core_fraction is None
                                 else bounds.core_fraction * edge_count),
        "orientation_fraction": bounds.orientation_fraction,
        "orientation_threshold_edges": (None if bounds.orientation_fraction is None
                                        else bounds.orientation_fraction * edge_count),
        "notes": bounds.notes,
    }
    soft_flags = []
    rates = list(zip(cfg.weights,
                     (per_weight[str(w)]["decode_success_rate"] for w in cfg.weights)))
    for (w_prev, r_prev), (w_next, r_next) in zip(rates, rates[1:]):
        if w_next > w_prev and r_next > r_prev:
            soft_flags.append(
                f"success rate rose from {r_prev:.4f} to {r_next:.4f} between "
                f"weights {w_prev} and {w_next} (sampling noise, not an error)")
    return {"config": asdict(cfg), "per_weight": per_weight,
            "analytic": analytic, "soft_flags": soft_flags}


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Run the full sweep described by cfg; optionally write CSV and summary.

    Records come back sorted by (weight, trial) whatever the worker count,
    and each trial's randomness is derived from (seed, weight, trial) alone.
    With workers > 1 each worker receives the code once (map_with_code), so
    it runs the LP's phase 1 once, not once per trial.
    """
    code = resolve_instance(cfg.graph, cfg.code_a, cfg.code_b)
    cfg = cfg.validate(code)
    jobs = [(w, t, cfg) for w in cfg.weights for t in range(cfg.trials)]
    records = map_with_code(run_trial, code, jobs, cfg.workers)
    records.sort(key=lambda r: (r.weight, r.trial))
    bounds = bounds_report(code.graph, code.code_a, code.code_b)
    summary = _summarize(code, cfg, records, bounds)
    csv_text = records_to_csv(records)
    if cfg.out_csv:
        Path(cfg.out_csv).write_text(csv_text)
    if cfg.out_summary:
        Path(cfg.out_summary).write_text(json.dumps(summary, indent=2) + "\n")
    return SweepResult(config=cfg, records=records, summary=summary,
                       csv_text=csv_text)


# -- analytic reports ---------------------------------------------------------------

def bounds_report(graph: TannerGraph, code_a: LocalCode,
                  code_b: LocalCode) -> BoundReport:
    """Evaluate every analytic bound on one instance.

    Bounds whose hypotheses the instance violates come back as None with the
    reason recorded in notes; nothing raises.
    """
    gamma = graph.spectral_gamma().gamma
    delta_a = code_a.relative_distance
    delta_b = code_b.relative_distance
    rate_bound = code_a.rate + code_b.rate - 1
    notes: dict[str, str] = {}

    distance = positive = None
    try:
        distance, positive = distance_bound_eq1(float(delta_a), float(delta_b), gamma)
    except DomainError as exc:
        notes["distance_lower_bound"] = str(exc)

    core_fraction = None
    try:
        core_fraction = correctable_fraction_core(float(delta_a), float(delta_b),
                                                  gamma)
    except DomainError as exc:
        notes["core_fraction"] = str(exc)

    theta_a = theta_b = None
    orientation_fraction = None
    try:
        theta_a = compute_theta(delta_a, graph.delta)
        theta_b = compute_theta(delta_b, graph.delta)
    except NoValidThetaError as exc:
        notes["theta"] = str(exc)
    if theta_a is not None and theta_b is not None:
        try:
            orientation_fraction = correctable_fraction_orientation(
                float(theta_a), float(theta_b), gamma)
        except DomainError as exc:
            notes["orientation_fraction"] = str(exc)

    return BoundReport(gamma=gamma, delta_a=delta_a, delta_b=delta_b,
                       rate_lower_bound=rate_bound,
                       distance_lower_bound=distance,
                       distance_bound_positive=positive,
                       core_fraction=core_fraction,
                       orientation_fraction=orientation_fraction,
                       theta_a=theta_a, theta_b=theta_b, notes=notes)


TABLE_RATES = tuple(Fraction(k, 10) for k in range(1, 10))


def _table_row(label: str, rate: float, regime: str) -> str:
    """One table line: the rate label, then the scaled fraction per regime."""
    if regime == "both":
        binary = table_fraction(rate, "binary") * 1e4
        grs = table_fraction(rate, "grs") * 1e2
        return f"{label}  {binary:<22.4g}  {grs:.6g}"
    scale = 1e4 if regime == "binary" else 1e2
    return f"{label}  {table_fraction(rate, regime) * scale:.6g}"


def format_tables(step: float | None = None, regime: str = "both") -> str:
    """The analytic correctable-fraction tables, one row per design rate.

    The binary-local-code regime (entropy-matched distance) is printed
    x 1e-4, the Reed-Solomon regime ((1-R)^2/16) x 1e-2.  By default both
    columns on the nine rates 0.1 .. 0.9; a step gives the grid step,
    2*step, ... below 1, and regime 'binary' or 'grs' a single column.
    """
    if step is None and regime == "both":
        rows = [(f"{float(rate):.1f} ", float(rate)) for rate in TABLE_RATES]
    else:
        step = 0.1 if step is None else step
        if not 0.0 < step < 1.0:
            raise ValueError(f"rate step must lie in (0, 1), got {step}")
        rates = (i * step for i in range(1, math.ceil(1.0 / step)))
        rows = [(f"{rate:.3f}", rate) for rate in rates if 0.0 < rate < 1.0]
    header = ("rate  binary-locals (x 1e-4)  reed-solomon-locals (x 1e-2)"
              if regime == "both" else f"rate  {regime}")
    lines = [header] + [_table_row(label, rate, regime) for label, rate in rows]
    return "\n".join(lines) + "\n"
