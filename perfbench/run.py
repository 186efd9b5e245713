"""Benchmark of the expanderlp decoder and its certificates.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the library is imported from the `src/` tree next
to this directory, never from an installed copy.  One process, one op in
flight, no worker pool (a closed loop with a single client).  The run builds
its instances, warms up with one op, then runs whole cycles of seeded ops
until S seconds have passed, building the instances again between cycles
(setup_s is the median build).  It checks every op's output.  A reference
kernel timed before each op and each batch of builds gives the host's speed
at that moment, and the gated times are scaled to a fixed reference speed
(see reference.py); the raw times go to the result file.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every cycle twice,
once plain and once with spans recorded around the library's entry points
(order alternating), and prints the per-layer metrics, the tracing overhead
between the paired halves, and writes the spans.  Result files go to
perfbench/out/.  --inject-fault corrupts every output before it is checked,
to show the checks catch it; such a run reports failures and exits 1.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
A run with any failed op exits 1.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import subprocess
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# one BLAS thread: the benchmark measures a single-threaded closed loop, and
# must be set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
# setup_s is the median of fresh builds: some before the first op, then more
# between cycles, taking SETUP_SHARE of the measured time.  The first builds
# in a process are slower; the share gives even the 1 s builds of certify
# enough later builds that the median is a warm one.
SETUP_FIRST_SECONDS = 0.3
SETUP_SHARE = 0.15
TRACED_SETUP_BUILDS = 3
OUT_DIR = Path(__file__).resolve().parent / "out"

SETUP_LAYERS = {
    "expander_code.codeword_basis": "expander_code.codeword_basis_ms",
    "gflinalg.rref": "gflinalg.rref_ms",
    "linear_code.codewords": "linear_code.codewords_ms",
    "tanner_graph.build": "tanner_graph.build_ms",
    "tanner_graph.spectral_gamma": "tanner_graph.spectral_gamma_ms",
    "harness.bounds_report": "harness.bounds_report_ms",
}
OP_LAYERS = (
    "lp_decoder.decode", "lp_decoder.build_reduced", "lp_core.solve",
    "certificate.find_witness", "certificate.peel", "orientation.orient",
    "certificate.build_witness", "certificate.check_witness",
    "expander_code.is_codeword", "expander_code.random_codeword",
    "ml_oracle.ml_decode",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt every output before checking it")
    return parser.parse_args(argv)


def import_library():
    src = ROOT / "src"
    if not (src / "expanderlp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library sources at {src / 'expanderlp'}")
    sys.path.insert(0, str(src))
    import expanderlp
    if Path(expanderlp.__file__).resolve().parent != (src / "expanderlp").resolve():
        raise SystemExit(f"perfbench: imported expanderlp from {expanderlp.__file__}, "
                         f"not from {src}")


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


class Tally:
    """Ops attempted and failed, and the timings of those that returned."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # one per op that returned: (position in the cycle, words, seconds,
        # speed probe index or -1)
        self.ops: list[tuple[int, int, float, int]] = []

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 5:
            self.problems.append(problem)

    @property
    def busy_s(self) -> float:
        return sum(op[2] for op in self.ops)

    @property
    def done(self) -> int:
        return sum(op[1] for op in self.ops)

    def ops_per_s(self) -> float:
        busy = self.busy_s
        return self.done / busy if busy else 0.0


def run_ops(workload, inputs, tally, inject: bool, tracer=None, root_ids=None,
            probe=None):
    for position, inp in enumerate(inputs):
        words = workload.words(inp)
        tally.attempted += words
        mark = probe.mark() if probe is not None else -1
        start = perf_counter()
        try:
            if tracer is None:
                out = workload.call(inp)
            else:
                with tracer.root("op", next(root_ids), "op"):
                    out = workload.call(inp)
        except Exception:
            tally.fail(words, traceback.format_exc(limit=4))
            continue
        tally.ops.append((position, words, perf_counter() - start, mark))
        try:
            if inject:
                out = workload.tamper(inp, out)
            problems = workload.check(inp, out)
        except Exception:
            problems = [traceback.format_exc(limit=4)]
        if problems:
            tally.fail(min(len(problems), words), problems[0])


def build(specs):
    """Descriptor strings to ready instances, with the caches decode uses filled."""
    from expanderlp import harness
    codes = []
    for graph, code_a, code_b in specs:
        code = harness.resolve_instance(graph, code_a, code_b)
        code.codeword_basis()
        code.code_a.codewords()
        code.code_b.codewords()
        harness.bounds_report(code.graph, code.code_a, code.code_b)
        codes.append(code)
    return codes


def timed_builds(workload, min_builds, min_seconds, tracer=None, probe=None):
    """Build fresh instances at least min_builds times and for at least
    min_seconds; returns the last build and each build's (seconds, speed
    probe index), one probe for the whole batch."""
    mark = probe.mark() if probe is not None else -1
    times: list[tuple[float, int]] = []
    total = 0.0
    for k in itertools.count():
        if k >= min_builds and total >= min_seconds:
            break
        start = perf_counter()
        if tracer is None:
            codes = build(workload.specs)
        else:
            with tracer.root("setup", -1 - k, "setup"):
                codes = build(workload.specs)
        times.append((perf_counter() - start, mark))
        total += times[-1][0]
    return codes, times


def class_median_ms(ops, cycle_ops, scale):
    """Each op class (a position in the cycle: one weight, or one scanned
    instance) at its median, summed over the cycle, per op.  Every class
    counts in proportion to its cost, not only the most common or the
    cheapest ones."""
    by_class = defaultdict(list)
    for position, _, seconds, mark in ops:
        by_class[position].append(1000.0 * seconds * scale(mark))
    return sum(statistics.median(times) for times in by_class.values()) / cycle_ops


def run_plain(workload, seed, seconds, inject):
    from reference import LP_MIX, SpeedProbe

    probe = SpeedProbe(dict.fromkeys(LP_MIX + workload.op_speed_mix))
    codes, builds = timed_builds(workload, 1, SETUP_FIRST_SECONDS,
                                 probe=probe)
    workload.prepare(codes, seed)
    run_ops(workload, workload.inputs(0)[:1], Tally(), inject)     # warm-up
    tally = Tally()
    cycle_s: list[float] = []
    between = 0.0
    start = perf_counter()
    for cycle in itertools.count():
        busy = tally.busy_s
        run_ops(workload, workload.inputs(cycle), tally, inject, probe=probe)
        cycle_s.append(tally.busy_s - busy)
        elapsed = perf_counter() - start
        if elapsed >= seconds:
            break
        # more builds between cycles, so setup_s samples the whole run
        if between < SETUP_SHARE * elapsed:
            times = timed_builds(workload, 1, SETUP_SHARE * elapsed - between,
                                 probe=probe)[1]
            builds += times
            between += sum(t for t, _ in times)
    probe.mark()        # the last item's probe after it

    raw = lambda mark: 1.0
    norm_op = probe.scale(workload.op_speed_mix)
    norm_build = probe.scale(LP_MIX)
    cycle_ops = sum(workload.words(inp) for inp in workload.inputs(0))
    lat = [1000.0 * s / words for _, words, s, _ in tally.ops]
    metrics = {
        "op_ms_norm": (class_median_ms(tally.ops, cycle_ops, norm_op), "ms"),
        "setup_s": (statistics.median(t * norm_build(mark) for t, mark in builds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    detail = {"cycles": cycle + 1, "latency_samples": len(lat),
              "op_ms_class_p50": class_median_ms(tally.ops, cycle_ops, raw),
              "setup_s_raw": statistics.median(t for t, _ in builds),
              "op_ref_s_p50": statistics.median(probe.mix(workload.op_speed_mix)),
              "op_ref_s_quartiles": quartiles(probe.mix(workload.op_speed_mix)),
              "op_ms_p25": quartiles(lat)[0],
              "op_ms_p50": statistics.median(lat), "op_ms_p90": p90,
              "samples_above_p90": sum(x > p90 for x in lat),
              "ops_per_s": cycle_ops / quartiles(cycle_s)[0],
              "median_cycle_ops_per_s": cycle_ops / statistics.median(cycle_s),
              "mean_ops_per_s": tally.ops_per_s(), "cycle_busy_s": cycle_s,
              "op_ms": lat,
              "op_ms_norm_each": [[pos, 1000.0 * sec * norm_op(mark) / words]
                                  for pos, words, sec, mark in tally.ops],
              "setup_builds_s": [t for t, _ in builds],
              "ref_s": probe.samples, "problems": tally.problems}
    return tally, metrics, detail


def run_traced(workload, seed, seconds, inject):
    from tracing import Tracer
    from workloads import COUNTERS, COUNT_METRICS

    tracer = Tracer(COUNTERS)
    origin = perf_counter()
    with tracer.installed():
        codes, _ = timed_builds(workload, TRACED_SETUP_BUILDS, SETUP_FIRST_SECONDS, tracer)
    workload.prepare(codes, seed)
    run_ops(workload, workload.inputs(0)[:1], Tally(), inject)     # warm-up
    plain, traced = Tally(), Tally()
    next_id = 0
    window: set[int] = set()
    start = perf_counter()
    for cycle in itertools.count():
        inputs = workload.inputs(cycle)
        for use_tracer in ((False, True) if cycle % 2 == 0 else (True, False)):
            if not use_tracer:
                run_ops(workload, inputs, plain, inject)
                continue
            ids = range(next_id, next_id + len(inputs))
            next_id = ids.stop
            with tracer.installed():
                run_ops(workload, inputs, traced, inject, tracer, iter(ids))
            if cycle < workload.count_cycles:
                window.update(ids)
        if perf_counter() - start >= seconds and cycle + 1 >= workload.count_cycles:
            break

    metrics: dict[str, tuple[float, str]] = {}
    setup = tracer.totals("setup")
    for span, name in SETUP_LAYERS.items():
        per_build = [names.get(span, [0.0])[0] * 1000.0 for names in setup.values()]
        metrics[name] = (statistics.median(per_build), "ms")

    per_op = tracer.totals("op")
    total: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    for names in per_op.values():
        for span, (tot, self_s) in names.items():
            total[span] += tot
            own[span] += self_s
    for name, *_ in tracer.spans:
        calls[name] += 1
    ops = traced.done

    def ms_per_op(seconds):
        return 1000.0 * seconds / ops if ops else 0.0

    for span in OP_LAYERS:
        metrics[f"{span}_ms"] = (ms_per_op(total[span]), "ms")
        metrics[f"{span}_self_ms"] = (ms_per_op(own[span]), "ms")
    lift = total["lp_decoder.decode"] - total["lp_decoder.build_reduced"] - total["lp_core.solve"]
    metrics["lp_decoder.lift_ms"] = (ms_per_op(lift), "ms")
    metrics["op.self_ms"] = (ms_per_op(own["op"]), "ms")

    counts: Counter = Counter()
    for root in window:
        counts.update(tracer.counts.get(root, {}))
    for name, (num, den) in COUNT_METRICS.items():
        unit = "frac" if name.endswith("_frac") else "count"
        metrics[name] = (counts[num] / counts[den] if counts[den] else 0.0, unit)
    pivots = sum(c["pivots"] for c in tracer.counts.values())
    metrics["lp_core.ms_per_pivot"] = (
        1000.0 * total["lp_core.solve"] / pivots if pivots else 0.0, "ms")
    overhead = (1.0 - traced.ops_per_s() / plain.ops_per_s()) if plain.ops_per_s() else 0.0
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")

    detail = {
        "cycles": cycle + 1,
        "count_window_ops": len(window),
        "plain_ops_per_s": plain.ops_per_s(),
        "traced_ops_per_s": traced.ops_per_s(),
        "layers_share_of_op": {s: total[s] / total["op"] for s in sorted(total)},
        "layers_calls": dict(sorted(calls.items())),
        "counts": dict(counts),
        "problems": plain.problems + traced.problems,
    }
    tally = Tally()
    tally.attempted = plain.attempted + traced.attempted
    tally.failed = plain.failed + traced.failed
    return tally, metrics, detail, (tracer, origin)


def blas_threads():
    """Threads the BLAS numpy loaded will use, or the setting if unreadable."""
    import ctypes
    import glob

    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            getter = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.restype = ctypes.c_int
        return getter()
    return f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"


def git_commit() -> str:
    # the ceiling keeps git from taking the commit of a repository that
    # merely contains this checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(args) -> dict:
    import numpy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "inject_fault": args.inject_fault,
            "git_commit": git_commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(), "platform": platform.platform()}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    try:
        if args.trace:
            tally, metrics, detail, (tracer, origin) = run_traced(
                workload, args.seed, args.seconds, args.inject_fault)
        else:
            tally, metrics, detail = run_plain(workload, args.seed, args.seconds,
                                               args.inject_fault)
    finally:
        workload.finish()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if names != set(metrics):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ names)} are not "
                         f"both measured and declared in BENCHMARK.json")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"environment": environment(args), "failed_frac": tally.failed / tally.attempted,
              "detail": detail, **result}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl.gz", origin)

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"{'op_ms_class_p50 (raw, not gated)':40s} {detail['op_ms_class_p50']:14.6g} ms")
        print(f"{'setup_s (raw, not gated)':40s} {detail['setup_s_raw']:14.6g} s")
        print(f"{'ops_per_s (not gated)':40s} {detail['ops_per_s']:14.6g} 1/s")
        print(f"{'op_ms_p50 (not gated)':40s} {detail['op_ms_p50']:14.6g} ms")
        print(f"{'op_ms_p90 (not gated)':40s} {detail['op_ms_p90']:14.6g} ms  "
              f"({detail['latency_samples']} samples, {detail['samples_above_p90']} above)")
    for problem in detail["problems"]:
        print("FAILED:", problem.strip().splitlines()[-1], file=sys.stderr)
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
