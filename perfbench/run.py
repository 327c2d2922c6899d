"""Benchmark of the bipartite-biconnect solver, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload tree-solve --seed 1 --seconds 30 --trace 0

The workload's inputs are generated from the seed as text in the
package's input format.  One pass runs, for each input, the library
path a user runs: ``parse_graph``, ``augment`` and the ``ADD``/``SIZE``
output lines, plus ``verify_result`` on ``referee-batch``.  Before each
pass the benchmark sets up afresh: it imports the package anew from
``src``, generates the inputs and solves a tiny warm-up graph.  Set-ups
and passes alternate until ``--seconds`` would be exceeded.  Outputs
are checked afterwards, outside the timed region, by the benchmark's
own checker (checker.py).

Times are reported on a reference scale.  Between every two passes the
benchmark times a fixed reference task: its own checker on a fixed
ladder graph, which no change to the package can touch.  Each set-up
and pass is divided by the mean of the reference times just before and
just after it, and multiplied by ``REFERENCE_S``; the figure reported is
the median over the run.  On a machine shared with other tenants, the
speed of a core drifts by up to two times over seconds to minutes, and
the reference slows with it, so the ratio stays put where the raw wall
time does not.  A time reads as the seconds it would take on a core
where the reference task takes ``REFERENCE_S``.  The raw wall-clock
medians are printed on the ``#`` line.

With ``--trace 1`` every second pass is traced: every public function
of the package records spans (spans.py).  The per-layer metrics come
from the traced pass of median scaled time, in raw seconds, and its
spans are written under ``perfbench/out/``.  The tracing overhead
compares the median scaled traced and untraced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "bipartite_biconnect"

import checker  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

VERIFY_WORKLOADS = {"referee-batch"}
# a tiny instance that takes the connected solver path, solved during set-up
WARMUP_TEXT = "A a1 a2 a3\nB b1 b2\nE a1 b1\nE a2 b1\nE a2 b2\nE a3 b2\n"
# The reference task checks a small ladder several times, so that its
# transient memory stays well below any workload's.
REFERENCE_RUNGS = 2_000
REFERENCE_REPEATS = 5
# about the fastest time of the reference task on a 2 GHz Xeon core
REFERENCE_S = 0.06

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "instance_ms_p50": "ms",
    "instance_ms_p99": "ms",
    "peak_rss_mib": "MiB",
    "edges_added": "count",
    "passed_frac": "ratio",
}
CASES = ["M1", "M2", "M3", "M4", "M5", "S1", "S2", "S3", "S4_1", "S4_2", "S5"]
STATS = [
    "dfs_visits",
    "tree_nodes",
    "collapse_steps",
    "index_updates",
    "edges_added",
    "index_rebuilds",
]


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for _, name, _, _ in spans.SPANS:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for layer in spans.LAYERS:
        units[f"{layer}.self_s"] = "s"
    for key in ("path_nodes", "absorbed", "merged_children"):
        units[f"blocks.collapse.{key}"] = "count"
    for case in CASES:
        units[f"augment.steps.{case}"] = "count"
    for key in STATS:
        units[f"stats.{key}"] = "count"
    units.update(
        {
            "bench.self_s": "s",
            "trace.pass_s": "s",
            "trace.overhead_frac": "ratio",
            "trace.spans": "count",
        }
    )
    return units


PER_LAYER = per_layer_units()


def load_package():
    """Import the package from this checkout's ``src``, fresh."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != SRC / PACKAGE:
        raise ImportError(f"{PACKAGE} imported from {pkg.__file__}, not from {SRC}")
    return pkg


def reference(text: str) -> float:
    """Wall seconds of the fixed reference task.  The collector is off
    so that the size of the package's heap does not enter the time."""
    gc.disable()
    try:
        t0 = perf_counter()
        verdicts = [checker.check_instance(text, "SIZE 0\n", 0) for _ in range(REFERENCE_REPEATS)]
        dt = perf_counter() - t0
    finally:
        gc.enable()
    if verdicts != [None] * REFERENCE_REPEATS:
        raise RuntimeError(f"reference graph rejected: {verdicts[0]}")
    return dt


@dataclass
class Pass:
    """One set-up followed by one pass over every input."""

    setup_s: float  # raw wall seconds
    pass_s: float
    outs: list  # printed lines per input, None where the call raised
    targets: list[int]
    traces: list[list[str]]  # case tags per input, traced passes only
    verdicts: list  # verify_result(...).passed, or None when not verifying
    times: list[float]  # raw wall seconds per input, untraced passes only
    counters: object = None  # OpCounters of a traced pass
    tracer: spans.Tracer | None = None
    differs: int = 0  # inputs whose output differs from the first pass
    scale: float = 1.0  # REFERENCE_S over the reference time around the pass


def solve_all(pkg, texts: list[str], verify: bool, counters=None):
    parse_graph, augment, verify_result = pkg.parse_graph, pkg.augment, pkg.verify_result
    outs, targets, traces, verdicts, times = [], [], [], [], []
    for text in texts:
        t0 = perf_counter()
        try:
            g = parse_graph(text)
            res = augment(g) if counters is None else augment(g, counters)
            lines = [f"ADD {a} {b}\n" for a, b in res.added_edges]
            lines.append(f"SIZE {res.size}\n")
            out = "".join(lines)
            verdict = verify_result(g, res).passed if verify else None
        except Exception as exc:  # a failing input is counted, not fatal
            print(f"input raised {type(exc).__name__}: {exc}", file=sys.stderr)
            out, res, verdict = None, None, None
        times.append(perf_counter() - t0)
        outs.append(out)
        targets.append(res.target if res is not None else -1)
        traces.append(res.trace if res is not None else [])
        verdicts.append(verdict)
    return outs, targets, traces, verdicts, times


def run_passes(workload: str, seed: int, budget_s: float, trace: bool):
    """Alternate reference, set-up and pass while the next round is
    expected to fit in budget_s.  With trace, every second pass is
    traced, so traced and untraced passes see the same machine load.
    Returns the inputs, the passes, and whether every set-up generated
    the same bytes."""
    verify = workload in VERIFY_WORKLOADS
    ref_text = workloads.ladder(REFERENCE_RUNGS)
    passes: list[Pass] = []
    first = None
    same = True
    start = perf_counter()
    ref_before = reference(ref_text)
    while True:
        t0 = perf_counter()
        pkg = load_package()
        texts = workloads.WORKLOADS[workload](seed)
        g = pkg.parse_graph(WARMUP_TEXT)
        pkg.verify_result(g, pkg.augment(g))
        setup_s = perf_counter() - t0
        if first is None:
            first = texts
        elif texts != first:
            same = False
        traced = trace and len(passes) % 2 == 1
        tracer = spans.Tracer() if traced else None
        counters = pkg.OpCounters() if traced else None
        if tracer is not None:
            tracer.install()
        try:
            t1 = perf_counter()
            result = solve_all(pkg, texts, verify, counters)
            pass_s = perf_counter() - t1
        finally:
            if tracer is not None:
                tracer.uninstall()
        ref_after = reference(ref_text)
        p = Pass(setup_s, pass_s, *result, counters, tracer)
        p.scale = REFERENCE_S / ((ref_before + ref_after) / 2)
        ref_before = ref_after
        passes.append(p)
        trim(passes)
        round_s = setup_s + pass_s + ref_after
        if len(passes) > trace and perf_counter() - start + round_s > budget_s:
            return first, passes, same


def trim(passes: list[Pass]) -> None:
    """Drop from the newest pass what no figure needs, so that memory
    use hardly grows with the number of passes.  Only the first pass
    keeps its output, for checking; later ones keep a count of inputs
    whose output differs from it.  Untraced passes keep their per-input
    times, traced ones their case traces."""
    first, last = passes[0], passes[-1]
    if last is not first:
        last.differs = sum(
            (a, b) != (c, d)
            for a, b, c, d in zip(last.outs, last.verdicts, first.outs, first.verdicts)
        )
        last.outs = last.verdicts = last.targets = None
    if last.counters is None:
        last.times = array("d", last.times)
        last.traces = None
    else:
        last.times = None


def check(texts: list[str], passes: list[Pass], verify: bool):
    """Check the first pass with the independent checker; every later
    pass must have printed the same.  Returns (attempted, failed, edges
    added, sum of targets)."""
    base = passes[0]
    bad = 0
    for i, text in enumerate(texts):
        if base.outs[i] is None:
            bad += 1
            continue
        why = checker.check_instance(text, base.outs[i], base.targets[i])
        if why is None and verify and not base.verdicts[i]:
            why = "verify_result rejects a patch the checker accepts"
        elif why is not None and verify and base.verdicts[i]:
            why = f"verify_result accepts it, but {why}"
        if why is not None:
            print(f"input {i}: {why}", file=sys.stderr)
            bad += 1
    failed = bad * len(passes) + sum(p.differs for p in passes)
    if any(p.differs for p in passes):
        print("output differs between passes", file=sys.stderr)
    edges = sum(out.count("ADD ") for out in base.outs if out is not None)
    return len(texts) * len(passes), failed, edges, sum(base.targets)


def nearest_rank(sorted_vals: list[float], q: float) -> float:
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def median_pass(passes: list[Pass]) -> Pass:
    ranked = sorted(passes, key=lambda p: p.pass_s * p.scale)
    return ranked[(len(ranked) - 1) // 2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        texts, passes, same = run_passes(args.workload, args.seed, args.seconds, args.trace)
    except ImportError as exc:
        print(f"error: cannot import the package from {SRC}: {exc}", file=sys.stderr)
        return 2
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not same:
        print("error: one seed generated different inputs", file=sys.stderr)

    attempted, failed, edges, target_sum = check(
        texts, passes, args.workload in VERIFY_WORKLOADS
    )
    correct = same and failed == 0 and edges == target_sum
    plain = [p for p in passes if p.counters is None]
    mid = median_pass(plain)

    if args.trace:
        best = median_pass([p for p in passes if p.counters is not None])
        metrics = best.tracer.summary(best.pass_s)
        best.tracer.write(HERE / "out" / f"spans-{args.workload}-{args.seed}.tsv.gz")
        steps = Counter(case for tr in best.traces for case in tr)
        for case in CASES:
            metrics[f"augment.steps.{case}"] = steps[case]
        counts = best.counters.as_dict()
        for key in STATS:
            metrics[f"stats.{key}"] = counts.get(key, 0)
        metrics["trace.pass_s"] = best.pass_s
        metrics["trace.overhead_frac"] = (best.pass_s * best.scale) / (
            mid.pass_s * mid.scale
        ) - 1
        units = PER_LAYER
    else:
        # each input's median scaled time over the passes
        per_input = sorted(
            statistics.median(p.times[i] * p.scale for p in plain)
            for i in range(len(texts))
        )
        metrics = {
            "setup_s": statistics.median(p.setup_s * p.scale for p in plain),
            "solve_s": mid.pass_s * mid.scale,
            "instance_ms_p50": 1000 * nearest_rank(per_input, 0.50),
            "instance_ms_p99": 1000 * nearest_rank(per_input, 0.99),
            "peak_rss_mib": peak_rss_mib,
            "edges_added": edges,
            "passed_frac": 1 - failed / attempted,
        }
        units = END_TO_END
        print(
            f"# {args.workload} seed={args.seed}: {len(plain)} passes of {len(texts)}"
            f" inputs; raw wall medians: set-up"
            f" {statistics.median(p.setup_s for p in plain):.4f} s, pass"
            f" {statistics.median(p.pass_s for p in plain):.4f} s, reference"
            f" {statistics.median(REFERENCE_S / p.scale for p in plain):.4f} s"
        )
    for name, unit in units.items():
        print(f"{name} {metrics[name]} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
