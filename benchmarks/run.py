"""Benchmark of the corg pipeline: one workload, cold passes, checked answers.

    python3 benchmarks/run.py --workload scale|reason|ingest --seed N
                              --seconds S --trace 0|1

Run from the root of a checkout.  Before timing, the worked COPA problem 1
is checked against ``tests/oracles.copa1_expected``.  Each pass then runs
``benchmarks/worker.py`` in a fresh process: load the graph and the table,
build the Pipeline, call ``run_problem`` once per problem back to back
(a closed loop, one client, one thread) and serialize the report.  Passes
are repeated until S seconds have gone, at least two of them.  Every
answer is compared with the pins in ``benchmarks/pins.json``.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` passes alternate untraced and traced, and the result holds
the per-layer metrics of the traced passes plus the tracing overhead.
The last line of standard output is the result object; the line before it
holds the run's details (sample counts, report sha256, failure types,
absent layers, nproc, Python and numpy versions).  Inputs are generated
under ``.bench_out/`` on first use and spans are written there too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
MIN_PASSES = 2  # with --trace 1: one untraced and one traced
RUN_LIMIT_S = 170.0  # a run must end within 180 s


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them ("end_to_end"
    or "per_layer")."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def require_checkout():
    for needed in ("src/corg/pipeline.py", "tests/oracles.py", "tests/conftest.py"):
        if not (ROOT / needed).is_file():
            sys.exit(f"error: {needed} not found; run from a corg checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


def check_worked_problem() -> tuple[bool, str]:
    """COPA problem 1 on the four-edge figure graph against the hand oracle."""
    import numpy as np

    from conftest import FIG_EDGES
    from corg.embeddings import EmbeddingTable
    from corg.kg import KnowledgeGraph
    from corg.pipeline import CopaProblem, Pipeline
    from oracles import COPA1_VECTORS, copa1_expected

    problem = CopaProblem(1, "My body cast a shadow over the grass.", "cause",
                          ["The sun was rising.", "The grass was cut."], gold=1)
    table = EmbeddingTable(2, {w: np.array(v) for w, v in COPA1_VECTORS.items()})
    try:
        result = Pipeline(KnowledgeGraph.from_tuples(FIG_EDGES), table).run_problem(problem)
    except Exception as e:  # a crash on the worked problem is a wrong answer
        return False, f"{type(e).__name__}: {e}"
    scores, y = copa1_expected()
    close = all(abs(a - b) <= 1e-9 for a, b in
                zip(result.scores + list(result.y), scores + y))
    return result.choice.index == 1 and close, f"scores {result.scores}"


def run_worker(workload: str, inputs: Path, seed: int, traced: bool,
               timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--inputs", str(inputs), "--seed", str(seed)]
    if traced:
        cmd += ["--spans", str(OUT / "traces" / f"{workload}.jsonl.gz")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                          check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_passes(workload: str, inputs: Path, seed: int, seconds: float,
               trace: bool, started: float) -> list[dict]:
    """Cold passes until the time is up; with trace, every second one traced."""
    passes: list[dict] = []
    longest = 0.0
    measure_start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - measure_start < seconds:
        left = RUN_LIMIT_S - (perf_counter() - started)
        if passes and 1.2 * longest > left:
            break
        traced = trace and len(passes) % 2 == 1
        begin = perf_counter()
        p = run_worker(workload, inputs, seed, traced, left)
        p["traced"] = traced
        passes.append(p)
        longest = max(longest, perf_counter() - begin)
    return passes


def end_to_end(passes: list[dict], attempted: int, failed: int,
               matched: int) -> dict[str, float]:
    latencies = [t for p in passes for t in p["latencies_s"]]
    return {
        "setup_s": statistics.median(t for p in passes for t in p["setup_samples_s"]),
        "problems_per_s": (attempted - failed) / sum(p["loop_s"] for p in passes),
        "total_s": statistics.median(p["total_s"] for p in passes),
        "problem_p50_ms": 1000 * statistics.median(latencies),
        "problem_p90_ms": 1000 * statistics.quantiles(
            latencies, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "answered_frac": (attempted - failed) / attempted,
        "answers_match": matched / attempted,
    }


def per_layer(passes: list[dict], names) -> dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = {name: statistics.median(p["layers"][name] for p in traced)
           for name in names if name != "trace.overhead_frac"}
    out["trace.overhead_frac"] = (statistics.median(p["total_s"] for p in traced)
                                  / statistics.median(p["total_s"] for p in plain) - 1)
    return out


def count_matches(passes: list[dict], pinned: dict) -> int:
    return sum(1 for p in passes for pid, answer in p["answers"].items()
               if pinned["answers"].get(pid) == answer)


def main(argv=None) -> int:
    started = perf_counter()
    require_checkout()

    import numpy

    import tracing
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    worked_ok, worked_detail = check_worked_problem()
    inputs = workloads.prepare(args.workload, OUT / "inputs")
    pinned = json.loads((HERE / "pins.json").read_text("utf-8"))[args.workload]
    passes = run_passes(args.workload, inputs, args.seed, args.seconds,
                        bool(args.trace), started)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    matched = count_matches(passes, pinned)
    if args.trace:
        units = declared_units("per_layer")
        metrics = per_layer(passes, units)
    else:
        units = declared_units("end_to_end")
        metrics = end_to_end(passes, attempted, failed, matched)
    traced = [p for p in passes if p["traced"]]
    details = {
        "workload": args.workload, "seed": args.seed,
        "passes": len(passes), "traced_passes": len(traced),
        "latency_samples": sum(len(p["latencies_s"]) for p in passes),
        "setup_samples": sum(len(p["setup_samples_s"]) for p in passes),
        "report_sha256": sorted({p["report_sha256"] for p in passes}),
        "pinned_report_sha256": pinned["report_sha256"],
        "worked_problem": {"ok": worked_ok, "detail": worked_detail},
        "failures": [f for p in passes for f in p["failures"]],
        "absent_layers": sorted({a for p in traced for a in p["absent"]}),
        "trace_self_minus_total_s": [
            sum(p["layers"][m] for m in set(tracing.LAYER_OF_SPAN.values()))
            - p["layers"]["trace.total_s"] for p in traced],
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": worked_ok and matched == attempted,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
