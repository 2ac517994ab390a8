"""One cold pass of a workload, as a ``corg run`` user pays it.

    python3 benchmarks/worker.py --workload NAME --inputs DIR --seed N
                                 [--spans FILE]

Loads the graph and the table, builds the Pipeline, answers every problem
with ``Pipeline.run_problem`` back to back and serializes the report, all
in this fresh process.  A problem whose ``run_problem`` raises is counted
as failed and the pass goes on.  Prints one JSON object: set-up, loop and
total times, per-problem latencies and answers, failures, the report
sha256 and the peak RSS.  With ``--spans`` the pass is traced: the output
adds the per-layer self times and counts, and the spans go to FILE.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from corg.embeddings import load_table  # noqa: E402
from corg.kg import load_graph  # noqa: E402
from corg.pipeline import Pipeline, RunReport  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, load_problems  # noqa: E402


def pinned_fields(row: dict) -> dict:
    """The parts of a report row that the answer pins compare."""
    return {
        "chosen": row["chosen"], "tie": row["tie"], "scores": row["scores"],
        "likelihoods": row["likelihoods"],
        "texts": [[t["n_selected"], t["model_atoms"], t["complete"]]
                  for t in row["texts"]],
    }


def run_pass(name: str, inputs: Path, seed: int, tracer: Tracer) -> dict:
    workload = WORKLOADS[name]
    config = workload.config(inputs)
    relation_filter = workload.relation_filter()
    problems = load_problems(inputs, seed)
    tracer.install()

    # Set-up is repeated for a steadier median and the last one is used; the
    # previous one is dropped first, so the peak RSS holds a single set-up.
    setup_samples = []
    for _ in range(1 if tracer.enabled else workload.setups):
        graph = table = pipeline = None
        start = perf_counter()
        with tracer.span("kg.load"):
            graph = load_graph(inputs / workload.kg_file, relation_filter)
        with tracer.span("embeddings.load"):
            table = load_table(inputs / "vectors.txt")
        with tracer.span("pipeline.init"):
            pipeline = Pipeline(graph, table, config)
        ready = perf_counter()
        setup_samples.append(ready - start)

    results, latencies, failures = [], [], []
    for problem in problems:
        tracer.problem = problem.id
        begin = perf_counter()
        try:
            with tracer.span("pipeline.run_problem"):
                results.append(pipeline.run_problem(problem))
        except Exception as e:  # a failed problem is counted, never fatal
            failures.append({"problem_id": problem.id, "type": type(e).__name__})
        latencies.append(perf_counter() - begin)
    tracer.problem = None
    with tracer.span("pipeline.report"):
        results.sort(key=lambda r: r.problem.id)
        report = RunReport(results).to_jsonl()
    done = perf_counter()

    rows = [json.loads(line) for line in report.splitlines()[:-1]]
    out = {
        "setup_samples_s": setup_samples,
        "loop_s": done - ready,
        "total_s": done - start,
        "attempted": len(problems),
        "latencies_s": latencies,
        "failures": failures,
        "answers": {str(r["problem_id"]): pinned_fields(r) for r in rows},
        "report_sha256": hashlib.sha256(report.encode("utf-8")).hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer.enabled:
        counts = tracer.counts
        texts = max(1, counts["saturate.texts"])
        layers = tracer.layers()
        layers.update({
            "kg.triples_kept": graph.stats.kept,
            "kg.lines_skipped": graph.stats.total_skipped,
            "embeddings.words": len(table),
            "selection.prefilter_keep_frac": counts["prefilter.kept"]
                / max(1, counts["calls.selection.prefilter"] * len(graph)),
            "selection.index_axioms": counts["index.axioms"]
                / max(1, counts["calls.selection.index"]),
            "selection.select_frac": counts["select.frac_sum"]
                / max(1, counts["select.texts"]),
            "model.atoms_per_text": counts["saturate.atoms"] / texts,
            "model.incomplete_frac": counts["saturate.incomplete"] / texts,
        })
        out["layers"] = layers
        out["absent"] = tracer.absent
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spans", type=Path,
                        help="trace the pass and write its spans here (gzip JSONL)")
    args = parser.parse_args(argv)
    tracer = Tracer(enabled=args.spans is not None)
    out = run_pass(args.workload, args.inputs, args.seed, tracer)
    if args.spans is not None:
        tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
