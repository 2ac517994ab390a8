"""Self-test of the benchmark's own parts; exits non-zero on any failure.

    python3 benchmarks/selftest.py

* The scale generator with the default seed reproduces the files of
  ``_write_scale_fixture`` (tests/test_acceptance.py) byte for byte, and
  the same problems in the same order.
* Tracing the worked problem gives spans whose self times sum to the
  root spans' total, with every named layer present.
* Wrapping a function that does not exist reports it absent instead of
  failing.
"""

from __future__ import annotations

import shutil
import sys

from run import OUT, require_checkout


def check_scale_fixture() -> list[str]:
    from test_acceptance import _write_scale_fixture

    import workloads

    base = OUT / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    ours = workloads.prepare("scale", base)
    theirs = base / "fixture"
    theirs.mkdir()
    kg_path, vec_path, expected = _write_scale_fixture(theirs)
    errors = [f"{path.name} differs from the fixture"
              for path in (kg_path, vec_path)
              if (ours / path.name).read_bytes() != path.read_bytes()]
    if workloads.load_problems(ours, seed=0) != expected:
        errors.append("seed-0 problems differ from the fixture")
    shutil.rmtree(base)
    return errors


def check_tracer() -> list[str]:
    import numpy as np

    from conftest import FIG_EDGES
    from corg.embeddings import EmbeddingTable
    from corg.kg import KnowledgeGraph
    from corg.pipeline import CopaProblem, Pipeline
    from oracles import COPA1_VECTORS

    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    problem = CopaProblem(1, "My body cast a shadow over the grass.", "cause",
                          ["The sun was rising.", "The grass was cut."])
    table = EmbeddingTable(2, {w: np.array(v) for w, v in COPA1_VECTORS.items()})
    with tracer.span("pipeline.init"):
        pipeline = Pipeline(KnowledgeGraph.from_tuples(FIG_EDGES), table)
    tracer.problem = 1
    with tracer.span("pipeline.run_problem"):
        pipeline.run_problem(problem)

    errors = []
    layers = tracer.layers()
    self_sum = sum(layers[m] for m in set(tracing.LAYER_OF_SPAN.values()))
    if abs(self_sum - layers["trace.total_s"]) > 1e-9:
        errors.append(f"self times sum to {self_sum}, total is {layers['trace.total_s']}")
    if any(parent >= index for index, (_, _, _, parent, _) in enumerate(tracer.spans)):
        errors.append("a span's parent does not precede it")
    seen = {name for name, *_ in tracer.spans}
    expected = {"pipeline.init", "selection.prefilter_build", "pipeline.run_problem",
                "selection.prefilter", "fol.translate", "selection.index",
                "fol.parse", "fol.symbols", "selection.select", "fol.clausify",
                "model.saturate", "model.extract", "scorer.score"}
    if expected - seen:
        errors.append(f"layers without spans: {sorted(expected - seen)}")

    tracer.wrap("corg.pipeline", "Gone.build_index", "selection.index")
    if tracer.absent != ["corg.pipeline.Gone.build_index"]:
        errors.append(f"missing function not reported absent: {tracer.absent}")
    return errors


def main() -> int:
    require_checkout()
    errors = check_scale_fixture() + check_tracer()
    for error in errors:
        print(f"FAIL {error}")
    print("selftest:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
