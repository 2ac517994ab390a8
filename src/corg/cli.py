"""Command-line entry point.

    corg run --copa problems.xml --kg dump.tsv --embeddings vectors.txt
             [--relations file] [--inverse] [--scheme factual|existential]
             [--sine-tolerance R] [--sine-depth N] [--sim-threshold R]
             [--prefilter-theta R] [--fol-dir DIR] [--report out.jsonl]
             [--export-tptp DIR] [--explain PROBLEM-ID]

Exit codes: 0 success, 1 an input could not be read or a problem failed
(the report is still written, with an error row per failed problem),
2 bad arguments.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .embeddings import load_table
from .errors import CorgError
from .kg import (RelationFilter, default_relation_whitelist, load_graph,
                 load_relation_whitelist)
from .model import explain
from .pipeline import Pipeline, PipelineConfig, export_tptp, parse_copa_xml
from .selection import SineConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corg",
        description="Score COPA-style problems with knowledge-graph reasoning")
    parser.add_argument("--version", action="version", version=f"corg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate COPA problems end to end")
    run.add_argument("--copa", required=True, help="COPA XML problem file")
    run.add_argument("--kg", required=True, help="triple dump (assertions or plain TSV)")
    run.add_argument("--embeddings", required=True, help="word vector table")
    run.add_argument("--relations", help="relation whitelist file (default: shipped list)")
    run.add_argument("--inverse", action="store_true",
                     help="also translate each edge object-to-subject; this doubles each "
                          "concept's occurrence count but not a relation's, so selection "
                          "can drop axioms that it picks without inverses")
    run.add_argument("--scheme", choices=("factual", "existential"),
                     default=PipelineConfig.scheme, help="triple translation scheme")
    run.add_argument("--sine-tolerance", type=float, default=SineConfig.tolerance, metavar="R")
    run.add_argument("--sine-depth", type=_depth, default=SineConfig.max_depth, metavar="N",
                     help="selection depth (>= 0); 0 iterates to the fixpoint")
    run.add_argument("--sim-threshold", type=float,
                     default=SineConfig.similarity_threshold, metavar="R",
                     help="enable similarity-widened goal seeding at this threshold "
                          "on cosines clipped to [-1, 1] (-1 seeds every symbol)")
    run.add_argument("--prefilter-theta", type=float,
                     default=PipelineConfig.prefilter_theta, metavar="R",
                     help="prefilter threshold on cosines clipped to [-1, 1]; -1 keeps all")
    run.add_argument("--fol-dir", help="sidecar formula directory (switches on fol_file mode)")
    run.add_argument("--report", help="write the JSONL report here instead of stdout")
    run.add_argument("--export-tptp", metavar="DIR",
                     help="write per-text TPTP files for every problem")
    run.add_argument("--explain", type=int, metavar="PROBLEM-ID",
                     help="print derivation trees for this problem's chosen alternative")
    return parser


def _depth(text: str) -> int:
    """A ``--sine-depth`` value: an int >= 0."""
    try:
        depth = int(text)
    except ValueError:
        depth = -1
    if depth < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return depth


def _config(args) -> PipelineConfig:
    """Pipeline configuration from the options; ValueError on a bad value."""
    return PipelineConfig(
        scheme=args.scheme,
        include_inverse=args.inverse,
        fact_mode="fol_file" if args.fol_dir else "bag_of_words",
        fol_dir=Path(args.fol_dir) if args.fol_dir else None,
        prefilter_theta=args.prefilter_theta,
        sine=SineConfig(
            tolerance=args.sine_tolerance,
            max_depth=None if args.sine_depth == 0 else args.sine_depth,
            similarity_threshold=args.sim_threshold,
        ),
    )


def _relation_filter(args) -> RelationFilter:
    """Relation filter from --relations; ValueError when it names no relation."""
    whitelist = (load_relation_whitelist(args.relations) if args.relations
                 else default_relation_whitelist())
    return RelationFilter(allowed=whitelist)


def _run(args, config: PipelineConfig, relation_filter: RelationFilter) -> int:
    graph = load_graph(args.kg, relation_filter)
    table = load_table(args.embeddings)
    problems = parse_copa_xml(args.copa)
    pipeline = Pipeline(graph, table, config)
    report = pipeline.evaluate(problems)

    jsonl = report.to_jsonl()
    if args.report:
        Path(args.report).write_text(jsonl, "utf-8")
    else:
        sys.stdout.write(jsonl)

    for failure in report.failures:
        print(f"error: {failure.error}", file=sys.stderr)

    if args.export_tptp:
        for result in report.results:
            export_tptp(result, args.export_tptp)

    if args.explain is not None:
        result = next((r for r in report.results if r.problem.id == args.explain), None)
        if result is None:
            print(f"error: no answered problem with id {args.explain}", file=sys.stderr)
            return 1
        chosen = result.texts[result.choice.index]  # texts[0] is the premise
        print(f"problem {result.problem.id}: chose alternative {result.choice.index} "
              f"({result.problem.alternatives[result.choice.index - 1]!r})")
        derived = [s for s in chosen.model.trace if s.clause_origin is not None]
        if not derived:
            print("no derivations; the model is the input facts alone")
        for step in derived:
            print(explain(chosen.model, step.derived))
            print()
    return 1 if report.failures else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            config = _config(args)
            relation_filter = _relation_filter(args)
        except ValueError as e:
            parser.error(str(e))  # exits with code 2
        return _run(args, config, relation_filter)
    except (CorgError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
