"""Seeded input generators and pipeline settings for the three workloads.

Each workload has a fixed corpus (graph dump, vector table, problem set,
and for ``reason`` the per-text formula files), written once per checkout
by ``prepare`` and reused by every run.  The run seed only chooses the
order in which the problems are sent: seed 0 keeps the generated order,
any other seed shuffles it.  Problems are answered independently, so every
seed has the same pinned answers and the same report bytes.

* ``scale`` is the scale-smoke fixture of ``tests/test_acceptance.py``
  (``_write_scale_fixture``), byte for byte.
* ``reason`` is a small graph with ``fol_file`` facts, the inverse
  translation and no prefilter, so saturation dominates.
* ``ingest`` is a ConceptNet-style assertions dump plus a 300-d table, so
  set-up (the two loaders and the prefilter build) is half of a pass.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from corg.kg import RelationFilter, default_relation_whitelist
from corg.pipeline import CopaProblem, PipelineConfig
from corg.selection import SineConfig

# Bump when a generator's output changes, so cached inputs are rebuilt.
GENERATOR_VERSION = "3"


def word_name(i: int, prefix: str = "w") -> str:
    """Letters-only vocabulary word: prefix plus four base-26 digits."""
    letters = []
    for _ in range(4):
        letters.append(chr(ord("a") + i % 26))
        i //= 26
    return prefix + "".join(letters)


def _write_table(path: Path, words: list[str], vecs: np.ndarray, digits: int,
                 header: bool):
    row_format = " ".join([f"%.{digits}f"] * vecs.shape[1])
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"{len(words)} {vecs.shape[1]}\n")
        for w, v in zip(words, vecs.tolist()):
            fh.write(w + " " + row_format % tuple(v) + "\n")


def _clustered_unit_vectors(rng: np.random.Generator, n: int, dim: int,
                            n_centers: int, noise: float) -> np.ndarray:
    centers = rng.normal(size=(n_centers, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    jitter = rng.normal(size=(n, dim))
    jitter /= np.linalg.norm(jitter, axis=1, keepdims=True)
    vecs = centers[np.arange(n) % n_centers] + noise * jitter
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def _write_problems(path: Path, problems: list[CopaProblem]):
    rows = [{"id": p.id, "premise": p.premise, "question": p.question,
             "alternatives": p.alternatives, "gold": p.gold} for p in problems]
    path.write_text(json.dumps(rows, indent=0) + "\n", "utf-8")


# ------------------------------------------------------------------ scale


def write_scale(out: Path, n_words=50_000, n_triples=100_000, n_problems=100,
                dim=16, concept_pool=2000) -> list[CopaProblem]:
    """The scale-smoke fixture: vectors.txt, dump.tsv and 100 problems."""
    rng = np.random.default_rng(60221)
    centers = rng.normal(size=(500, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    noise = rng.normal(size=(n_words, dim))
    vecs = 0.98 * centers[np.arange(n_words) % 500] + 0.02 * noise
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    words = [word_name(i) for i in range(n_words)]
    _write_table(out / "vectors.txt", words, vecs, digits=6, header=True)

    pool = words[:concept_pool]
    relations = ["causes", "is_a", "at_location", "used_for", "desires"]
    pick = np.random.default_rng(8675309)
    with open(out / "dump.tsv", "w", encoding="utf-8") as fh:
        for _ in range(n_triples):
            s, o = pick.choice(concept_pool, size=2)
            rel = relations[int(pick.integers(len(relations)))]
            fh.write(f"{pool[s]}\t{rel}\t{pool[o]}\n")

    prng = random.Random(577215)
    problems = []
    for pid in range(1, n_problems + 1):
        def sentence():
            return " ".join(prng.sample(pool, prng.randrange(3, 7))) + "."
        problems.append(CopaProblem(pid, sentence(), "cause",
                                    [sentence(), sentence()],
                                    gold=prng.choice([1, 2])))
    return problems


# ----------------------------------------------------------------- reason

_ROLES = ["r1Actor", "r2Theme", "r3Goal"]


def _event_formula(words: list[str]) -> str:
    """exists A (w1(A) & exists B (r1Actor(B,A) & w2(B) & exists C (...)))"""
    variables = [chr(ord("A") + k) for k in range(len(words))]
    text = f"{words[-1]}({variables[-1]})"
    for k in range(len(words) - 2, -1, -1):
        role = _ROLES[k % len(_ROLES)]
        text = (f"{words[k]}({variables[k]}) & exists {variables[k + 1]} "
                f"({role}({variables[k + 1]},{variables[k]}) & {text})")
    return f"exists {variables[0]} ({text})"


def write_reason(out: Path, n_words=5000, dim=50, n_concepts=600,
                 n_triples=3000, n_problems=12) -> list[CopaProblem]:
    """Small graph, 50-d table and one formula file per problem text."""
    rng = np.random.default_rng(1912)
    words = [word_name(i, "q") for i in range(n_words)]
    vecs = _clustered_unit_vectors(rng, n_words, dim, n_centers=60, noise=0.6)
    _write_table(out / "vectors.txt", words, vecs, digits=6, header=False)

    concepts = words[:n_concepts]
    relations = ["Causes", "IsA", "AtLocation", "UsedFor", "HasSubevent",
                 "CapableOf"]
    with open(out / "dump.tsv", "w", encoding="utf-8") as fh:
        fh.write("# subject\trelation\tobject\tweight\n")
        for _ in range(n_triples):
            s, o = rng.choice(n_concepts, size=2, replace=False)
            rel = relations[int(rng.integers(len(relations)))]
            fh.write(f"{concepts[s]}\t{rel}\t{concepts[o]}\t"
                     f"{rng.uniform(0.5, 4.0):.3f}\n")

    fol_dir = out / "fol"
    fol_dir.mkdir()
    prng = random.Random(12957)
    problems = []
    for pid in range(1, n_problems + 1):
        texts = [prng.sample(concepts, prng.randrange(2, 4)) for _ in range(3)]
        for role, text in zip(("premise", "a1", "a2"), texts):
            (fol_dir / f"{pid}_{role}.p").write_text(
                _event_formula(text) + "\n", "utf-8")
        sentences = [" ".join(t) + "." for t in texts]
        problems.append(CopaProblem(pid, sentences[0], prng.choice(["cause", "effect"]),
                                    sentences[1:], gold=prng.choice([1, 2])))
    return problems


# ----------------------------------------------------------------- ingest

_KEPT_RELATIONS = ["IsA", "PartOf", "CapableOf", "Desires", "Causes",
                   "AtLocation", "HasSubevent", "UsedFor", "HasProperty",
                   "HasPrerequisite", "MotivatedByGoal", "ReceivesAction",
                   "MadeOf", "Antonym", "NotDesires"]
_DROPPED_RELATIONS = ["RelatedTo", "Synonym", "FormOf", "DerivedFrom",
                      "EtymologicallyRelatedTo", "HasContext"]
_OTHER_LANGUAGES = ["fr", "de", "ja", "es", "it"]


def _assertion(rel: str, start: str, end: str, weight: float) -> str:
    meta = json.dumps({
        "dataset": "/d/conceptnet/4/en",
        "license": "cc:by/4.0",
        "sources": [{"contributor": "/s/contributor/omcs/bench",
                     "process": "/s/process/split_words"}],
        "weight": weight,
    })
    return f"/a/[/r/{rel}/,{start}/,{end}/]\t/r/{rel}\t{start}\t{end}\t{meta}\n"


def write_ingest(out: Path, n_words=30_000, dim=300, n_lines=150_000,
                 n_single=3000, n_multi=1300, n_problems=25) -> list[CopaProblem]:
    """ConceptNet-style assertions dump (about 46% of lines filtered out)
    and a 300-d table with a header; 30% of concepts are multiword."""
    rng = np.random.default_rng(2019)
    words = [word_name(i, "v") for i in range(n_words)]
    vecs = _clustered_unit_vectors(rng, n_words, dim, n_centers=400, noise=0.5)
    _write_table(out / "vectors.txt", words, vecs, digits=5, header=True)

    singles = words[:n_single]
    multis = ["_".join(singles[j] for j in rng.choice(n_single, size=int(k),
                                                      replace=False))
              for k in rng.integers(2, 4, size=n_multi)]
    concepts = singles + multis
    kinds = rng.choice(4, size=n_lines, p=[0.54, 0.20, 0.22, 0.04])
    ends = rng.integers(len(concepts), size=(n_lines, 2))
    suffixes = ["", "", "/n", "/v"]
    with open(out / "dump.csv", "w", encoding="utf-8") as fh:
        for kind, (s, o) in zip(kinds.tolist(), ends.tolist()):
            start = f"/c/en/{concepts[s]}{suffixes[s % 4]}"
            end = f"/c/en/{concepts[o]}"
            weight = round(float(rng.uniform(0.1, 5.0)), 3)
            if kind == 0:
                rel = _KEPT_RELATIONS[int(rng.integers(len(_KEPT_RELATIONS)))]
            elif kind == 1:
                rel = _KEPT_RELATIONS[int(rng.integers(len(_KEPT_RELATIONS)))]
                lang = _OTHER_LANGUAGES[int(rng.integers(len(_OTHER_LANGUAGES)))]
                end = f"/c/{lang}/{concepts[o]}"
            elif kind == 2:
                rel = _DROPPED_RELATIONS[int(rng.integers(len(_DROPPED_RELATIONS)))]
            else:
                rel = "ExternalURL"
                end = f"http://dbpedia.org/resource/{concepts[o]}"
            fh.write(_assertion(rel, start, end, weight))

    prng = random.Random(1207)
    problems = []
    for pid in range(1, n_problems + 1):
        def sentence():
            return "The " + " ".join(prng.sample(singles, prng.randrange(3, 7))) + "."
        problems.append(CopaProblem(pid, sentence(), prng.choice(["cause", "effect"]),
                                    [sentence(), sentence()],
                                    gold=prng.choice([1, 2])))
    return problems


# --------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    write: Callable[[Path], list[CopaProblem]]
    kg_file: str
    whitelist: bool  # load with the shipped relation whitelist, as the CLI does
    config: Callable[[Path], PipelineConfig]
    setups: int  # set-ups per untraced pass, for the set-up median

    def relation_filter(self) -> RelationFilter:
        return RelationFilter(allowed=default_relation_whitelist()
                              if self.whitelist else None)


WORKLOADS = {
    "scale": Workload(
        write_scale, "dump.tsv", whitelist=False,
        config=lambda d: PipelineConfig(prefilter_theta=0.8), setups=2),
    "reason": Workload(
        write_reason, "dump.tsv", whitelist=True,
        config=lambda d: PipelineConfig(
            include_inverse=True, fact_mode="fol_file", fol_dir=d / "fol",
            prefilter_theta=-1.0, sine=SineConfig(max_depth=3)), setups=5),
    "ingest": Workload(
        write_ingest, "dump.csv", whitelist=True,
        config=lambda d: PipelineConfig(
            prefilter_theta=0.7, sine=SineConfig(similarity_threshold=0.9)),
        setups=1),
}


def prepare(name: str, root: Path) -> Path:
    """Directory holding the workload's inputs, generated on first use."""
    target = root / f"{name}-v{GENERATOR_VERSION}"
    if (target / "problems.json").exists():
        return target
    staging = root / f"{name}.partial"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    problems = WORKLOADS[name].write(staging)
    _write_problems(staging / "problems.json", problems)
    shutil.rmtree(target, ignore_errors=True)
    staging.rename(target)
    return target


def load_problems(inputs: Path, seed: int) -> list[CopaProblem]:
    """The workload's problems in the order the seed gives them."""
    rows = json.loads((inputs / "problems.json").read_text("utf-8"))
    problems = [CopaProblem(r["id"], r["premise"], r["question"],
                            r["alternatives"], r["gold"]) for r in rows]
    if seed:
        random.Random(seed).shuffle(problems)
    return problems
