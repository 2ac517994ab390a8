import builtins
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from corg import CopaProblem, EmbeddingTable, KnowledgeGraph

FIG_EDGES = [
    ("sun", "Causes", "light"),
    ("shadow", "AtLocation", "light"),
    ("shadow", "AtLocation", "ground"),
    ("grass", "AtLocation", "ground"),
]


@contextmanager
def opened_files():
    """The list of every file that ``open`` opens in the block, ``gzip.open``'s too."""
    files, real_open = [], builtins.open

    def spy(*args, **kwargs):
        files.append(real_open(*args, **kwargs))
        return files[-1]

    with mock.patch("builtins.open", spy):
        yield files


@pytest.fixture
def fig_graph() -> KnowledgeGraph:
    """The four-edge sun/light/shadow/ground/grass fixture graph."""
    return KnowledgeGraph.from_tuples(FIG_EDGES)


@pytest.fixture
def fig_table() -> EmbeddingTable:
    """2-d vectors clustering sun/rising/light/shadow against grass/ground."""
    entries = {
        "sun": np.array([1.0, 0.0]),
        "rising": np.array([1.0, 0.0]),
        "light": np.array([1.0, 0.0]),
        "shadow": np.array([1.0, 0.0]),
        "grass": np.array([0.0, 1.0]),
        "ground": np.array([0.0, 1.0]),
        "cut": np.array([-1.0, 0.0]),
    }
    return EmbeddingTable(2, entries)


@pytest.fixture
def copa1() -> CopaProblem:
    return CopaProblem(
        id=1,
        premise="My body cast a shadow over the grass.",
        question="cause",
        alternatives=["The sun was rising.", "The grass was cut."],
        gold=1,
    )


COPA_XML = """<?xml version="1.0" encoding="UTF-8"?>
<copa-corpus version="1.0">
<item id="1" asks-for="cause" most-plausible-alternative="1">
<p>My body cast a shadow over the grass.</p>
<a1>The sun was rising.</a1>
<a2>The grass was cut.</a2>
</item>
</copa-corpus>
"""


@pytest.fixture
def copa_xml_path(tmp_path):
    path = tmp_path / "copa.xml"
    path.write_text(COPA_XML, "utf-8")
    return path


@pytest.fixture
def fig_graph_path(tmp_path):
    lines = "\n".join("\t".join(edge) for edge in FIG_EDGES)
    path = tmp_path / "fig.tsv"
    path.write_text(lines + "\n", "utf-8")
    return path


@pytest.fixture
def fig_table_path(tmp_path):
    rows = [
        "sun 1.0 0.0",
        "rising 1.0 0.0",
        "light 1.0 0.0",
        "shadow 1.0 0.0",
        "grass 0.0 1.0",
        "ground 0.0 1.0",
        "cut -1.0 0.0",
    ]
    path = tmp_path / "vectors.txt"
    path.write_text("\n".join(rows) + "\n", "utf-8")
    return path
