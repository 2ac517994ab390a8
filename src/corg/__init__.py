"""corg: knowledge-graph reasoning for choice-of-plausible-alternative problems.

The pipeline compiles knowledge-graph triples into first-order axioms,
selects the problem-relevant ones, forward-chains a bounded partial model
per answer candidate, and scores candidates against the premise with word
embeddings.  Everything is deterministic.
"""

__version__ = "0.1.0"

from .embeddings import EmbeddingTable, load_table, split_identifier
from .errors import CorgError
from .fol import (AnnotatedFormula, And, Atom, Clause, Constant, Exists,
                  Forall, Formula, Function, Iff, Implies, Not, Or, Term,
                  Variable, clausify, format_atom, format_formula, is_closed,
                  parse_fol, parse_tptp, relation_predicate, symbols,
                  to_tptp, translate_existential, translate_factual,
                  translate_inverse)
from .kg import (KnowledgeGraph, RelationFilter, Triple,
                 default_relation_whitelist, load_graph,
                 load_relation_whitelist, normalize_concept,
                 normalize_relation)
from .model import (BuilderConfig, DerivationStep, PartialModel, explain,
                    extract_symbols, saturate, trace_json)
from .pipeline import (CopaProblem, Pipeline, PipelineConfig, ProblemFailure,
                       ProblemResult, RunReport, TextResult, content_words,
                       export_tptp, parse_copa_xml, text_to_facts)
from .scorer import Choice, choose, embed_sequence, likelihoods, score_pair
from .selection import (AxiomIndex, Cosines, Prefilter, SineConfig, SymbolTable,
                        TripleColumns, build_index, similarity_sine_select,
                        sine_select)

__all__ = [
    # embeddings
    "EmbeddingTable", "load_table", "split_identifier",
    # errors
    "CorgError",
    # first-order logic
    "AnnotatedFormula", "And", "Atom", "Clause", "Constant", "Exists", "Forall",
    "Formula", "Function", "Iff", "Implies", "Not", "Or", "Term", "Variable",
    "clausify", "format_atom", "format_formula", "is_closed", "parse_fol",
    "parse_tptp", "relation_predicate", "symbols", "to_tptp",
    "translate_existential", "translate_factual", "translate_inverse",
    # knowledge graph
    "KnowledgeGraph", "RelationFilter", "Triple",
    "default_relation_whitelist", "load_graph", "load_relation_whitelist",
    "normalize_concept", "normalize_relation",
    # partial models
    "BuilderConfig", "DerivationStep", "PartialModel", "explain",
    "extract_symbols", "saturate", "trace_json",
    # pipeline
    "CopaProblem", "Pipeline", "PipelineConfig", "ProblemFailure",
    "ProblemResult", "RunReport", "TextResult", "content_words", "export_tptp",
    "parse_copa_xml", "text_to_facts",
    # scoring
    "Choice", "choose", "embed_sequence", "likelihoods", "score_pair",
    # selection
    "AxiomIndex", "Cosines", "Prefilter", "SineConfig", "SymbolTable", "TripleColumns",
    "build_index", "similarity_sine_select", "sine_select",
]
