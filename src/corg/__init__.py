"""corg: knowledge-graph reasoning for choice-of-plausible-alternative problems.

The pipeline compiles knowledge-graph triples into first-order axioms,
selects the problem-relevant ones, forward-chains a bounded partial model
per answer candidate, and scores candidates against the premise with word
embeddings.  Everything is deterministic.
"""

__version__ = "0.1.0"

from .embeddings import EmbeddingTable, OovPolicy, cosine, load_table, split_identifier
from .errors import CorgError
from .fol import (AnnotatedFormula, And, Atom, Clause, Constant, Exists,
                  Forall, Formula, Function, Iff, Implies, Not, Or, Term,
                  Variable, clausify, format_atom, format_formula, is_closed,
                  parse_fol, parse_tptp, relation_predicate, symbols,
                  to_tptp, translate_existential, translate_factual,
                  translate_inverse, triple_symbols)
from .kg import (KnowledgeGraph, RelationFilter, Skip, Triple,
                 default_relation_whitelist, load_graph,
                 load_relation_whitelist, normalize_concept,
                 normalize_relation, parse_assertion_line, parse_plain_line)
from .model import (BuilderConfig, DerivationStep, ExtractionConfig,
                    PartialModel, atom_depth, explain, extract_symbols,
                    model_lines, saturate, term_depth, trace_json)
from .pipeline import (CopaProblem, Pipeline, PipelineConfig, ProblemResult,
                       RunReport, TextResult, content_words, export_tptp,
                       parse_copa_xml, text_to_facts)
from .scorer import (Choice, ScorerConfig, ScoreVector, choose,
                     embed_sequence, likelihoods, score_pair)
from .selection import (AxiomIndex, Prefilter, SineConfig, build_index,
                        similarity_sine_select, sine_select)

__all__ = [name for name in dir() if not name.startswith("_")]
