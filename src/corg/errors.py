"""Exception types shared across the corg package."""


class CorgError(Exception):
    """Base class for all corg errors."""


# --- knowledge graph and vector table loading ---

class MalformedLine(CorgError):
    """A vector-table or relation-whitelist line that cannot be read
    (invalid UTF-8, a vector component that is not finite, a table header
    whose word count is not the number of vector lines, a table row that
    cannot be read again after the load, a negated whitelist entry).  A
    malformed graph line is not raised: ``load_graph`` counts it under
    ``"malformed"``."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class CorruptArchive(CorgError):
    """A ``.gz`` dump that is not gzip data or does not decompress."""


class NoTriplesLoaded(CorgError):
    """Every line of a dump was skipped; the filter or the file is wrong."""


# --- first-order logic ---

class ParseError(CorgError):
    """Formula text that does not match the supported grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnsupportedFragment(CorgError):
    """Formula outside the quantifier fragment the clausifier handles."""


# --- embeddings ---

class DimensionMismatch(CorgError):
    """Vector length disagrees with the table dimension."""


# --- model builder ---

class NonHornClause(CorgError):
    """Clause with more than one positive literal."""


class NonRangeRestrictedClause(CorgError):
    """Clause head uses a variable that never occurs in the body."""


class AtomNotInModel(CorgError):
    """explain() target is not part of the model."""


# --- scoring ---

class BadCardinality(CorgError):
    """Likelihoods need at least two alternatives."""


# --- pipeline ---

class XmlError(CorgError):
    """COPA XML that does not parse or has unexpected nesting."""


class MissingField(CorgError):
    """A COPA item lacks a required element or attribute."""

    def __init__(self, item_id: str, field: str):
        super().__init__(f"item {item_id}: missing {field}")
        self.item_id = item_id
        self.field = field


class InvalidField(CorgError):
    """A COPA item attribute holds a value the format does not allow."""

    def __init__(self, item_id: str, field: str, value: str, reason: str):
        super().__init__(f"item {item_id}: {field} {value!r} {reason}")
        self.item_id = item_id
        self.field = field
        self.value = value


class MissingFormula(CorgError):
    """fol_file mode found no sidecar formula for (problem id, text role)."""

    def __init__(self, problem_id: int, role: str):
        super().__init__(f"no formula file for problem {problem_id}, role {role}")
        self.problem_id = problem_id
        self.role = role


class UnreadableFormula(CorgError):
    """fol_file mode found a sidecar formula path it cannot read (a
    directory, no read permission, an I/O error)."""


class StageError(CorgError):
    """Pipeline stage failure, annotated with problem id and stage name."""

    def __init__(self, problem_id: int, stage: str, cause: Exception):
        super().__init__(f"problem {problem_id}, stage {stage}: {cause}")
        self.problem_id = problem_id
        self.stage = stage
        self.cause = cause
