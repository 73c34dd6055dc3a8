"""Exception hierarchy for the null-relations reproduction library.

Every error raised by the library derives from :class:`ReproError`, so a
caller can distinguish library failures from programming mistakes with a
single ``except`` clause.  The hierarchy mirrors the conceptual layers of
the paper:

* schema-level problems (:class:`SchemaError`, :class:`AttributeNotFound`,
  :class:`DomainError`),
* tuple-lattice problems (:class:`NotJoinableError`),
* algebra problems (:class:`AlgebraError`, :class:`UnionCompatibilityError`),
* query-language problems (:class:`QuelError` and its lexer/parser/semantic
  subclasses),
* constraint violations (:class:`ConstraintViolation` and subclasses).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class SchemaError(ReproError):
    """A relation schema is malformed or used inconsistently."""


class AttributeNotFound(SchemaError):
    """An attribute name was referenced that the schema does not declare."""

    def __init__(self, attribute: str, available=None):
        self.attribute = attribute
        self.available = tuple(available) if available is not None else None
        message = f"attribute {attribute!r} not found"
        if self.available is not None:
            message += f" (available: {', '.join(self.available)})"
        super().__init__(message)


class DomainError(ReproError):
    """A value lies outside the (extended) domain of its attribute."""


class NotJoinableError(ReproError):
    """The tuple join ``r1 v r2`` was requested for non-joinable tuples.

    Section 3 of the paper only defines the join of two tuples when, for
    every attribute on which both are non-null, their values agree.
    """


class AlgebraError(ReproError):
    """An extended relational-algebra operation was applied incorrectly."""


class UnionCompatibilityError(AlgebraError):
    """A classical (Codd) operation required union-compatible operands.

    x-relations never raise this: closure under the extended operators is
    the point of Section 7.  It is raised only by the Codd-relation
    baseline, which retains the classical preconditions.
    """


class QuelError(ReproError):
    """Base class for errors in the QUEL front end."""


class QuelLexError(QuelError):
    """The QUEL lexer met an unexpected character."""

    def __init__(self, message: str, position: int, line: int, column: int):
        self.position = position
        self.line = line
        self.column = column
        super().__init__(f"{message} at line {line}, column {column}")


class QuelParseError(QuelError):
    """The QUEL parser met an unexpected token."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} at line {line}, column {column}"
        super().__init__(message)


class StatementTooComplex(QuelParseError):
    """A statement is over one of the front end's budgets in
    :mod:`repro.limits`: too many bytes, or expressions nested too deep."""


class QuelSemanticError(QuelError):
    """A QUEL query refers to unknown ranges, attributes, or mistyped terms."""


class ConstraintViolation(ReproError):
    """An integrity constraint was violated by an update."""


class KeyViolation(ConstraintViolation):
    """A key (uniqueness) constraint was violated."""


class NotNullViolation(ConstraintViolation):
    """A NOT NULL constraint was violated."""


class ReferentialViolation(ConstraintViolation):
    """A referential-integrity (foreign key) constraint was violated."""


class StorageError(ReproError):
    """A catalog or table operation failed (duplicate name, missing table...)."""


class StaleResultError(StorageError):
    """An undrained lazy result set would read state mutated since execute.

    Raised when a streaming pipeline whose plan probes a *live* persistent
    index (an index-nested-loop join) is pulled after the probed table was
    mutated (or its indexes changed) since the statement executed: the
    probes would silently see post-statement rows, so the read fails
    loudly instead.  Drain promptly (``ResultSet.rows`` does) when
    statement-time answers must survive subsequent writes; full
    statement-time consistency via versioned indexes is the MVCC roadmap
    item.
    """


class SessionClosedError(StorageError):
    """An operation reached a :class:`~repro.api.session.Session` (or a
    prepared statement / result set belonging to one) after
    ``Session.close()``.  Close is deliberate and final: prepared handles
    and undrained lazy result sets are invalidated rather than left to
    read through a connection their owner already released."""


class WalError(StorageError):
    """The write-ahead log or a checkpoint file could not be used."""


class WalWarning(UserWarning):
    """Durable state diverges from the live database in a recoverable way.

    Emitted when an unpicklable constraint (e.g. a :class:`RowConstraint`
    closing over a lambda) has to be dropped from a checkpoint or log
    record, and again when such a gap is seen at recovery time — the
    recovered rows all satisfied the constraint when logged, but future
    mutations will not be checked against it until the caller re-attaches
    it with :meth:`Table.add_constraint`.
    """


class TautologyError(ReproError):
    """The tautology detector was given an expression it cannot analyse."""
