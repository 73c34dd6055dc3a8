"""Core of the reproduction: the paper's primary contribution.

This package implements Sections 3–7 of Zaniolo's *Database Relations with
Null Values*: the no-information null, the tuple information ordering,
relations and x-relations, the generalised set operations and their
lattice, the three-valued query-evaluation discipline, and the complete
generalised relational algebra.
"""

from .nulls import NI, MarkedNull, NonexistentNull, UnknownNull, is_ni, is_nonnull, is_null
from .domains import (
    ANY,
    AnyDomain,
    Domain,
    EnumeratedDomain,
    IntegerRangeDomain,
    TypedDomain,
    active_domain,
)
from .tuples import (
    NULL_TUPLE,
    XTuple,
    equivalent,
    joinable,
    more_informative,
    try_join,
    tuple_join,
    tuple_meet,
)
from .relation import Relation, RelationSchema
from .xrelation import XRelation, as_xrelation
from .setops import difference, union, x_intersection
from .lattice import (
    AttributeUniverse,
    bottom,
    boolean_sublattice_elements,
    check_difference_laws,
    check_distributivity,
    check_lattice_laws,
    complement_counterexample,
    has_boolean_complement,
    pseudo_complement,
    top,
)
from .threevalued import (
    FALSE,
    NI_TRUTH,
    TRUE,
    TRUTH_VALUES,
    TruthValue,
    compare,
    conjunction,
    disjunction,
    truth_of,
)
from . import algebra
from .algebra import (
    divide,
    divide_by_images,
    image_set,
    join_on,
    product,
    project,
    rename,
    select_attributes,
    select_constant,
    select_predicate,
    theta_join,
    union_join,
)
from .query import (
    ALWAYS_FALSE,
    ALWAYS_TRUE,
    And,
    AttributeRef,
    Comparison,
    Constant,
    Not,
    Or,
    Parameter,
    Predicate,
    Query,
    Term,
    TruthConstant,
    collect_parameters,
    evaluate_lower_bound,
    evaluate_truth_partition,
    substitute_parameters,
)
from .errors import (
    AlgebraError,
    AttributeNotFound,
    ConstraintViolation,
    DomainError,
    KeyViolation,
    NotJoinableError,
    NotNullViolation,
    QuelError,
    QuelLexError,
    QuelParseError,
    QuelSemanticError,
    ReferentialViolation,
    ReproError,
    SchemaError,
    SessionClosedError,
    StaleResultError,
    StatementTooComplex,
    StorageError,
    TautologyError,
    UnionCompatibilityError,
    WalError,
    WalWarning,
)

__all__ = [
    # nulls
    "NI", "MarkedNull", "NonexistentNull", "UnknownNull", "is_ni", "is_nonnull", "is_null",
    # domains
    "ANY", "AnyDomain", "Domain", "EnumeratedDomain", "IntegerRangeDomain", "TypedDomain", "active_domain",
    # tuples
    "NULL_TUPLE", "XTuple", "equivalent", "joinable", "more_informative", "try_join", "tuple_join", "tuple_meet",
    # relations
    "Relation", "RelationSchema", "XRelation", "as_xrelation",
    # set ops / lattice
    "difference", "union", "x_intersection",
    "AttributeUniverse", "bottom", "top", "pseudo_complement", "has_boolean_complement",
    "check_lattice_laws", "check_distributivity", "check_difference_laws",
    "complement_counterexample", "boolean_sublattice_elements",
    # three-valued logic
    "FALSE", "NI_TRUTH", "TRUE", "TRUTH_VALUES", "TruthValue", "compare", "conjunction", "disjunction", "truth_of",
    # algebra
    "algebra", "divide", "divide_by_images", "image_set", "join_on", "product", "project", "rename",
    "select_attributes", "select_constant", "select_predicate", "theta_join", "union_join",
    # query
    "ALWAYS_FALSE", "ALWAYS_TRUE", "And", "AttributeRef", "Comparison", "Constant", "Not", "Or",
    "Parameter", "Predicate", "Query", "Term", "TruthConstant", "collect_parameters",
    "evaluate_lower_bound", "evaluate_truth_partition", "substitute_parameters",
    # errors
    "AlgebraError", "AttributeNotFound", "ConstraintViolation", "DomainError", "KeyViolation",
    "NotJoinableError", "NotNullViolation", "QuelError", "QuelLexError", "QuelParseError",
    "QuelSemanticError", "ReferentialViolation", "ReproError", "SchemaError",
    "SessionClosedError", "StaleResultError", "StatementTooComplex",
    "StorageError", "TautologyError", "UnionCompatibilityError", "WalError", "WalWarning",
]
