"""A recursive-descent parser for the QUEL subset used by the paper.

Grammar (EBNF, case-insensitive keywords)::

    statement    := range_decl* (retrieve | append | delete | replace)
    range_decl   := "range" "of" IDENT "is" IDENT
    retrieve     := "retrieve" ["unique"] ["into" IDENT]
                    "(" target_item ("," target_item)* ")" [where_clause]
    append       := "append" "to" IDENT
                    "(" assignment ("," assignment)* ")" [where_clause]
    delete       := "delete" IDENT [where_clause]
    replace      := "replace" IDENT
                    "(" assignment ("," assignment)* ")" [where_clause]
    target_item  := [IDENT "="] column_ref
    assignment   := IDENT "=" operand
    where_clause := "where" expression
    expression   := disjunction
    disjunction  := conjunction ("or" conjunction)*
    conjunction  := negation ("and" negation)*
    negation     := "not" negation | primary
    primary      := "(" expression ")" | comparison
    comparison   := operand comparator operand
    operand      := column_ref | NUMBER | STRING | PARAMETER
    column_ref   := IDENT "." IDENT

A target item of the form ``IDENT = column_ref`` labels the output column;
a bare ``column_ref`` keeps the default ``variable_attribute`` name.  The
ambiguity with a comparison is resolved by context: target items can only
be labels or column references.  ``$name`` placeholders (PARAMETER
tokens) may stand wherever a literal may; they are bound with per-call
values by the session layer.

Each parenthesised sub-expression and each ``not`` is one level of
nesting; past :data:`repro.limits.MAX_EXPRESSION_DEPTH` levels the
parser raises :class:`StatementTooComplex` instead of recursing on.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.errors import QuelParseError, StatementTooComplex
from ..limits import MAX_EXPRESSION_DEPTH
from .ast_nodes import (
    AndExpr,
    AppendStatement,
    Assignment,
    ColumnRef,
    ComparisonExpr,
    DeleteStatement,
    Expression,
    Literal,
    NotExpr,
    Operand,
    OrExpr,
    Parameter,
    RangeDeclaration,
    ReplaceStatement,
    RetrieveStatement,
    Statement,
    TargetItem,
)
from .lexer import tokenize
from .tokens import COMPARISON_SPELLING, Token, TokenType


class Parser:
    """Recursive-descent parser over a token list."""

    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.position = 0
        #: Parentheses and ``not`` currently open around the cursor.
        self.depth = 0

    # -- token utilities -------------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        index = min(self.position + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self) -> Token:
        token = self.tokens[self.position]
        if token.type is not TokenType.END:
            self.position += 1
        return token

    def _check(self, token_type: TokenType) -> bool:
        return self._peek().type is token_type

    def _match(self, *token_types: TokenType) -> Optional[Token]:
        if self._peek().type in token_types:
            return self._advance()
        return None

    def _expect(self, token_type: TokenType, description: str) -> Token:
        token = self._peek()
        if token.type is not token_type:
            raise QuelParseError(
                f"expected {description}, found {token.describe()}",
                token.line, token.column,
            )
        return self._advance()

    # -- grammar ------------------------------------------------------------------
    def parse_statement(self) -> Statement:
        """Parse one statement: retrieve, append, delete or replace."""
        ranges: List[RangeDeclaration] = []
        while self._check(TokenType.RANGE):
            ranges.append(self._range_declaration())
        head = self._peek()
        if head.type is TokenType.RETRIEVE:
            statement: Statement = self._retrieve(tuple(ranges))
        elif head.type is TokenType.APPEND:
            statement = self._append(tuple(ranges))
        elif head.type is TokenType.DELETE:
            statement = self._delete(tuple(ranges))
        elif head.type is TokenType.REPLACE:
            statement = self._replace(tuple(ranges))
        else:
            raise QuelParseError(
                f"expected 'retrieve', 'append', 'delete' or 'replace', "
                f"found {head.describe()}",
                head.line, head.column,
            )
        end = self._peek()
        if end.type is not TokenType.END:
            raise QuelParseError(
                f"unexpected trailing input starting with {end.describe()}",
                end.line, end.column,
            )
        return statement

    def parse_query(self) -> RetrieveStatement:
        """Parse a statement and require it to be a RETRIEVE query."""
        statement = self.parse_statement()
        if not isinstance(statement, RetrieveStatement):
            raise QuelParseError(
                "expected a retrieve query, found a "
                f"{type(statement).__name__.replace('Statement', '').lower()} statement"
            )
        return statement

    def _range_declaration(self) -> RangeDeclaration:
        keyword = self._expect(TokenType.RANGE, "'range'")
        self._expect(TokenType.OF, "'of'")
        variable = self._expect(TokenType.IDENTIFIER, "a range variable name")
        self._expect(TokenType.IS, "'is'")
        relation = self._expect(TokenType.IDENTIFIER, "a relation name")
        return RangeDeclaration(variable.value, relation.value, line=keyword.line)

    def _retrieve(self, ranges: Tuple[RangeDeclaration, ...]) -> RetrieveStatement:
        self._expect(TokenType.RETRIEVE, "'retrieve'")
        unique = self._match(TokenType.UNIQUE) is not None
        into: Optional[str] = None
        if self._match(TokenType.INTO):
            into = self._expect(TokenType.IDENTIFIER, "a result relation name").value
        self._expect(TokenType.LPAREN, "'(' opening the target list")
        target: List[TargetItem] = [self._target_item()]
        while self._match(TokenType.COMMA):
            target.append(self._target_item())
        self._expect(TokenType.RPAREN, "')' closing the target list")
        where: Optional[Expression] = None
        if self._match(TokenType.WHERE):
            where = self._expression()
        return RetrieveStatement(ranges, tuple(target), where, unique=unique, into=into)

    def _append(self, ranges: Tuple[RangeDeclaration, ...]) -> AppendStatement:
        self._expect(TokenType.APPEND, "'append'")
        self._expect(TokenType.TO, "'to' after 'append'")
        relation = self._expect(TokenType.IDENTIFIER, "a relation name").value
        assignments = self._assignment_list()
        where: Optional[Expression] = None
        if self._match(TokenType.WHERE):
            where = self._expression()
        return AppendStatement(ranges, relation, assignments, where)

    def _delete(self, ranges: Tuple[RangeDeclaration, ...]) -> DeleteStatement:
        self._expect(TokenType.DELETE, "'delete'")
        variable = self._expect(TokenType.IDENTIFIER, "a range variable").value
        where: Optional[Expression] = None
        if self._match(TokenType.WHERE):
            where = self._expression()
        return DeleteStatement(ranges, variable, where)

    def _replace(self, ranges: Tuple[RangeDeclaration, ...]) -> ReplaceStatement:
        self._expect(TokenType.REPLACE, "'replace'")
        variable = self._expect(TokenType.IDENTIFIER, "a range variable").value
        assignments = self._assignment_list()
        where: Optional[Expression] = None
        if self._match(TokenType.WHERE):
            where = self._expression()
        return ReplaceStatement(ranges, variable, assignments, where)

    def _assignment_list(self) -> Tuple[Assignment, ...]:
        self._expect(TokenType.LPAREN, "'(' opening the assignment list")
        assignments: List[Assignment] = [self._assignment()]
        while self._match(TokenType.COMMA):
            assignments.append(self._assignment())
        self._expect(TokenType.RPAREN, "')' closing the assignment list")
        return tuple(assignments)

    def _assignment(self) -> Assignment:
        attribute = self._expect(TokenType.IDENTIFIER, "an attribute name")
        self._expect(TokenType.EQUALS, "'=' in an assignment")
        return Assignment(attribute.value, self._operand())

    def _target_item(self) -> TargetItem:
        # Either "label = var.attr" or "var.attr".
        first = self._expect(TokenType.IDENTIFIER, "a target item")
        if self._check(TokenType.EQUALS):
            self._advance()
            reference = self._column_ref()
            return TargetItem(reference, label=first.value)
        self._expect(TokenType.DOT, "'.' in a column reference")
        attribute = self._expect(TokenType.IDENTIFIER, "an attribute name")
        return TargetItem(ColumnRef(first.value, attribute.value, first.line, first.column))

    def _column_ref(self) -> ColumnRef:
        variable = self._expect(TokenType.IDENTIFIER, "a range variable")
        self._expect(TokenType.DOT, "'.' in a column reference")
        attribute = self._expect(TokenType.IDENTIFIER, "an attribute name")
        return ColumnRef(variable.value, attribute.value, variable.line, variable.column)

    # -- expressions ---------------------------------------------------------------------
    def _expression(self) -> Expression:
        return self._disjunction()

    def _disjunction(self) -> Expression:
        operands = [self._conjunction()]
        while self._match(TokenType.OR):
            operands.append(self._conjunction())
        if len(operands) == 1:
            return operands[0]
        return OrExpr(tuple(operands))

    def _conjunction(self) -> Expression:
        operands = [self._negation()]
        while self._match(TokenType.AND):
            operands.append(self._negation())
        if len(operands) == 1:
            return operands[0]
        return AndExpr(tuple(operands))

    def _descend(self, token: Token) -> None:
        self.depth += 1
        if self.depth > MAX_EXPRESSION_DEPTH:
            raise StatementTooComplex(
                f"expression nests deeper than {MAX_EXPRESSION_DEPTH} levels",
                token.line, token.column,
            )

    def _negation(self) -> Expression:
        token = self._match(TokenType.NOT)
        if token is not None:
            self._descend(token)
            inner = self._negation()
            self.depth -= 1
            return NotExpr(inner)
        return self._primary()

    def _primary(self) -> Expression:
        token = self._match(TokenType.LPAREN)
        if token is not None:
            self._descend(token)
            inner = self._expression()
            self._expect(TokenType.RPAREN, "')'")
            self.depth -= 1
            return inner
        return self._comparison()

    def _comparison(self) -> Expression:
        left = self._operand()
        operator_token = self._peek()
        if operator_token.type not in COMPARISON_SPELLING:
            raise QuelParseError(
                f"expected a comparison operator, found {operator_token.describe()}",
                operator_token.line, operator_token.column,
            )
        self._advance()
        right = self._operand()
        return ComparisonExpr(left, COMPARISON_SPELLING[operator_token.type], right)

    def _operand(self) -> Operand:
        token = self._peek()
        if token.type is TokenType.IDENTIFIER:
            return self._column_ref()
        if token.type is TokenType.NUMBER:
            self._advance()
            return Literal(token.value, token.line, token.column)
        if token.type is TokenType.STRING:
            self._advance()
            return Literal(token.value, token.line, token.column)
        if token.type is TokenType.PARAMETER:
            self._advance()
            return Parameter(token.value, token.line, token.column)
        raise QuelParseError(
            f"expected a column reference, literal or $parameter, "
            f"found {token.describe()}",
            token.line, token.column,
        )


def parse(text: str) -> Statement:
    """Parse QUEL source text into a statement AST node.

    Retrieve text yields a :class:`RetrieveStatement` exactly as before;
    the DML statements yield :class:`AppendStatement` /
    :class:`DeleteStatement` / :class:`ReplaceStatement`.
    """
    return Parser(tokenize(text)).parse_statement()


def parse_statement(text: str) -> Statement:
    """Alias of :func:`parse`, named for symmetry with the grammar."""
    return Parser(tokenize(text)).parse_statement()
