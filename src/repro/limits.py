"""Resource limits on what a statement can ask of the engine.

The engine's caps live here, so the budget a statement is held to can
be read in one place (the HTTP framing caps stay in
:mod:`repro.server.http`, beside the reader that enforces them).  Each
cap is checked where the resource is first consumed, before any work is
done on the statement, and breaking it raises an error inside the
library's taxonomy (a 4xx over HTTP), never a Python ``RecursionError``.
"""

from __future__ import annotations

from .core.errors import StatementTooComplex

#: Largest statement text :meth:`repro.api.Session.prepare` accepts, in
#: UTF-8 bytes.  Checked before the statement cache is probed, so the
#: cache never keys on a multi-megabyte string.  A 5 000-term ``and``
#: chain is about 80 kB; a new text near the cap takes the parser about
#: 0.14 s (CPython 3.11, 2-core VM).
MAX_STATEMENT_BYTES = 128 * 1024

#: Deepest nesting of parenthesised sub-expressions and ``not`` the
#: parser descends into.  Every level costs the recursive-descent parser
#: several Python frames, and later passes walk the nested expression
#: recursively too; this keeps all of them far from the interpreter's
#: recursion limit.
MAX_EXPRESSION_DEPTH = 100


def check_statement_size(text: str) -> None:
    """Raise :class:`StatementTooComplex` if *text* is over
    :data:`MAX_STATEMENT_BYTES` once encoded."""
    # A character encodes to at most 4 bytes, so a short text needs no
    # count; an ASCII text's length is its size (``isascii`` reads a flag).
    if len(text) <= MAX_STATEMENT_BYTES // 4:
        return
    size = len(text) if text.isascii() else len(text.encode("utf-8"))
    if size > MAX_STATEMENT_BYTES:
        raise StatementTooComplex(
            f"statement is {size} bytes, over the "
            f"{MAX_STATEMENT_BYTES}-byte limit"
        )
