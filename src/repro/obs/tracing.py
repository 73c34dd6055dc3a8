"""Structured query traces: one span per executed statement.

:class:`repro.api.session.Session` opens a :class:`QueryTrace` around
every ``execute()`` — phase wall times (parse → analyze/plan → execute),
the statement kind, the chosen plan shape, and rows in/out.  One session
function finishes every trace: a failure, a result-cache hit and an
eager DML or INTO statement finish at execute time, and a lazy retrieve
finishes when its pipeline drains (or fails), folding in the
per-operator actuals (est/actual rows, per-node seconds) of the drained
tree — walked once for the trace and the exec counters together.
Traces land in the session's ring buffer (``Session.recent_traces()``)
and, past ``Session.slow_query_threshold`` seconds, in the slow-query
log (the ``repro.obs`` logger plus the ``repro_slow_queries_total``
counter).
"""

from __future__ import annotations

import logging
from typing import Any, Dict, List, Optional

__all__ = ["QueryTrace", "slow_query_logger"]

#: The slow-query log destination; attach a handler or raise the level
#: to silence it.
slow_query_logger = logging.getLogger("repro.obs.slow_query")


class QueryTrace:
    """A single statement's span: phases, plan shape and actuals.

    Mutable on purpose — the session records the cheap parts at execute
    time and the pipeline-completion hook fills in drain-side facts
    (operator actuals, rows out, errors) when they exist.
    """

    __slots__ = (
        "text",
        "kind",
        "phases",
        "outcome",
        "error",
        "rows_out",
        "rows_affected",
        "plan",
        "operators",
        "seconds",
        "slow",
        "finished",
        "tags",
    )

    def __init__(self, text: str):
        self.text = text
        self.kind: str = "unknown"
        #: phase name -> wall seconds.  ``parse`` covers lexing/parsing
        #: and the plan-cache lookup; ``analyze`` covers semantic
        #: analysis + compilation (≈0 on a cache hit); ``plan`` binding
        #: a lazy retrieve's plan and building its operator tree;
        #: ``execute`` the execution itself (a lazy retrieve's is its
        #: drain, folded in when the pipeline completes).
        self.phases: Dict[str, float] = {}
        self.outcome: str = "ok"
        self.error: Optional[str] = None
        self.rows_out: Optional[int] = None
        self.rows_affected: int = 0
        #: the plan shape — one line per plan step.
        self.plan: List[str] = []
        #: per-operator actuals: label, est, actual rows, seconds.
        self.operators: List[Dict[str, Any]] = []
        self.seconds: float = 0.0
        self.slow: bool = False
        self.finished: bool = False
        #: caller-attached context (the server stamps client/request
        #: ids here, see ``Session.trace_tags``); empty for local use.
        self.tags: Dict[str, Any] = {}

    def phase(self, name: str, seconds: float) -> None:
        self.phases[name] = self.phases.get(name, 0.0) + seconds

    def as_dict(self) -> Dict[str, Any]:
        """A plain-dict snapshot (for JSON shipping and tests)."""
        return {
            "text": self.text,
            "kind": self.kind,
            "phases": dict(self.phases),
            "outcome": self.outcome,
            "error": self.error,
            "rows_out": self.rows_out,
            "rows_affected": self.rows_affected,
            "plan": list(self.plan),
            "operators": [dict(op) for op in self.operators],
            "seconds": self.seconds,
            "slow": self.slow,
            "finished": self.finished,
            "tags": dict(self.tags),
        }

    def __repr__(self) -> str:
        return (
            f"QueryTrace(kind={self.kind!r}, outcome={self.outcome!r}, "
            f"seconds={self.seconds:.6f}, text={self.text.strip()!r})"
        )
