"""The single-writer / concurrent-reader statement gate.

One :class:`repro.storage.Database` serves every connection, and the
engine's undo-journal transactions are not isolated from concurrent
writers — so the server serialises mutators while letting retrieves
overlap: any number of connections may hold the gate *shared* (their
executor threads stream pipelines concurrently), one connection at a
time holds it *exclusive* for a write statement, and an open
``POST /transactions`` group **pins** the exclusive gate to its
connection across requests, queueing everyone else until the group
commits, rolls back, or the connection drops.

The gate is owner-aware rather than task-aware because a pinned
transaction spans many requests (many tasks) of one connection: the
owner token is the connection object, and a statement from the pinning
connection passes straight through instead of deadlocking behind its
own transaction.
"""

from __future__ import annotations

import asyncio
from contextlib import asynccontextmanager
from typing import Any, Optional

__all__ = ["StatementGate"]


class StatementGate:
    """An asyncio readers–writer lock with a pinnable writer."""

    def __init__(self):
        self._cond = asyncio.Condition()
        self._readers = 0
        #: The connection currently holding the gate exclusively (None
        #: when no writer is in).  While set by :meth:`pin` it survives
        #: across requests until :meth:`unpin`.
        self._owner: Optional[Any] = None
        self._pinned = False

    @property
    def pinned_owner(self) -> Optional[Any]:
        return self._owner if self._pinned else None

    @asynccontextmanager
    async def shared(self, owner: Any):
        """Hold the gate for a reading statement from *owner*."""
        async with self._cond:
            if self._owner is owner:
                acquired = False  # already exclusive via a pinned group
            else:
                await self._cond.wait_for(lambda: self._owner is None)
                self._readers += 1
                acquired = True
        try:
            yield
        finally:
            if acquired:
                async with self._cond:
                    self._readers -= 1
                    self._cond.notify_all()

    @asynccontextmanager
    async def exclusive(self, owner: Any):
        """Hold the gate for a writing statement from *owner*."""
        async with self._cond:
            if self._owner is owner:
                acquired = False
            else:
                await self._cond.wait_for(
                    lambda: self._owner is None and self._readers == 0
                )
                self._owner = owner
                acquired = True
        try:
            yield
        finally:
            if acquired:
                async with self._cond:
                    self._owner = None
                    self._cond.notify_all()

    async def pin(self, owner: Any) -> None:
        """Acquire the exclusive gate and keep it across requests (a
        transaction begin).  Waits behind current readers and writers."""
        async with self._cond:
            if self._owner is owner:
                return  # begin inside an already-pinned group: a no-op here
            await self._cond.wait_for(
                lambda: self._owner is None and self._readers == 0
            )
            self._owner = owner
            self._pinned = True

    async def unpin(self, owner: Any) -> None:
        """Release a pinned gate (commit / rollback / disconnect)."""
        async with self._cond:
            if self._owner is owner and self._pinned:
                self._owner = None
                self._pinned = False
                self._cond.notify_all()

    def __repr__(self) -> str:
        state = (
            f"exclusive owner={self._owner!r} pinned={self._pinned}"
            if self._owner is not None
            else f"readers={self._readers}"
        )
        return f"StatementGate({state})"
