"""Write-ahead logging and checkpoint recovery for the storage layer.

Everything in the engine so far lives and dies in process memory.  This
module adds the durability layer underneath the storage layer's write
funnel: the one row-delta primitive (:meth:`Table.apply_delta`, behind
``insert_many`` / ``delete_many`` / ``update_many`` and their singleton
forms), the wholesale forms (``load`` / ``truncate`` / ``reset_rows``)
and all DDL — create/drop/rename table, create/drop index, foreign keys,
ANALYZE — each append one **logical, replayable record** to the log
*before* applying their state change, and :meth:`Session.transaction`
brackets statement groups with begin/commit/abort markers.

Design notes
------------

* **Logical logging off the write primitive.**  ``apply_delta`` logs the
  exact row delta it is about to apply — genuinely new rows in, the
  (4.8) dominated closure out — so a record is just ``(op kind, table,
  row sets)``: ``insert`` (rows in), ``remove`` (rows out) or ``update``
  (both), and replay is the same ``apply_delta`` call; it never re-runs
  constraints, predicates or foreign-key checks (they passed when the
  record was written).  Notably, ``delete_where`` logs its matched row
  set, so arbitrary Python predicates never need to be serialised, and
  a statement undone by its inverse delta (a REPLACE failing its
  post-state FK check) logs that inverse as one more O(batch) record.

* **Frames.**  Each record is one length-prefixed, CRC32-checksummed
  frame (``<u32 length><u32 crc32><pickle payload>``).  The reader stops
  at the first short or corrupt frame — a torn trailing record from a
  crash mid-append is discarded, never half-applied.

* **Transactions.**  Replay applies autocommitted records immediately and
  buffers records between ``begin`` and the matching ``commit``/``abort``;
  a log that *ends* inside an open transaction has that suffix discarded,
  so recovery is all-or-nothing per statement group.  (Aborted groups are
  replayed in full: a rollback applies the group's undo journal through
  the ordinary entry points, so its compensating records — the swapped
  deltas and inverse DDL, O(group) bytes — are part of the group and the
  replay converges to the same pre-group state.)

* **Checkpoints.**  :meth:`WriteAheadLog.checkpoint` serialises the
  :meth:`Database.snapshot` surface — rows, index definitions *and* table
  statistics — plus schemas, constraints and foreign keys, atomically
  (tmp file + fsync + rename + directory fsync), then resets the log.
  Recovery = load the last checkpoint + replay the log tail.  Checkpoint
  and log are bound by a monotonic **checkpoint sequence number**: each
  checkpoint carries its number and the reset log restarts with a
  ``checkpoint_mark`` frame naming the checkpoint it follows.  A crash
  between the checkpoint rename and the log reset leaves the new
  checkpoint plus the *old* log — its mark names an older checkpoint, so
  recovery discards it instead of replaying already-covered records over
  the checkpointed state; the directory fsync guarantees the rename is
  durable before the covered log is destroyed.

* **Background compaction.**  :class:`CheckpointWorker` is a daemon
  thread that periodically checkpoints once the log has grown, in the
  style of byoda's pod maintenance workers (``backup_datastore.py`` /
  ``sync_datastore.py``): a quiet loop with an interval, a stop event and
  per-cycle error latching — the engine never blocks on it.

* **Sync modes.**  ``sync="commit"`` (default) flushes and fsyncs the log
  at every autocommit boundary and transaction commit — a completed
  statement survives a crash.  ``sync="none"`` leaves flushing to the OS
  (and to checkpoints): faster bulk loads, a bounded window of recent
  statements at risk.

* **Group commit.**  Under ``sync="commit"`` the fsync is issued *after*
  the append-and-apply critical section, through :meth:`commit_scope` /
  :meth:`_sync_to`: a commit boundary first checks whether a later fsync
  already covered its record (every fsync covers *all* records written
  before it) and only syncs when it was not.  Concurrent committing
  writers therefore coalesce — while one writer's fsync is in flight the
  others append behind it, and the next single fsync makes them all
  durable — without weakening the guarantee that a statement returns
  only once its record is on disk.  ``group_commit=False`` restores the
  fsync-inside-the-critical-section behaviour.
"""

from __future__ import annotations

import io
import logging
import os
import pickle
import struct
import threading
import time
import warnings
import zlib
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.errors import WalError, WalWarning
from ..core.tuples import XTuple
from ..obs import MetricsRegistry, get_registry, registry_for

_logger = logging.getLogger("repro.storage.wal")

#: Frame header: payload byte length, CRC32 of the payload.
_HEADER = struct.Struct("<II")

#: The log and checkpoint file names inside a WAL directory.
LOG_NAME = "wal.log"
CHECKPOINT_NAME = "checkpoint.bin"

#: Record kinds that carry no state change: transaction structure plus
#: the ``checkpoint_mark`` frame a reset log starts with (it binds the
#: log to the checkpoint it follows; see :meth:`WriteAheadLog.truncate`).
_MARKERS = frozenset({"begin", "commit", "abort", "checkpoint_mark"})

#: Supported durability modes.
SYNC_MODES = ("none", "commit")


# ---------------------------------------------------------------------------
# Frame encoding / tolerant decoding
# ---------------------------------------------------------------------------

#: Record fields holding row sets, stored in frames as bare item-tuples.
_ROW_KEYS = ("rows", "removed")


def _pack_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """Strip row payloads down to their canonical ``(attr, value)`` pair
    tuples.  Pickling 10k bare tuples is ~5x cheaper (and ~40% smaller)
    than 10k :class:`XTuple` reduce calls, and the append path is the hot
    one — every bulk mutation pays it while holding the WAL lock; the
    matching rebuild in :func:`_unpack_record` only runs during recovery.
    """
    packed = None
    for key in _ROW_KEYS:
        rows = record.get(key)
        if rows:
            if packed is None:
                packed = dict(record)
            packed[key] = [row.items() for row in rows]
    return record if packed is None else packed


def _unpack_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """Rebuild the row payloads packed by :func:`_pack_record` (the pairs
    are already canonical — sorted, ni-free — so the validating
    constructor is skipped)."""
    for key in _ROW_KEYS:
        rows = record.get(key)
        if rows:
            record[key] = [XTuple._restore(pairs) for pairs in rows]
    return record


#: Modules older logs and checkpoints may name but this release no longer
#: has.  Their objects only ever sat in statistics slots that
#: :meth:`TableStatistics.__setstate__` skips, so they load as inert
#: placeholders instead of making the file unreadable.
_DROPPED_MODULES = frozenset({"repro.stats.histogram"})


class _DroppedObject:
    """An object of a class from :data:`_DROPPED_MODULES`; never used."""

    def __setstate__(self, state) -> None:
        pass


class _Unpickler(pickle.Unpickler):
    """The unpickler for log frames and checkpoints: resolves classes
    from :data:`_DROPPED_MODULES` to :class:`_DroppedObject`."""

    def find_class(self, module: str, name: str):
        if module in _DROPPED_MODULES:
            return _DroppedObject
        return super().find_class(module, name)


def encode_frame(record: Dict[str, Any]) -> bytes:
    """One length-prefixed, checksummed frame for *record*."""
    payload = pickle.dumps(_pack_record(record), protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def read_frames(path: str) -> Tuple[List[Dict[str, Any]], List[int], int]:
    """Decode every complete frame of the log at *path*.

    Returns ``(records, end_offsets, valid_length)``: the decoded records,
    the byte offset just past each one, and the total length of the valid
    prefix.  Reading stops at the first torn frame — a short header, a
    short payload, a checksum mismatch or an unpicklable payload — so a
    record half-written by a crash is discarded rather than half-applied.
    A missing file is an empty log.
    """
    records: List[Dict[str, Any]] = []
    ends: List[int] = []
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return records, ends, 0
    offset = 0
    total = len(data)
    while offset + _HEADER.size <= total:
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > total:
            break  # torn tail: the payload never finished writing
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            break  # corrupt record: everything after it is suspect
        try:
            record = _Unpickler(io.BytesIO(payload)).load()
        except Exception:
            break
        if not isinstance(record, dict) or "op" not in record:
            break
        records.append(_unpack_record(record))
        ends.append(end)
        offset = end
    return records, ends, offset


def committed_prefix(
    records: Sequence[Dict[str, Any]], ends: Sequence[int]
) -> Tuple[List[Dict[str, Any]], int]:
    """Drop an unfinished trailing transaction from a decoded log.

    Records outside any ``begin``/``commit`` bracket autocommit; records
    inside a bracket become durable only when the (outermost) group
    closes — with ``commit`` *or* ``abort``, since an aborted group's
    compensating records (the inverses its rollback applied) are part
    of the group.  A log ending mid-group therefore loses exactly that
    group's suffix.  Returns the
    replayable records plus the byte length of the kept prefix (what the
    recovered log should be truncated to before appending continues).
    """
    applied: List[Dict[str, Any]] = []
    keep_length = 0
    buffer: List[Dict[str, Any]] = []
    depth = 0
    for record, end in zip(records, ends):
        op = record.get("op")
        if op == "begin":
            depth += 1
            buffer.append(record)
        elif op in ("commit", "abort"):
            buffer.append(record)
            if depth:
                depth -= 1
            if depth == 0:
                applied.extend(buffer)
                buffer = []
                keep_length = end
        elif depth:
            buffer.append(record)
        else:
            applied.append(record)
            keep_length = end
    return applied, keep_length


# ---------------------------------------------------------------------------
# Replay: apply one logical record to a database
# ---------------------------------------------------------------------------

def apply_record(database, record: Dict[str, Any]) -> None:
    """Apply one replayable record to *database*.

    Row-delta records go through :meth:`Table.apply_delta`, the one write
    primitive the live entry points use; constraint and foreign-key
    checks are *not* re-run — they passed when the record was logged.
    Must be called with the database's WAL either unattached or in replay
    mode, so nothing is re-logged.
    """
    op = record["op"]
    if op in _MARKERS:
        return
    catalog = database.catalog
    if op in ("insert", "remove", "update"):
        # One delta; the kind only says which sides the record carries.
        # Fields beyond the row sets (older logs tagged rollback deltas
        # with a churn counter) are ignored.
        table = catalog.table(record["table"])
        if op == "remove":
            removed, added = record["rows"], ()
        else:
            removed, added = record.get("removed", ()), record["rows"]
        table.apply_delta(removed, added)
    elif op == "load":
        catalog.table(record["table"]).reset_rows(
            record["rows"], statistics=record.get("statistics")
        )
    elif op == "truncate":
        catalog.table(record["table"]).truncate()
    elif op == "analyze":
        catalog.table(record["table"]).analyze()
    elif op == "create_table":
        warn_dropped_constraints(
            record.get("dropped_constraints"), record["name"], registry_for(database)
        )
        catalog.create_table(record["name"], record["schema"], record["constraints"])
    elif op == "drop_table":
        catalog.drop_table(record["name"])
    elif op == "rename_table":
        catalog.rename_table(record["old"], record["new"])
    elif op == "create_index":
        catalog.table(record["table"]).create_index(
            record["attributes"], name=record["name"]
        )
    elif op == "drop_index":
        catalog.table(record["table"]).drop_index(record["name"])
    elif op == "add_foreign_key":
        catalog.add_foreign_key(
            record["owner"], record["constraint"], validate_existing=False
        )
    elif op == "restore_foreign_keys":
        catalog.restore_foreign_keys(record["entries"])
    else:
        raise WalError(f"unknown WAL record kind {op!r}")


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def picklable_constraints(constraints: Iterable[Any]) -> Tuple[List[Any], List[str]]:
    """Split *constraints* into ``(picklable, dropped_names)``.

    Key / NOT NULL / FD / FK constraints are plain data and always
    round-trip; a :class:`RowConstraint` closing over a lambda cannot be
    serialised — it is dropped from the durable form (its checks already
    ran on every logged row, so recovered *rows* still satisfy it; only
    enforcement of post-recovery mutations is lost, which the caller can
    re-add with :meth:`Table.add_constraint`).  The dropped constraints'
    names travel in the checkpoint / ``create_table`` record so the gap
    is surfaced again — as a :class:`WalWarning` — at recovery time.
    """
    kept: List[Any] = []
    dropped: List[str] = []
    for constraint in constraints:
        try:
            pickle.dumps(constraint, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            dropped.append(
                getattr(constraint, "name", None) or type(constraint).__name__
            )
            continue
        kept.append(constraint)
    return kept, dropped


def warn_dropped_constraints(
    dropped: Optional[Sequence[str]],
    table: str,
    registry: Optional[MetricsRegistry] = None,
) -> None:
    """Emit the :class:`WalWarning` for constraints missing from durable
    state — once when they are dropped (logging / checkpointing), once
    when the gap is replayed (recovery).  Each emission also bumps the
    ``repro_wal_warnings_total`` counter in *registry* (the process
    default when none is given)."""
    if dropped:
        (registry or get_registry()).counter(
            "repro_wal_warnings_total",
            "WalWarning emissions (durability gaps surfaced to the user).",
        ).inc()
        warnings.warn(
            f"constraint(s) {sorted(dropped)} on table {table!r} cannot be "
            f"pickled and are not part of the durable state; a recovered "
            f"database will not enforce them until they are re-attached "
            f"with Table.add_constraint",
            WalWarning,
            stacklevel=3,
        )


def build_checkpoint_state(database) -> Dict[str, Any]:
    """The durable form of a whole database: the ``Database.snapshot``
    surface (rows + index definitions + statistics) plus schemas,
    constraints and foreign keys.  (The checkpoint sequence number is
    stamped in by :meth:`WriteAheadLog.checkpoint`.)"""
    tables: Dict[str, Any] = {}
    for name in database.catalog.table_names():
        table = database.catalog.table(name)
        constraints, dropped = picklable_constraints(table.constraints)
        warn_dropped_constraints(dropped, name, registry_for(database))
        tables[name] = {
            "schema": table.schema,
            "constraints": constraints,
            "dropped_constraints": dropped,
            "rows": list(table.rows()),
            "indexes": table.index_specs(),
            "statistics": table.statistics.copy(),
        }
    return {
        "format": 2,
        "tables": tables,
        "foreign_keys": database.catalog.foreign_key_entries(),
    }


def apply_checkpoint_state(database, state: Dict[str, Any]) -> None:
    """Load a checkpoint state into an *empty* database."""
    catalog = database.catalog
    if len(catalog):
        raise WalError(
            f"recovery needs an empty database, but {database.name!r} "
            f"already has tables {catalog.table_names()}"
        )
    for name, entry in state["tables"].items():
        warn_dropped_constraints(
            entry.get("dropped_constraints"), name, registry_for(database)
        )
        table = catalog.create_table(name, entry["schema"], entry["constraints"])
        table.reset_rows(entry["rows"], statistics=entry["statistics"])
        for index_name, attributes in entry["indexes"].items():
            table.create_index(attributes, name=index_name)
    catalog.restore_foreign_keys(state["foreign_keys"])


# ---------------------------------------------------------------------------
# The log itself
# ---------------------------------------------------------------------------

class WriteAheadLog:
    """A durable logical log plus checkpoint for one database.

    Parameters
    ----------
    directory:
        Where ``wal.log`` and ``checkpoint.bin`` live (created if absent).
    sync:
        ``"commit"`` — flush + fsync at every autocommit boundary and
        transaction commit/abort; ``"none"`` — leave flushing to the OS
        and to checkpoints.

    The instance owns an :class:`threading.RLock` (:attr:`lock`) that the
    storage layer holds across *append + apply* of every mutation, so the
    background checkpoint worker can never capture a state snapshot
    between a record being written and its state change landing (which
    would lose the change when the log is truncated).
    """

    def __init__(self, directory: str, sync: str = "commit", group_commit: bool = True):
        if sync not in SYNC_MODES:
            raise WalError(f"unknown sync mode {sync!r}; choose from {SYNC_MODES}")
        self.directory = os.path.abspath(directory)
        self.sync = sync
        #: Coalesce commit-boundary fsyncs across concurrent writers (see
        #: the module docstring).  False restores one inline fsync per
        #: commit inside the append critical section.
        self.group_commit = group_commit
        os.makedirs(self.directory, exist_ok=True)
        self.log_path = os.path.join(self.directory, LOG_NAME)
        self.checkpoint_path = os.path.join(self.directory, CHECKPOINT_NAME)
        self.lock = threading.RLock()
        #: True while recovery replays this log into a database — the
        #: storage-layer hooks skip logging so replay never re-appends.
        self.replaying = False
        #: Open ``begin`` markers minus ``commit``/``abort`` markers.
        self.transaction_depth = 0
        #: Records appended by this process (markers included).
        self.records_appended = 0
        #: Checkpoints taken through this log.
        self.checkpoints_taken = 0
        #: fsync(2) calls actually issued by this process.
        self.fsyncs_issued = 0
        #: Commit boundaries that skipped their fsync because a later
        #: group-commit fsync had already covered their record.
        self.commits_coalesced = 0
        #: Monotone count of appended records; every fsync covers all
        #: records written before it, so ``_synced_seq >= seq`` means the
        #: record numbered *seq* is durable.
        self._append_seq = 0
        self._synced_seq = 0
        #: Per-thread commit boundary deferred from inside a
        #: :meth:`commit_scope` (the scope exit issues the sync once the
        #: append-and-apply critical section has been left).
        self._pending = threading.local()
        #: Sequence number of the checkpoint currently on disk (0 when
        #: none was ever taken).  Stamped into every checkpoint file and
        #: into the ``checkpoint_mark`` frame the reset log restarts
        #: with, so recovery can tell a log that *follows* the checkpoint
        #: from a stale pre-checkpoint log that survived a crash between
        #: the checkpoint rename and the log reset.
        self.checkpoint_seq = 0
        #: Byte length of the leading ``checkpoint_mark`` frame (0 for a
        #: log that was never reset); :meth:`tail_bytes` measures the
        #: records appended since the last checkpoint relative to it.
        self._header_length = 0
        self._file = None
        self._closed = False
        #: The metrics registry this log reports into (None → the
        #: process-global default).  :meth:`Database.attach_wal` points
        #: it at the database's registry.
        self.metrics: Optional[MetricsRegistry] = None
        self._metric_handles: Optional[Dict[str, Any]] = None

    # -- metrics -------------------------------------------------------------
    def set_metrics(self, registry: Optional[MetricsRegistry]) -> None:
        """Report into *registry* from now on (rebuilds cached handles)."""
        self.metrics = registry
        self._metric_handles = None

    def _m(self) -> Dict[str, Any]:
        """Cached child handles for the hot append path — steady-state
        instrumentation cost is one dict lookup + a locked float add."""
        handles = self._metric_handles
        if handles is None:
            registry = self.metrics if self.metrics is not None else get_registry()
            handles = {
                "records": registry.counter(
                    "repro_wal_records_total",
                    "Records appended to the write-ahead log (markers included).",
                ).labels(),
                "bytes": registry.counter(
                    "repro_wal_bytes_total",
                    "Bytes appended to the write-ahead log.",
                ).labels(),
                "fsyncs": registry.counter(
                    "repro_wal_fsyncs_total",
                    "fsync(2) calls issued by the log (commit-sync boundaries, "
                    "explicit flushes and log resets).",
                ).labels(),
                "coalesced": registry.counter(
                    "repro_wal_commits_coalesced_total",
                    "Commit boundaries made durable by another writer's "
                    "group-commit fsync instead of their own.",
                ).labels(),
                "checkpoints": registry.counter(
                    "repro_wal_checkpoints_total",
                    "Checkpoints taken through this process.",
                ).labels(),
                "checkpoint_seconds": registry.histogram(
                    "repro_wal_checkpoint_seconds",
                    "Wall time of each checkpoint (serialise + rename + log reset).",
                ).labels(),
                "checkpoint_bytes": registry.gauge(
                    "repro_wal_checkpoint_bytes",
                    "Size of the checkpoint file on disk after the last checkpoint.",
                ).labels(),
                "checkpoint_seq": registry.gauge(
                    "repro_wal_checkpoint_seq",
                    "Sequence number of the checkpoint currently on disk.",
                ).labels(),
                "recovered": registry.counter(
                    "repro_wal_recovered_records_total",
                    "Log records replayed during recovery.",
                ).labels(),
            }
            self._metric_handles = handles
        return handles

    # -- appending -----------------------------------------------------------
    def _handle(self):
        if self._closed:
            raise WalError(f"write-ahead log {self.log_path!r} is closed")
        if self._file is None:
            self._file = open(self.log_path, "ab")
        return self._file

    def append(self, record: Dict[str, Any]) -> int:
        """Append one record; returns the log position after the frame.

        Under ``sync="commit"`` the record is made durable whenever it
        leaves the log at transaction depth zero — i.e. for every
        autocommitted statement and for every ``commit``/``abort``
        marker; records inside an open group ride the group's fsync.
        With group commit (the default) the fsync itself happens through
        :meth:`_sync_to` *after* the append critical section — deferred
        to the enclosing :meth:`commit_scope` exit when a storage entry
        point still holds the lock across append + apply — so concurrent
        commit boundaries can share one fsync.
        """
        with self.lock:
            if self.replaying:
                return self.position()
            handles = self._m()
            handle = self._handle()
            frame = encode_frame(record)
            handle.write(frame)
            op = record.get("op")
            if op == "begin":
                self.transaction_depth += 1
            elif op in ("commit", "abort") and self.transaction_depth:
                self.transaction_depth -= 1
            self._append_seq += 1
            seq = self._append_seq
            need_sync = self.sync == "commit" and self.transaction_depth == 0
            if need_sync and not self.group_commit:
                handle.flush()
                os.fsync(handle.fileno())
                self._synced_seq = seq
                self.fsyncs_issued += 1
                handles["fsyncs"].inc()
                need_sync = False
            self.records_appended += 1
            handles["records"].inc()
            handles["bytes"].inc(len(frame))
            position = handle.tell()
        if need_sync:
            if self.lock._is_owned():
                # A storage entry point holds the lock across append +
                # apply; its commit_scope() exit issues the sync once the
                # critical section is over, letting other writers append
                # (and be covered) in the meantime.
                self._pending.seq = seq
            else:
                self._sync_to(seq)
        return position

    @contextmanager
    def commit_scope(self):
        """The append-and-apply critical section of one statement.

        Storage entry points hold this around *log record + state
        change* (the checkpoint-consistency invariant); on exit — once
        the lock is genuinely released, not merely un-nested — any commit
        boundary the scope's appends deferred is made durable via the
        group-commit path.  The statement therefore still returns only
        after its record is on disk, but the fsync happens outside the
        critical section where concurrent writers can coalesce behind it.
        """
        self.lock.acquire()
        try:
            yield
        finally:
            self.lock.release()
            if not self.lock._is_owned():
                seq = getattr(self._pending, "seq", None)
                if seq is not None:
                    self._pending.seq = None
                    self._sync_to(seq)

    def _sync_to(self, seq: int) -> None:
        """Make the record numbered *seq* durable (group commit).

        Every fsync covers all records appended before it, so if another
        writer's fsync has already moved ``_synced_seq`` past *seq* this
        boundary returns without touching the disk — that skipped fsync
        is the group-commit win, counted in ``commits_coalesced``.
        """
        with self.lock:
            if self._synced_seq >= seq:
                self.commits_coalesced += 1
                self._m()["coalesced"].inc()
                return
            handle = self._file
            if handle is None or self._closed:
                return  # truncate/close already fsynced past this record
            covered = self._append_seq
            handle.flush()
            os.fsync(handle.fileno())
            self._synced_seq = covered
            self.fsyncs_issued += 1
            self._m()["fsyncs"].inc()

    def position(self) -> int:
        """The current end of the log in bytes (unflushed writes included)."""
        with self.lock:
            if self._file is not None:
                return self._file.tell()
            try:
                return os.path.getsize(self.log_path)
            except OSError:
                return 0

    def tail_bytes(self) -> int:
        """Bytes of records appended since the last checkpoint — the log
        length minus the leading ``checkpoint_mark`` frame.  What the
        background worker compares against ``min_log_bytes``."""
        with self.lock:
            return max(0, self.position() - self._header_length)

    @property
    def in_transaction(self) -> bool:
        return self.transaction_depth > 0

    def flush(self) -> None:
        with self.lock:
            if self._file is not None:
                self._file.flush()
                os.fsync(self._file.fileno())
                self._synced_seq = self._append_seq
                self.fsyncs_issued += 1
                self._m()["fsyncs"].inc()

    def _fsync_directory(self) -> None:
        """Make a rename inside the WAL directory durable (best-effort on
        platforms whose directories cannot be opened or fsynced)."""
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def truncate(self) -> None:
        """Reset the log (after a successful checkpoint): drop every
        record and restart with a ``checkpoint_mark`` frame naming the
        checkpoint now on disk, so recovery can tell this log belongs
        *after* that checkpoint rather than before it."""
        with self.lock:
            if self._file is not None:
                self._file.close()
            self._file = open(self.log_path, "wb")
            self._file.write(
                encode_frame({"op": "checkpoint_mark", "seq": self.checkpoint_seq})
            )
            self._file.flush()
            os.fsync(self._file.fileno())
            self._synced_seq = self._append_seq
            self.fsyncs_issued += 1
            self._m()["fsyncs"].inc()
            self._header_length = self._file.tell()

    def close(self) -> None:
        with self.lock:
            if self._file is not None:
                self._file.flush()
                os.fsync(self._file.fileno())
                self._synced_seq = self._append_seq
                self.fsyncs_issued += 1
                self._file.close()
                self._file = None
            self._closed = True

    # -- checkpointing ---------------------------------------------------------
    def checkpoint(self, database) -> bool:
        """Serialise the database atomically, then reset the log.

        Returns False (and does nothing) while a transaction group is
        open — checkpointing uncommitted state and truncating away its
        potential rollback would break crash atomicity.  The checkpoint
        file is written to a temp path, fsynced and renamed into place,
        and the directory is fsynced so the rename is durable *before*
        the covered log is destroyed; a crash at any point leaves either
        the previous checkpoint + full log, or the new checkpoint + a log
        whose ``checkpoint_mark`` recovery recognises as stale.
        """
        with self.lock:
            if self._closed:
                raise WalError(f"write-ahead log {self.log_path!r} is closed")
            if self.transaction_depth:
                return False
            started = time.perf_counter()
            state = build_checkpoint_state(database)
            state["seq"] = self.checkpoint_seq + 1
            tmp_path = self.checkpoint_path + ".tmp"
            with open(tmp_path, "wb") as handle:
                pickle.dump(state, handle, protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, self.checkpoint_path)
            self._fsync_directory()
            self.checkpoint_seq += 1
            self.truncate()
            self.checkpoints_taken += 1
            handles = self._m()
            handles["checkpoints"].inc()
            handles["checkpoint_seconds"].observe(time.perf_counter() - started)
            handles["checkpoint_seq"].set(self.checkpoint_seq)
            try:
                handles["checkpoint_bytes"].set(os.path.getsize(self.checkpoint_path))
            except OSError:
                pass
            return True

    # -- recovery --------------------------------------------------------------
    def recover_into(self, database) -> bool:
        """Recover persisted state into *database* (which must be empty
        when there is anything to recover).

        Loads the last checkpoint, replays the surviving log tail —
        complete, checksummed frames up to the first torn record, minus
        any unfinished trailing transaction — and physically truncates
        the log back to the replayed prefix so later appends never
        interleave with discarded garbage.  A log whose leading
        ``checkpoint_mark`` names an *older* checkpoint than the one on
        disk is a pre-checkpoint log that survived a crash between the
        checkpoint rename and the log reset: every record in it is
        already covered by the checkpoint, so it is discarded wholesale
        instead of being replayed over the checkpointed state.  Returns
        True when existing state was recovered, False for a fresh
        directory.
        """
        with self.lock:
            state = None
            try:
                with open(self.checkpoint_path, "rb") as handle:
                    state = _Unpickler(handle).load()
            except FileNotFoundError:
                pass
            except Exception as error:
                raise WalError(
                    f"checkpoint {self.checkpoint_path!r} is unreadable: {error}"
                ) from error
            checkpoint_seq = state.get("seq", 0) if state is not None else 0
            records, ends, _valid = read_frames(self.log_path)
            if state is None and not records:
                return False
            has_mark = bool(records) and records[0].get("op") == "checkpoint_mark"
            log_seq = records[0].get("seq", 0) if has_mark else 0
            if log_seq > checkpoint_seq:
                raise WalError(
                    f"log {self.log_path!r} follows checkpoint #{log_seq} but "
                    f"{self.checkpoint_path!r} holds checkpoint "
                    f"#{checkpoint_seq}: the checkpoint the log depends on "
                    f"is missing"
                )
            stale_log = log_seq < checkpoint_seq
            if stale_log:
                # Everything in the log predates (and is covered by) the
                # checkpoint — replay nothing.
                records, ends = [], []
            applied, keep_length = committed_prefix(records, ends)
            self.checkpoint_seq = checkpoint_seq
            if applied:
                self._m()["recovered"].inc(len(applied))
            self.replaying = True
            try:
                if state is not None:
                    apply_checkpoint_state(database, state)
                elif len(database.catalog):
                    raise WalError(
                        f"recovery needs an empty database, but "
                        f"{database.name!r} already has tables"
                    )
                for record in applied:
                    apply_record(database, record)
            finally:
                self.replaying = False
            # Drop the torn / uncommitted suffix from disk before the log
            # reopens for appending.
            if self._file is not None:
                self._file.close()
                self._file = None
            if has_mark and not stale_log:
                with open(self.log_path, "r+b") as handle:
                    handle.truncate(keep_length)
                    handle.flush()
                    os.fsync(handle.fileno())
                self._header_length = ends[0]
            elif checkpoint_seq:
                # Stale log, or a checkpointed log whose mark itself was
                # torn away: restart it bound to the checkpoint on disk.
                self.truncate()
            else:
                with open(self.log_path, "ab") as handle:
                    pass  # ensure it exists
                with open(self.log_path, "r+b") as handle:
                    handle.truncate(keep_length)
                    handle.flush()
                    os.fsync(handle.fileno())
                self._header_length = 0
            return True

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({self.directory!r}, sync={self.sync!r}, "
            f"position={self.position()}, "
            f"transaction_depth={self.transaction_depth})"
        )


# ---------------------------------------------------------------------------
# Background checkpoint / compaction worker
# ---------------------------------------------------------------------------

class CheckpointWorker:
    """Periodically checkpoint a WAL-attached database in the background.

    The shape follows byoda's pod maintenance workers: a daemon thread, a
    fixed interval, a stop event, and per-cycle error latching — a failed
    cycle records the exception and the loop keeps going, never taking
    the engine down with it.  A cycle is skipped while a transaction
    group is open or while the log is still below *min_log_bytes* (no
    point compacting an empty log).
    """

    def __init__(self, database, interval: float = 30.0, min_log_bytes: int = 1):
        self.database = database
        self.interval = float(interval)
        self.min_log_bytes = int(min_log_bytes)
        self.cycles = 0
        self.last_error: Optional[BaseException] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        # Failure surfacing (see _record_outcome): the latched error is
        # also exported through the metrics registry and logged once per
        # *distinct* error, so a quietly failing background worker shows
        # up on a dashboard instead of waiting for a manual poll.
        self._last_warned: Optional[str] = None
        registry = registry_for(database)
        self._runs_metric = registry.counter(
            "repro_checkpoint_worker_runs_total",
            "Background checkpoint cycles that took a checkpoint.",
        ).labels()
        self._errors_metric = registry.counter(
            "repro_checkpoint_worker_errors_total",
            "Background checkpoint cycles that raised.",
        ).labels()
        self._failing_metric = registry.gauge(
            "repro_checkpoint_worker_failing",
            "1 while the most recent background checkpoint cycle failed, else 0.",
        ).labels()

    def _record_outcome(self, error: Optional[BaseException]) -> None:
        """Latch *error* (None on success) and surface it: bump the error
        counter, raise the failing gauge, and log a warning — once per
        distinct error message, so a persistent failure does not spam the
        log every interval but a *new* failure is always reported."""
        self.last_error = error
        if error is None:
            self._failing_metric.set(0)
            self._last_warned = None
            return
        self._errors_metric.inc()
        self._failing_metric.set(1)
        description = f"{type(error).__name__}: {error}"
        if description != self._last_warned:
            self._last_warned = description
            _logger.warning(
                "background checkpoint of database %r failed (will retry "
                "every %.1fs): %s",
                getattr(self.database, "name", "?"),
                self.interval,
                description,
            )

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def run_once(self) -> bool:
        """One checkpoint attempt; True when a checkpoint was taken."""
        wal = self.database.wal
        if wal is None or wal.in_transaction:
            return False
        if wal.tail_bytes() < self.min_log_bytes:
            return False
        return self.database.checkpoint()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                if self.run_once():
                    self.cycles += 1
                    self._runs_metric.inc()
                self._record_outcome(None)
            except Exception as error:  # keep the loop alive; surface it
                self._record_outcome(error)

    def start(self) -> "CheckpointWorker":
        if self.running:
            raise WalError("checkpoint worker already running")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-checkpoint-worker", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, wait: bool = True) -> None:
        self._stop.set()
        thread = self._thread
        if wait and thread is not None:
            thread.join(timeout=max(self.interval, 1.0) + 5.0)
        self._thread = None
