"""Crash-recovery tests for the write-ahead log + checkpoint subsystem.

The durability contract under test:

* every bulk mutation / DDL entry point logs a replayable record *before*
  applying, so ``Database.open`` on the surviving files reconstructs
  exactly the state as of the last durable boundary;
* a crash may tear the trailing record (partial frame, bad checksum) —
  recovery discards the torn tail, never half-applies it;
* statements inside a ``Session.transaction()`` group become durable
  all-or-nothing: a log ending inside an open group loses the whole
  group, and an aborted group replays (via its compensation records) to
  the pre-group state;
* a checkpoint atomically serialises the whole database (rows + index
  definitions + statistics) and truncates the log; recovery is
  checkpoint + log tail.

The kill-at-random-offset tests simulate the crash by truncating a copy
of the log at *every* byte offset (deterministic workload) or at an
arbitrary hypothesis-chosen offset (random workload), then recovering
into a fresh database and comparing against an oracle: the live states
recorded at each durable boundary while the workload ran.
"""

from __future__ import annotations

import os
import shutil
import sys
import threading
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.session import connect
from repro.constraints.keys import KeyConstraint
from repro.constraints.referential import ForeignKeyConstraint
from repro.constraints.schema_constraints import RowConstraint
from repro.core.errors import ReferentialViolation, StorageError, WalError, WalWarning
from repro.core.tuples import XTuple
from repro.stats import TableStatistics
from repro.storage.database import Database
from repro.storage.wal import (
    CHECKPOINT_NAME,
    CheckpointWorker,
    WriteAheadLog,
    committed_prefix,
    encode_frame,
    read_frames,
)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def canonical_state(database: Database):
    """Rows, index specs and foreign-key names per table — what recovery
    must reproduce exactly."""
    tables = {}
    for name in database.catalog.table_names():
        table = database.catalog.table(name)
        tables[name] = (
            frozenset(table.rows()),
            tuple(sorted(
                (index_name, tuple(attrs))
                for index_name, attrs in table.index_specs().items()
            )),
        )
    fks = tuple(sorted(
        (owner, fk.name) for owner, fk in database.catalog.foreign_key_entries()
    ))
    return tables, fks


def pickle_statistics_in_the_older_shape(monkeypatch) -> None:
    """Until ``monkeypatch.undo()``, pickle :class:`TableStatistics` as
    earlier releases wrote it: the same counters plus slots the class
    has since dropped, one holding an object of a class from a module
    this release no longer has (registered only while writing)."""
    module = types.ModuleType("repro.stats.histogram")
    histogram_class = type("EquiDepthHistogram", (), {
        "__slots__": ("minimum", "total", "buckets"),
        "__module__": module.__name__,
    })
    module.EquiDepthHistogram = histogram_class
    monkeypatch.setitem(sys.modules, module.__name__, module)
    histogram = histogram_class()
    histogram.minimum, histogram.total, histogram.buckets = 0, 3, ((2, 3),)

    def older_shape(stats):
        slots = {name: getattr(stats, name) for name in TableStatistics.__slots__}
        slots.update(
            correction=2.5,
            _signatures={("A", "B"): 300, ("B",): 1},
            _histograms={"A": histogram},
            mutations_since_analyze=7,
            staleness_threshold=256,
        )
        return None, slots

    monkeypatch.setattr(TableStatistics, "__getstate__", older_shape, raising=False)


def copy_wal_dir(source: str, target: str) -> None:
    """Simulate pulling the plug: copy the durable files as they are."""
    if os.path.exists(target):
        shutil.rmtree(target)
    shutil.copytree(source, target)


def recover_copy(source: str, target: str, truncate_to=None) -> Database:
    """Recover a fresh database from a crash-copy of *source*."""
    copy_wal_dir(source, target)
    if truncate_to is not None:
        with open(os.path.join(target, "wal.log"), "r+b") as handle:
            handle.truncate(truncate_to)
    return Database.open(target, name="recovered")


def run_workload(database: Database, session, boundaries):
    """A deterministic mixed workload; records ``(log position, state)``
    at every durable (transaction-depth-zero) boundary."""
    wal = database.wal

    def mark():
        wal.flush()
        boundaries.append((wal.position(), canonical_state(database)))

    database.create_table("T", ["K", "A"], constraints=[KeyConstraint(["K"])])
    mark()
    database.insert_many("T", [{"K": i, "A": i % 3} for i in range(8)])
    mark()
    database.table("T").create_index(["A"])
    mark()
    database.delete_many("T", [{"K": 2}, {"K": 5}])
    mark()
    database.update("T", {"K": 3, "A": 0}, {"K": 3, "A": 2})
    mark()
    with session.transaction():
        database.insert("T", {"K": 100, "A": 1})
        database.insert("T", {"K": 101, "A": 2})
    mark()
    try:
        with session.transaction():
            database.insert("T", {"K": 200, "A": 0})
            raise RuntimeError("rollback me")
    except RuntimeError:
        pass
    mark()
    database.create_table("S", ["X"])
    mark()
    database.insert_many("S", [{"X": 1}, {"X": 2}])
    mark()
    database.table("T").drop_index("idx(A)")
    mark()
    database.table("T").analyze()
    mark()
    database.drop_table("S")
    mark()


def oracle_at(boundaries, offset: int):
    """The expected recovered state after truncating the log at *offset*:
    the last durable boundary whose log position survived in full."""
    state = None
    for position, snapshot in boundaries:
        if position <= offset:
            state = snapshot
        else:
            break
    return state


# ---------------------------------------------------------------------------
# Frame-level behaviour
# ---------------------------------------------------------------------------

class TestFrames:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "wal.log")
        records = [{"op": "insert", "table": "T", "rows": [XTuple({"A": 1})]},
                   {"op": "begin"}, {"op": "commit"}]
        with open(path, "wb") as handle:
            for record in records:
                handle.write(encode_frame(record))
        decoded, ends, valid = read_frames(path)
        assert decoded == records
        assert valid == ends[-1] == os.path.getsize(path)

    def test_torn_tail_discarded_at_every_offset(self, tmp_path):
        path = str(tmp_path / "wal.log")
        records = [{"op": "insert", "table": "T", "rows": [XTuple({"A": i})]}
                   for i in range(4)]
        frames = [encode_frame(r) for r in records]
        data = b"".join(frames)
        ends = []
        total = 0
        for frame in frames:
            total += len(frame)
            ends.append(total)
        for cut in range(len(data) + 1):
            with open(path, "wb") as handle:
                handle.write(data[:cut])
            decoded, _, valid = read_frames(path)
            survived = sum(1 for end in ends if end <= cut)
            assert len(decoded) == survived
            assert decoded == records[:survived]
            assert valid == (ends[survived - 1] if survived else 0)

    def test_corrupt_checksum_stops_the_read(self, tmp_path):
        path = str(tmp_path / "wal.log")
        frames = [encode_frame({"op": "insert", "table": "T", "rows": []}),
                  encode_frame({"op": "truncate", "table": "T"})]
        data = bytearray(b"".join(frames))
        data[len(frames[0]) + 10] ^= 0xFF  # flip a payload byte of frame 2
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        decoded, _, valid = read_frames(path)
        assert len(decoded) == 1
        assert valid == len(frames[0])

    def test_missing_file_is_an_empty_log(self, tmp_path):
        decoded, ends, valid = read_frames(str(tmp_path / "absent.log"))
        assert decoded == [] and ends == [] and valid == 0

    def test_committed_prefix_drops_unfinished_group(self):
        records = [
            {"op": "insert", "table": "T", "rows": []},
            {"op": "begin"},
            {"op": "insert", "table": "T", "rows": []},
            {"op": "commit"},
            {"op": "begin"},
            {"op": "remove", "table": "T", "rows": []},
        ]
        ends = [10, 20, 30, 40, 50, 60]
        applied, keep = committed_prefix(records, ends)
        assert applied == records[:4]
        assert keep == 40

    def test_committed_prefix_keeps_aborted_group(self):
        records = [{"op": "begin"},
                   {"op": "insert", "table": "T", "rows": []},
                   {"op": "load", "table": "T", "rows": []},
                   {"op": "abort"}]
        ends = [1, 2, 3, 4]
        applied, keep = committed_prefix(records, ends)
        assert applied == records
        assert keep == 4

    def test_unknown_sync_mode_rejected(self, tmp_path):
        with pytest.raises(WalError):
            WriteAheadLog(str(tmp_path / "w"), sync="everything")


# ---------------------------------------------------------------------------
# End-to-end recovery
# ---------------------------------------------------------------------------

class TestRecovery:
    def test_open_recovers_full_state(self, tmp_path):
        source = str(tmp_path / "db")
        database = Database.open(source)
        session = connect(database)
        boundaries = []
        run_workload(database, session, boundaries)
        expected = canonical_state(database)
        expected_stats = {
            name: database.table(name).statistics.copy()
            for name in database.catalog.table_names()
        }
        # No close(): recovery must work from the files as they are.
        recovered = recover_copy(source, str(tmp_path / "copy"))
        assert canonical_state(recovered) == expected
        for name, stats in expected_stats.items():
            assert recovered.table(name).statistics == stats
        database.close()
        recovered.close()

    def test_kill_at_every_offset_matches_oracle_prefix(self, tmp_path):
        source = str(tmp_path / "db")
        database = Database.open(source, sync="none")
        session = connect(database)
        boundaries = [(0, canonical_state(database))]
        run_workload(database, session, boundaries)
        database.wal.flush()
        log_size = os.path.getsize(os.path.join(source, "wal.log"))
        assert log_size > 0
        target = str(tmp_path / "cut")
        for offset in range(log_size + 1):
            recovered = recover_copy(source, target, truncate_to=offset)
            expected = oracle_at(boundaries, offset)
            assert canonical_state(recovered) == expected, f"offset {offset}"
            recovered.close()
        database.close()

    def test_checkpoint_mid_workload(self, tmp_path):
        source = str(tmp_path / "db")
        database = Database.open(source)
        database.create_table("T", ["K"])
        database.insert_many("T", [{"K": i} for i in range(50)])
        assert database.checkpoint() is True
        # The log restarts with just the checkpoint mark; pre-checkpoint
        # state now lives in checkpoint.bin.
        assert database.wal.tail_bytes() == 0
        database.insert_many("T", [{"K": i} for i in range(50, 80)])
        expected = canonical_state(database)
        recovered = recover_copy(source, str(tmp_path / "copy"))
        assert canonical_state(recovered) == expected
        database.close()
        recovered.close()

    def test_recover_then_continue_then_recover(self, tmp_path):
        source = str(tmp_path / "db")
        first = Database.open(source)
        first.create_table("T", ["K"])
        first.insert_many("T", [{"K": i} for i in range(10)])
        first.wal.close()  # crash-ish: no final checkpoint

        second = Database.open(source, name="second")
        assert len(second["T"]) == 10
        second.insert_many("T", [{"K": i} for i in range(10, 25)])
        second.table("T").create_index(["K"])
        expected = canonical_state(second)
        recovered = recover_copy(source, str(tmp_path / "copy"))
        assert canonical_state(recovered) == expected
        second.close()
        recovered.close()

    def test_unfinished_transaction_discarded(self, tmp_path):
        source = str(tmp_path / "db")
        database = Database.open(source)
        session = connect(database)
        database.create_table("T", ["K"])
        database.insert("T", {"K": 1})
        before = canonical_state(database)
        with session.transaction():
            database.insert("T", {"K": 2})
            database.delete("T", {"K": 1})
            database.wal.flush()
            # Crash inside the group: the copy holds begin + mutations
            # but no commit marker.
            recovered = recover_copy(source, str(tmp_path / "copy"))
        assert canonical_state(recovered) == before
        recovered.close()
        database.close()

    def test_aborted_transaction_replays_to_pre_group_state(self, tmp_path):
        source = str(tmp_path / "db")
        database = Database.open(source)
        session = connect(database)
        database.create_table("T", ["K"])
        database.insert("T", {"K": 1})
        before = canonical_state(database)
        try:
            with session.transaction():
                database.insert("T", {"K": 2})
                database.create_table("EXTRA", ["X"])
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert canonical_state(database) == before
        recovered = recover_copy(source, str(tmp_path / "copy"))
        assert canonical_state(recovered) == before
        recovered.close()
        database.close()

    @staticmethod
    def _rolled_back_appends(directory: str, table_rows: int, analyze: bool):
        """Roll back a 2-append group (with an ANALYZE between the
        appends when *analyze*) on a *table_rows*-row table; the bytes
        and record kinds it added to the log."""
        database = Database.open(directory, sync="none")
        database.create_table("T", ["K", "A"])
        database.insert_many("T", [{"K": i, "A": i % 7} for i in range(table_rows)])
        session = connect(database)
        wal = database.wal
        wal.flush()
        start = wal.position()
        try:
            with session.transaction():
                session.execute("append to T (K = $k, A = 1)", {"k": -1})
                if analyze:
                    database.analyze()
                session.execute("append to T (K = $k, A = 2)", {"k": -2})
                raise _Rollback()
        except _Rollback:
            pass
        wal.flush()
        grown = wal.position() - start
        records, ends, _ = read_frames(wal.log_path)
        ops = [record["op"] for record, end in zip(records, ends) if end > start]
        assert len(database["T"]) == table_rows
        assert database.table("T").statistics == TableStatistics(database["T"].tuples())
        database.close()
        return grown, ops

    def test_rollback_logs_o_batch_bytes_whatever_the_table_size(self, tmp_path):
        """A rollback logs the inverse of what the group did — here two
        ``remove`` records — never a whole-table ``load``, also when the
        group ran an ANALYZE (it is not undone: its recount is exact)."""
        for analyze, expected in [
            (False, ["begin", "insert", "insert", "remove", "remove", "abort"]),
            (True, ["begin", "insert", "analyze", "insert", "remove", "remove",
                    "abort"]),
        ]:
            small, small_ops = self._rolled_back_appends(
                str(tmp_path / f"small-{analyze}"), 50, analyze
            )
            large, large_ops = self._rolled_back_appends(
                str(tmp_path / f"large-{analyze}"), 5_000, analyze
            )
            assert small_ops == large_ops == expected
            assert small == large

    def test_rolled_back_group_with_ddl_and_analyze_recovers_to_live(self, tmp_path):
        source = str(tmp_path / "db")
        database = Database.open(source)
        session = connect(database)
        table = database.create_table("T", ["K", "A"])
        database.insert_many("T", [{"K": i, "A": i % 5} for i in range(40)])
        table.analyze()
        database.insert("T", {"K": 100})
        before = canonical_state(database)
        try:
            with session.transaction():
                session.execute("append to T (K = 200, A = 1)")
                session.execute("range of t is T delete t where t.A = 2")
                table.create_index(["A"])
                table.analyze()
                session.execute("range of t is T replace t (A = 9) where t.K = 3")
                raise _Rollback()
        except _Rollback:
            pass
        assert canonical_state(database) == before
        assert table.statistics == TableStatistics(table.rows())
        recovered = recover_copy(source, str(tmp_path / "copy"))
        assert canonical_state(recovered) == canonical_state(database)
        assert recovered.table("T").statistics == table.statistics
        recovered.close()
        database.close()

    def test_failed_replace_recovers_to_the_pre_statement_state(self, tmp_path):
        """A REPLACE that fails its post-state FK check is undone live by
        the inverse delta; both records are in the log, so a crash-copy
        replays to the same pre-statement state."""
        source = str(tmp_path / "db")
        database = Database.open(source)
        database.create_table("P", ["K"], constraints=[KeyConstraint(["K"])])
        database.create_table("C", ["K", "P"]).create_index(["P"])
        database.add_foreign_key("C", ForeignKeyConstraint(["P"], "P", ["K"]))
        database.insert_many("P", [{"K": i} for i in range(4)])
        database.insert_many("C", [{"K": i, "P": i % 4} for i in range(12)])
        database.insert("C", XTuple({"K": 5}))  # dominated by (K=5, P=1)
        before = canonical_state(database)
        with pytest.raises(ReferentialViolation):
            connect(database).execute(
                "range of c is C replace c (P = 99) where c.K = 5"
            )
        assert canonical_state(database) == before
        recovered = recover_copy(source, str(tmp_path / "copy"))
        assert canonical_state(recovered) == before
        assert recovered.table("C").statistics == database.table("C").statistics
        recovered.close()
        database.close()

    def test_log_written_before_the_delta_primitive_still_replays(self, tmp_path):
        """The record kinds on disk did not change, but what earlier
        writers put in them was looser: the per-row ``insert`` logged its
        row even when already stored, an all-duplicate batch logged an
        empty ``insert``, and replacing a row by itself logged it on both
        sides of an ``update``.  Replay must take all of it."""
        source = str(tmp_path / "db")
        database = Database.open(source)
        database.create_table("T", ["K", "A"]).create_index(["A"])
        database.create_table("S", ["X"])

        def rows(*assignments):
            return [XTuple(assignment) for assignment in assignments]

        for record in [
            {"op": "insert", "table": "T",
             "rows": rows(*({"K": i, "A": i % 3} for i in range(8)))},
            {"op": "insert", "table": "T", "rows": rows({"K": 1, "A": 1})},
            {"op": "insert", "table": "T", "rows": rows({"K": 50})},
            {"op": "insert", "table": "T", "rows": []},
            {"op": "remove", "table": "T", "rows": rows({"K": 4, "A": 1})},
            {"op": "update", "table": "T",
             "removed": rows({"K": 3, "A": 0}), "rows": rows({"K": 3, "A": 0})},
            {"op": "update", "table": "T",
             "removed": rows({"K": 7, "A": 1}), "rows": rows({"K": 70, "A": 2})},
            {"op": "insert", "table": "S", "rows": rows({"X": 1}, {"X": 2})},
            {"op": "load", "table": "S", "rows": rows({"X": 9}), "statistics": None},
            {"op": "truncate", "table": "S"},
            {"op": "insert", "table": "S", "rows": rows({"X": 3})},
        ]:
            database.wal.append(record)  # logged, never applied live
        database.wal.flush()
        recovered = recover_copy(source, str(tmp_path / "copy"))
        table = recovered.table("T")
        expected = set(rows(
            {"K": 0, "A": 0}, {"K": 1, "A": 1}, {"K": 2, "A": 2},
            {"K": 3, "A": 0}, {"K": 5, "A": 2}, {"K": 6, "A": 0},
            {"K": 70, "A": 2}, {"K": 50},
        ))
        assert set(table.rows()) == expected
        assert table.statistics == TableStatistics(expected)
        assert table.find_index(["A"]).lookup([2]) == {
            row for row in expected if row["A"] == 2
        }
        assert set(recovered.table("S").rows()) == set(rows({"X": 3}))
        recovered.close()
        database.close()

    def test_rolled_back_group_in_the_older_log_shape_replays(
        self, tmp_path, monkeypatch
    ):
        """Earlier releases tagged a rollback's compensating deltas with
        the churn counter they put back (a ``staleness`` field) and undid
        an ANALYZE with a ``load`` of the current rows carrying the prior
        statistics, pickled with since-dropped slots.  Replay ignores the
        field and opens those statistics."""
        source = str(tmp_path / "db")
        database = Database.open(source)
        database.create_table("T", ["K"])

        def rows(*keys):
            return [XTuple({"K": k}) for k in keys]

        pickle_statistics_in_the_older_shape(monkeypatch)
        for record in [
            {"op": "insert", "table": "T", "rows": rows(1, 2, 3)},
            {"op": "begin"},
            {"op": "insert", "table": "T", "rows": rows(4)},
            {"op": "remove", "table": "T", "rows": rows(2)},
            {"op": "analyze", "table": "T"},
            {"op": "load", "table": "T", "rows": rows(1, 3, 4),
             "statistics": TableStatistics(rows(1, 3, 4))},
            {"op": "insert", "table": "T", "rows": rows(2), "staleness": 2},
            {"op": "remove", "table": "T", "rows": rows(4), "staleness": 1},
            {"op": "abort"},
        ]:
            database.wal.append(record)  # logged, never applied live
        database.wal.flush()
        monkeypatch.undo()
        recovered = recover_copy(source, str(tmp_path / "copy"))
        table = recovered.table("T")
        assert set(table.rows()) == set(rows(1, 2, 3))
        assert table.statistics == TableStatistics(rows(1, 2, 3))
        recovered.close()
        database.close()

    def test_checkpoint_with_dropped_statistics_slots_still_opens(
        self, tmp_path, monkeypatch
    ):
        """Statistics used to carry an adaptive correction factor, a
        null-pattern counter, equi-depth histograms and a churn counter
        with its threshold, and checkpoints pickled every slot.  Such a
        checkpoint must still open, with the surviving counters intact."""
        directory = os.fspath(tmp_path / "wal")
        database = Database.open(directory, name="oldwal")
        table = database.create_table("T", ["A", "B"])
        table.insert_many([(i % 25, i) for i in range(300)] + [(None, 1000)])
        database.analyze()
        expected = table.statistics.copy()
        pickle_statistics_in_the_older_shape(monkeypatch)
        assert database.checkpoint() is True
        database.close()
        monkeypatch.undo()
        with open(os.path.join(directory, CHECKPOINT_NAME), "rb") as handle:
            stored = handle.read()
        for slot in (b"_signatures", b"_histograms", b"mutations_since_analyze",
                     b"staleness_threshold", b"repro.stats.histogram"):
            assert slot in stored
        assert "repro.stats.histogram" not in sys.modules

        recovered = Database.open(directory, name="recovered")
        try:
            stats = recovered.catalog.table("T").statistics
            assert stats.same_counts_as(expected)
            assert not hasattr(stats, "correction")
            assert not hasattr(stats, "_histograms")
            assert len(recovered.catalog.table("T")) == 301
        finally:
            recovered.close()

    def test_recovery_requires_empty_database(self, tmp_path):
        source = str(tmp_path / "db")
        durable = Database.open(source)
        durable.create_table("T", ["K"])
        durable.close()
        occupied = Database("occupied")
        occupied.create_table("X", ["A"])
        with pytest.raises(WalError):
            occupied.attach_wal(source)

    def test_double_attach_rejected(self, tmp_path):
        database = Database.open(str(tmp_path / "db"))
        with pytest.raises(StorageError):
            database.attach_wal(str(tmp_path / "other"))
        database.close()

    def test_close_then_reopen_without_log_replay(self, tmp_path):
        source = str(tmp_path / "db")
        database = Database.open(source)
        database.create_table("T", ["K"])
        database.insert_many("T", [{"K": i} for i in range(5)])
        expected = canonical_state(database)
        database.close()  # final checkpoint: only the mark is left on disk
        records, _, _ = read_frames(os.path.join(source, "wal.log"))
        assert [record["op"] for record in records] == ["checkpoint_mark"]
        reopened = Database.open(source)
        assert canonical_state(reopened) == expected
        reopened.close()


# ---------------------------------------------------------------------------
# Crash windows around the checkpoint itself, and other recovery edges
# ---------------------------------------------------------------------------

class TestCheckpointCrashAtomicity:
    def test_crash_between_checkpoint_rename_and_log_reset(self, tmp_path):
        """A crash after os.replace(checkpoint) but before the log reset
        leaves the *new* checkpoint plus the *old* log.  The stale log's
        checkpoint_mark names an older checkpoint, so recovery must
        discard it — replaying it used to re-run the DDL over the
        checkpointed state ('table users already exists') and silently
        corrupt DML-only histories."""
        source = str(tmp_path / "db")
        database = Database.open(source)
        database.create_table("users", ["K"], constraints=[KeyConstraint(["K"])])
        database.insert_many("users", [{"K": i} for i in range(20)])
        database.delete_many("users", [{"K": 3}])
        database.wal.flush()
        with open(os.path.join(source, "wal.log"), "rb") as handle:
            stale_log = handle.read()
        assert database.checkpoint() is True
        expected = canonical_state(database)
        crash = str(tmp_path / "crash")
        copy_wal_dir(source, crash)
        with open(os.path.join(crash, "wal.log"), "wb") as handle:
            handle.write(stale_log)  # the pre-checkpoint log survived
        recovered = Database.open(crash, name="recovered")
        assert canonical_state(recovered) == expected
        recovered.close()
        database.close()

    def test_stale_dml_only_log_is_not_replayed(self, tmp_path):
        """The silent variant: a stale log holding only remove records
        would subtract checkpointed rows again."""
        source = str(tmp_path / "db")
        database = Database.open(source)
        database.create_table("T", ["K"])
        database.insert_many("T", [{"K": i} for i in range(10)])
        assert database.checkpoint() is True
        database.delete_many("T", [{"K": k} for k in (1, 2)])
        database.wal.flush()
        with open(os.path.join(source, "wal.log"), "rb") as handle:
            stale_log = handle.read()
        assert database.checkpoint() is True
        expected = canonical_state(database)
        crash = str(tmp_path / "crash")
        copy_wal_dir(source, crash)
        with open(os.path.join(crash, "wal.log"), "wb") as handle:
            handle.write(stale_log)
        recovered = Database.open(crash, name="recovered")
        assert canonical_state(recovered) == expected
        assert len(recovered["T"]) == 8
        recovered.close()
        database.close()

    def test_log_requiring_a_missing_checkpoint_fails_loudly(self, tmp_path):
        """A log whose mark names a newer checkpoint than the file on
        disk means the checkpoint it depends on is gone — recovery must
        refuse rather than replay a tail over the wrong base state."""
        source = str(tmp_path / "db")
        database = Database.open(source)
        database.create_table("T", ["K"])
        with open(os.path.join(source, "checkpoint.bin"), "rb") as handle:
            old_checkpoint = handle.read()  # the baseline checkpoint
        database.insert("T", {"K": 1})
        database.close()  # final checkpoint; the log mark now names it
        with open(os.path.join(source, "checkpoint.bin"), "wb") as handle:
            handle.write(old_checkpoint)  # roll the checkpoint back
        with pytest.raises(WalError):
            Database.open(source, name="recovered")

    def test_failed_rollback_still_closes_the_group(self, tmp_path):
        """When Transaction._restore raises (table dropped inside the
        group), the abort marker must still land: otherwise the log's
        transaction depth stays open forever, every later autocommitted
        statement is buffered into the dead group (discarded at
        recovery) and every checkpoint silently returns False."""
        source = str(tmp_path / "db")
        database = Database.open(source)
        session = connect(database)
        database.create_table("T", ["K"])
        database.create_table("DOOMED", ["X"])
        with pytest.raises(StorageError):
            with session.transaction():
                database.drop_table("DOOMED")
                raise RuntimeError("trigger the rollback")
        assert database.wal.transaction_depth == 0
        assert not session.in_transaction
        # Durability continues: later statements autocommit and survive,
        # and checkpoints are taken again.
        database.insert("T", {"K": 42})
        recovered = recover_copy(source, str(tmp_path / "copy"))
        assert XTuple({"K": 42}) in recovered.table("T").rows()
        assert database.checkpoint() is True
        recovered.close()
        database.close()

    def test_replayed_load_restores_statistics(self, tmp_path):
        """A logged 'load' carries the statistics handed to reset_rows,
        so crash recovery reproduces the same planner estimates as the
        live restore path."""
        source = str(tmp_path / "db")
        database = Database.open(source)
        database.create_table("T", ["A", "B"])
        database.insert_many("T", [{"A": i, "B": i % 2} for i in range(6)])
        database.table("T").analyze()
        database.insert_many("T", [{"A": 10, "B": 0}])
        snapshot = database.snapshot()
        database.insert_many("T", [{"A": 11, "B": 1}])
        database.restore(snapshot)  # logs one load record, statistics included
        stats = database.table("T").statistics
        recovered = recover_copy(source, str(tmp_path / "copy"))
        assert recovered.table("T").statistics == stats
        recovered.close()
        database.close()

    def test_rename_table_rewrites_foreign_keys_durably(self, tmp_path):
        source = str(tmp_path / "db")
        database = Database.open(source)
        database.create_table("DEPT", ["D#"], constraints=[KeyConstraint(["D#"])])
        database.create_table("EMP", ["E#", "D#"])
        database.insert("DEPT", {"D#": 1})
        database.insert("EMP", {"E#": 1, "D#": 1})
        database.add_foreign_key(
            "EMP", ForeignKeyConstraint(["D#"], "DEPT", ["D#"], name="emp_dept")
        )
        database.catalog.rename_table("DEPT", "DIVISION")
        expected = canonical_state(database)
        recovered = recover_copy(source, str(tmp_path / "copy"))
        assert canonical_state(recovered) == expected
        entries = recovered.catalog.foreign_key_entries()
        assert [(owner, fk.referenced_relation) for owner, fk in entries] == [
            ("EMP", "DIVISION")
        ]
        recovered.close()
        database.close()

    def test_unpicklable_constraint_warns_when_dropped_and_at_recovery(self, tmp_path):
        source = str(tmp_path / "db")
        database = Database.open(source)
        constraint = RowConstraint(
            "T", lambda row: row["K"] is None or row["K"] < 100, name="k_small"
        )
        with pytest.warns(WalWarning, match="k_small"):
            database.create_table("T", ["K"], constraints=[constraint])
        database.insert("T", {"K": 1})
        with pytest.warns(WalWarning, match="k_small"):
            assert database.checkpoint() is True
        with pytest.warns(WalWarning, match="k_small"):
            recovered = recover_copy(source, str(tmp_path / "copy"))
        assert XTuple({"K": 1}) in recovered.table("T").rows()
        assert all(
            getattr(c, "name", "") != "k_small"
            for c in recovered.table("T").constraints
        )
        recovered.close()
        with pytest.warns(WalWarning, match="k_small"):
            database.close()  # its closing checkpoint drops it again


# ---------------------------------------------------------------------------
# Property test: random workload, random truncation point
# ---------------------------------------------------------------------------

VALUES = st.one_of(st.none(), st.integers(min_value=0, max_value=2))
ROW = st.tuples(VALUES, VALUES)
ROWS = st.lists(ROW, max_size=4)

STATEMENTS = st.one_of(
    st.tuples(st.just("insert_many"), ROWS),
    st.tuples(st.just("delete_many"), ROWS),
    st.tuples(st.just("delete_where"), st.integers(min_value=0, max_value=2)),
    st.tuples(st.just("load"), ROWS),
    st.tuples(st.just("truncate")),
    st.tuples(st.just("toggle_index")),
    st.tuples(st.just("analyze")),
    st.tuples(st.just("txn"), st.lists(st.tuples(st.just("insert_many"), ROWS),
                                       max_size=3), st.booleans()),
)


def apply_statement(database: Database, session, statement) -> None:
    kind = statement[0]
    table = database.table("T")
    if kind == "insert_many":
        database.insert_many("T", statement[1])
    elif kind == "delete_many":
        database.delete_many("T", statement[1])
    elif kind == "delete_where":
        value = statement[1]
        table.delete_where(lambda row: row["A"] == value)
    elif kind == "load":
        table.load(statement[1])
    elif kind == "truncate":
        table.truncate()
    elif kind == "toggle_index":
        if table.find_index(["A"]) is None:
            table.create_index(["A"])
        else:
            table.drop_index(["A"])
    elif kind == "analyze":
        table.analyze()
    elif kind == "txn":
        _, body, commit = statement
        try:
            with session.transaction():
                for inner in body:
                    apply_statement(database, session, inner)
                if not commit:
                    raise _Rollback()
        except _Rollback:
            pass


class _Rollback(Exception):
    pass


class TestRecoveryProperty:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        statements=st.lists(STATEMENTS, min_size=1, max_size=8),
        cut_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_recovered_state_is_an_oracle_prefix(
        self, tmp_path_factory, statements, cut_fraction
    ):
        base = tmp_path_factory.mktemp("walprop")
        source = str(base / "db")
        database = Database.open(source, sync="none")
        session = connect(database)
        try:
            database.create_table("T", ["A", "B"])
            wal = database.wal
            wal.flush()
            boundaries = [(wal.position(), canonical_state(database))]
            for statement in statements:
                apply_statement(database, session, statement)
                wal.flush()
                boundaries.append((wal.position(), canonical_state(database)))
            log_size = os.path.getsize(os.path.join(source, "wal.log"))
            offset = round(cut_fraction * log_size)
            recovered = recover_copy(source, str(base / "cut"), truncate_to=offset)
            try:
                expected = oracle_at(boundaries, offset)
                if expected is None:
                    # Cut before even the create_table survived: recovery
                    # yields the baseline (empty) checkpoint state.
                    expected = ({}, ())
                assert canonical_state(recovered) == expected
            finally:
                recovered.close()
        finally:
            database.close()
            shutil.rmtree(str(base), ignore_errors=True)


# ---------------------------------------------------------------------------
# The background checkpoint worker
# ---------------------------------------------------------------------------

class TestCheckpointWorker:
    def test_run_once_checkpoints_and_truncates(self, tmp_path):
        database = Database.open(str(tmp_path / "db"))
        database.create_table("T", ["K"])
        database.insert_many("T", [{"K": i} for i in range(10)])
        worker = CheckpointWorker(database, interval=3600.0)
        assert database.wal.tail_bytes() > 0
        assert worker.run_once() is True
        assert database.wal.tail_bytes() == 0
        # Nothing new in the log: the next cycle is a no-op.
        assert worker.run_once() is False
        database.close()

    def test_worker_skips_open_transaction(self, tmp_path):
        database = Database.open(str(tmp_path / "db"))
        session = connect(database)
        database.create_table("T", ["K"])
        worker = CheckpointWorker(database, interval=3600.0)
        with session.transaction():
            database.insert("T", {"K": 1})
            assert worker.run_once() is False
            assert database.checkpoint() is False
        assert worker.run_once() is True
        database.close()

    def test_background_thread_checkpoints(self, tmp_path):
        database = Database.open(
            str(tmp_path / "db"), checkpoint_interval=0.05
        )
        worker = database.checkpoint_worker
        assert worker is not None and worker.running
        database.create_table("T", ["K"])
        database.insert_many("T", [{"K": i} for i in range(100)])
        deadline = threading.Event()
        for _ in range(100):  # up to ~5s for one cycle
            if worker.cycles >= 1:
                break
            deadline.wait(0.05)
        assert worker.cycles >= 1
        assert worker.last_error is None
        expected = canonical_state(database)
        database.close()
        assert not worker.running
        recovered = Database.open(str(tmp_path / "db"), name="recovered")
        assert canonical_state(recovered) == expected
        recovered.close()

    def test_concurrent_mutations_with_worker_lose_nothing(self, tmp_path):
        """Append+apply hold the WAL lock, so a background checkpoint can
        never truncate a logged-but-unapplied record: every committed row
        survives recovery no matter how the checkpoints interleave."""
        source = str(tmp_path / "db")
        database = Database.open(source, checkpoint_interval=0.01)
        database.create_table("T", ["K"])
        for i in range(60):
            database.insert("T", {"K": i})
        expected = canonical_state(database)
        database.close()
        recovered = Database.open(source, name="recovered")
        assert canonical_state(recovered) == expected
        recovered.close()


class TestGroupCommit:
    """PR 9 satellite: concurrent depth-0 commit boundaries coalesce into
    shared fsyncs (one fsync serves all writers queued behind it) without
    weakening the statement-returns-after-durable guarantee."""

    def test_single_threaded_fsync_per_commit_unchanged(self, tmp_path):
        database = Database.open(str(tmp_path / "db"))
        database.create_table("T", ["K"])
        wal = database.wal
        base = wal.fsyncs_issued
        for i in range(7):
            database.insert("T", {"K": i})
        # No concurrency → nothing to coalesce: one fsync per boundary.
        assert wal.fsyncs_issued - base == 7
        assert wal.commits_coalesced == 0
        database.close()

    def test_explicit_scope_defers_to_one_fsync(self, tmp_path):
        database = Database.open(str(tmp_path / "db"))
        database.create_table("T", ["K"])
        wal = database.wal
        base = wal.fsyncs_issued
        with wal.commit_scope():
            database.insert("T", {"K": 1})
            database.insert("T", {"K": 2})
        # Both appends deferred to the outer scope's single exit sync.
        assert wal.fsyncs_issued - base == 1
        database.close()

    def test_concurrent_commits_coalesce_and_recover(self, tmp_path):
        source = str(tmp_path / "db")
        database = Database.open(source)
        database.create_table("T", ["A", "B"])
        wal = database.wal
        base = wal.fsyncs_issued
        threads, per_thread = 6, 40

        def work(worker: int) -> None:
            for i in range(per_thread):
                database.insert("T", {"A": worker, "B": i})

        pool = [
            threading.Thread(target=work, args=(worker,))
            for worker in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        commits = threads * per_thread
        # Every commit boundary was made durable exactly once: by its own
        # fsync or by a later writer's covering fsync.
        assert wal.fsyncs_issued - base + wal.commits_coalesced == commits
        assert len(database.catalog.table("T").relation.tuples()) == commits
        expected = canonical_state(database)
        database.close()
        recovered = Database.open(source, name="recovered")
        assert canonical_state(recovered) == expected
        recovered.close()

    def test_group_commit_off_restores_inline_fsync(self, tmp_path):
        database = Database.open(str(tmp_path / "db"), group_commit=False)
        database.create_table("T", ["K"])
        wal = database.wal
        assert wal.group_commit is False
        base = wal.fsyncs_issued
        with wal.commit_scope():
            database.insert("T", {"K": 1})
            database.insert("T", {"K": 2})
        # Inline mode fsyncs inside the critical section, scope or not.
        assert wal.fsyncs_issued - base == 2
        database.close()

    def test_sync_none_never_fsyncs_on_append(self, tmp_path):
        database = Database.open(str(tmp_path / "db2"), sync="none")
        database.create_table("T", ["K"])
        wal = database.wal
        base = wal.fsyncs_issued
        for i in range(5):
            database.insert("T", {"K": i})
        assert wal.fsyncs_issued == base
        database.close()

    def test_transaction_markers_still_fsync_at_close(self, tmp_path):
        database = Database.open(str(tmp_path / "db"))
        database.create_table("T", ["K"])
        session = connect(database)
        wal = database.wal
        base = wal.fsyncs_issued
        with session.transaction():
            session.execute("append to T (K = 1)")
            session.execute("append to T (K = 2)")
        # Inside the group nothing syncs; the commit marker is the one
        # durability point the group rides out on.
        assert wal.fsyncs_issued - base == 1
        database.close()
