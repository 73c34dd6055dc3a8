"""Session lifecycle (PR 9 satellite): ``Session.close()`` + context
manager, idempotent, invalidating prepared handles and open lazy result
sets with :class:`SessionClosedError` instead of undefined behavior."""

import pytest

import repro
from repro.core.errors import SessionClosedError
from repro.obs import MetricsRegistry
from repro.storage import Database


@pytest.fixture
def db():
    database = Database("life", metrics=MetricsRegistry())
    table = database.create_table("T", ["A", "B"])
    table.insert_many([(i, i % 3) for i in range(40)])
    return database


class TestClose:
    def test_close_is_idempotent(self, db):
        session = repro.connect(db)
        session.close()
        session.close()
        assert session.closed

    def test_context_manager_closes(self, db):
        with repro.connect(db) as session:
            session.execute("range of t is T retrieve (t.A) where t.A = 1")
            assert not session.closed
        assert session.closed

    def test_statements_after_close_raise(self, db):
        session = repro.connect(db)
        session.close()
        with pytest.raises(SessionClosedError):
            session.execute("range of t is T retrieve (t.A)")
        with pytest.raises(SessionClosedError):
            session.prepare("range of t is T retrieve (t.A)")
        with pytest.raises(SessionClosedError):
            session.transaction()

    def test_prepared_handle_invalidated(self, db):
        session = repro.connect(db)
        prepared = session.prepare(
            "range of t is T retrieve (t.B) where t.A = $a"
        )
        assert prepared.execute({"a": 1}).rows
        session.close()
        with pytest.raises(SessionClosedError):
            prepared.execute({"a": 1})
        with pytest.raises(SessionClosedError):
            prepared.explain()

    def test_undrained_lazy_result_invalidated(self, db):
        session = repro.connect(db)
        result = session.execute("range of t is T retrieve (t.A, t.B)")
        iterator = iter(result)
        next(iterator)  # partially streamed
        session.close()
        with pytest.raises(SessionClosedError):
            result.rows
        with pytest.raises(SessionClosedError):
            list(iterator)

    def test_drained_result_survives_close(self, db):
        session = repro.connect(db)
        result = session.execute("range of t is T retrieve (t.A, t.B)")
        rows = result.rows  # fully drained and cached
        session.close()
        assert result.rows == rows  # the cached answer stays readable
        assert list(result)

    def test_close_rolls_back_open_transaction(self, db):
        session = repro.connect(db)
        session.transaction().begin()
        session.execute("append to T (A = 999, B = 0)")
        assert any(row["A"] == 999 for row in db.catalog.table("T").rows())
        session.close()
        assert not any(row["A"] == 999 for row in db.catalog.table("T").rows())
        assert not session.in_transaction

    def test_close_rolls_back_nested_groups_innermost_first(self, db):
        """Rolling the outer group back first and the inner one second
        would put the inner group's entry state back — including the
        outer group's writes made before the inner begin."""
        db.create_table("R", ["A"])
        session = repro.connect(db)
        session.transaction().begin()
        session.execute("append to R (A = 1)")
        session.transaction().begin()
        session.execute("append to R (A = 2)")
        session.close()
        assert set(db.catalog.table("R").rows()) == set()
        assert not session.in_transaction
        # Both groups are closed: a fresh group starts from an empty
        # journal and rolls back on its own.
        other = repro.connect(db)
        with other.transaction() as transaction:
            other.execute("append to R (A = 3)")
            transaction.rollback()
        assert set(db.catalog.table("R").rows()) == set()

    def test_database_stays_usable_by_other_sessions(self, db):
        first = repro.connect(db)
        first.close()
        second = repro.connect(db)
        assert second.execute(
            "range of t is T retrieve (t.A) where t.A = 1"
        ).rows


class TestTransactionBegin:
    def test_begin_commit_without_with(self, db):
        session = repro.connect(db)
        transaction = session.transaction().begin()
        assert transaction.active and session.in_transaction
        session.execute("append to T (A = 500, B = 1)")
        transaction.commit()
        assert not session.in_transaction
        assert any(row["A"] == 500 for row in db.catalog.table("T").rows())

    def test_begin_rollback_without_with(self, db):
        session = repro.connect(db)
        transaction = session.transaction().begin()
        session.execute("append to T (A = 501, B = 1)")
        transaction.rollback()
        assert not any(row["A"] == 501 for row in db.catalog.table("T").rows())

    def test_double_begin_raises(self, db):
        session = repro.connect(db)
        transaction = session.transaction().begin()
        with pytest.raises(Exception):
            transaction.begin()
        transaction.rollback()


class TestExecutePrepared:
    def test_traces_and_tags(self, db):
        session = repro.connect(db)
        session.trace_tags = {"client": "c9", "request": "r1"}
        prepared = session.prepare(
            "range of t is T retrieve (t.B) where t.A = $a"
        )
        result = session.execute_prepared(prepared, {"a": 2})
        assert result.rows == [repro.XTuple(t_B=2)]
        trace = session.recent_traces()[-1]
        assert trace.tags == {"client": "c9", "request": "r1"}
        assert trace.kind == "retrieve"

    def test_rejects_foreign_prepared(self, db):
        mine = repro.connect(db)
        other = repro.connect(db)
        prepared = other.prepare("range of t is T retrieve (t.A)")
        with pytest.raises(Exception):
            mine.execute_prepared(prepared)

    def test_closed_session_raises(self, db):
        session = repro.connect(db)
        prepared = session.prepare("range of t is T retrieve (t.A)")
        session.close()
        with pytest.raises(SessionClosedError):
            session.execute_prepared(prepared)
