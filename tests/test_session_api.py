"""The Session API: prepared statements, plan caching, transactions.

Pins the tentpole invariants of the unified client surface:

* ``repro.connect`` sessions run every statement through the cost-based
  planner;
* prepared plans are cached by normalized AST and re-used across calls
  (observable through ``PreparedStatement.compile_count``);
* the cache is stamped with the catalog/index/stats epoch — after
  ``create_index`` / ``drop_index`` / ``analyze`` the cached plan
  transparently re-plans and its explain output reflects the new
  physical choice;
* ``transaction()`` rollback leaves the database snapshot-equal to its
  pre-transaction state under hypothesis-generated statement groups;
* a prepared statement plans its ``$name`` template once per epoch and
  binds values per execution;
* prepared single-range conjunctive retrieves agree with the Section 5
  tuple oracle (with and without indexes).
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.constraints.referential import ForeignKeyConstraint
from repro.core.engine.dominance import DominanceIndex
from repro.core.errors import QuelSemanticError, StaleResultError, StorageError
from repro.core.tuples import XTuple
from repro.quel import run_query
from repro.stats import TableStatistics
from repro.storage import Database
from repro.storage.index import HashIndex


@pytest.fixture
def db():
    database = Database("api")
    emp = database.create_table("EMP", ["E#", "NAME", "SAL"])
    emp.insert_many([
        (1, "SMITH", 10),
        (2, "JONES", 20),
        (3, "BROWN", None),
        (4, "GREEN", 20),
    ])
    return database


@pytest.fixture
def session(db):
    return repro.connect(db)


class TestConnect:
    def test_connect_wraps_database(self, db):
        session = repro.connect(db)
        assert session.database is db

    def test_connect_creates_fresh_database(self):
        session = repro.connect(name="scratch")
        assert session.database.name == "scratch"
        assert len(session.database) == 0

    def test_connect_rejects_non_database(self):
        with pytest.raises(TypeError):
            repro.connect({"R": None})


class TestResultSet:
    def test_retrieve_result_shape(self, session):
        result = session.execute(
            'range of e is EMP retrieve (e.NAME, e.SAL) where e.SAL = 20'
        )
        assert result.columns == ("e_NAME", "e_SAL")
        assert len(result) == 2
        assert {row["e_NAME"] for row in result} == {"JONES", "GREEN"}
        assert result.rows_affected == 0
        assert result.first()["e_NAME"] == "GREEN"
        assert result.to_relation() is not None
        assert "JONES" in result.to_table()
        assert result.explain().startswith("1.")

    def test_scalar(self, session):
        value = session.execute(
            'range of e is EMP retrieve (e.NAME) where e.E# = 1'
        ).scalar()
        assert value == "SMITH"
        with pytest.raises(ValueError):
            session.execute('range of e is EMP retrieve (e.NAME)').scalar()

    def test_mutation_result_shape(self, session):
        result = session.execute('append to EMP (E# = 9)')
        assert result.rows_affected == 1
        assert result.columns == () and len(result) == 0
        assert result.to_relation() is None
        assert "1 row(s) affected" in result.to_table()


class TestPreparedStatements:
    def test_prepare_returns_cached_statement(self, session):
        first = session.prepare('range of e is EMP retrieve (e.NAME)')
        second = session.prepare('range of e is EMP retrieve (e.NAME)')
        assert first is second
        assert session.cached_statements == 1

    def test_cache_keyed_by_normalized_ast(self, session):
        spaced = session.prepare(
            'range of e is EMP  retrieve (e.NAME)  -- comment'
        )
        compact = session.prepare('range of e is EMP retrieve (e.NAME)')
        assert spaced is compact

    def test_different_literals_are_different_plans(self, session):
        one = session.prepare('range of e is EMP retrieve (e.NAME) where e.E# = 1')
        two = session.prepare('range of e is EMP retrieve (e.NAME) where e.E# = 2')
        assert one is not two

    def test_parameters_share_one_template(self, session):
        a = session.prepare('range of e is EMP retrieve (e.NAME) where e.E# = $k')
        b = session.prepare('range of e is EMP retrieve (e.NAME) where e.E# = $k')
        assert a is b
        assert a.parameters == ("k",)

    def test_compile_once_across_executions(self, session):
        prepared = session.prepare(
            'range of e is EMP retrieve (e.NAME) where e.E# = $k'
        )
        for k in (1, 2, 3, 1, 2):
            prepared.execute({"k": k})
        assert prepared.compile_count == 1

    def test_lru_eviction(self, db):
        session = repro.connect(db, cache_size=2)
        session.prepare('range of e is EMP retrieve (e.NAME) where e.E# = 1')
        session.prepare('range of e is EMP retrieve (e.NAME) where e.E# = 2')
        session.prepare('range of e is EMP retrieve (e.NAME) where e.E# = 3')
        assert session.cached_statements == 2

    def test_missing_parameter_raises(self, session):
        prepared = session.prepare(
            'range of e is EMP retrieve (e.NAME) where e.E# = $k'
        )
        with pytest.raises(QuelSemanticError):
            prepared.execute()

    def test_explain_without_params_works_on_every_path(self, session, db):
        """explain() must not require bound parameters, for single-range
        and join plans alike."""
        single = session.explain(
            'range of e is EMP retrieve (e.NAME) where e.E# = $k'
        )
        assert "scan" in single or "index" in single
        db.create_table("DEPT2", ["D#", "MGR#"])
        generic = session.explain(
            'range of d is DEPT2 range of e is EMP '
            'retrieve (d.D#) where d.MGR# = e.E# and e.SAL = $s'
        )
        assert "join" in generic or "product" in generic

    def test_executemany(self, session, db):
        total = session.executemany(
            'append to EMP (E# = $e, NAME = $n)',
            [{"e": 10, "n": "A"}, {"e": 11, "n": "B"}],
        )
        assert total == 2
        assert XTuple({"E#": 11, "NAME": "B"}) in db["EMP"].tuples()


class TestPlanCacheInvalidation:
    """The acceptance-criterion pin: DDL/index/ANALYZE changes re-plan."""

    def test_create_index_replans_and_switches_to_index(self, session, db):
        prepared = session.prepare(
            'range of e is EMP retrieve (e.NAME) where e.E# = $k'
        )
        before = {r["e_NAME"] for r in prepared.execute({"k": 2})}
        assert prepared.compile_count == 1
        assert "index" not in prepared.explain()
        assert "scan" in prepared.explain()

        db.table("EMP").create_index(["E#"], name="emp_e")
        after = {r["e_NAME"] for r in prepared.execute({"k": 2})}
        assert prepared.compile_count == 2
        assert "index select" in prepared.explain()
        assert "emp_e" in prepared.explain()
        assert before == after == {"JONES"}

    def test_drop_index_replans_back_to_scan(self, session, db):
        db.table("EMP").create_index(["E#"], name="emp_e")
        prepared = session.prepare(
            'range of e is EMP retrieve (e.NAME) where e.E# = $k'
        )
        prepared.execute({"k": 1})
        assert "emp_e" in prepared.explain()
        db.table("EMP").drop_index("emp_e")
        result = prepared.execute({"k": 1})
        assert prepared.compile_count == 2
        assert "scan" in prepared.explain()
        assert {r["e_NAME"] for r in result} == {"SMITH"}

    def test_analyze_bumps_epoch_and_replans(self, session, db):
        prepared = session.prepare('range of e is EMP retrieve (e.NAME)')
        prepared.execute()
        epoch = db.epoch
        db.analyze()
        assert db.epoch > epoch
        prepared.execute()
        assert prepared.compile_count == 2

    def test_join_plan_switches_to_index_nested_loop(self, db):
        """The invalidation also covers the generic plan path: after an
        index appears on the join key, the same prepared join probes it."""
        dept = db.create_table("DEPT", ["D#", "MGR#"])
        dept.insert_many([(1, 1), (2, 2)])
        session = repro.connect(db)
        text = (
            'range of d is DEPT range of e is EMP '
            'retrieve (d.D#, e.NAME) where d.MGR# = e.E#'
        )
        prepared = session.prepare(text)
        before = prepared.execute()
        assert "index-nested-loop" not in before.explain()
        db.table("EMP").create_index(["E#"], name="emp_e")
        after = prepared.execute()
        assert "index-nested-loop" in after.explain()
        assert after.to_relation() == before.to_relation()

    def test_epoch_monotone_across_drop_table(self, db):
        db.create_table("TMP", ["A"]).create_index(["A"])
        epoch = db.epoch
        db.drop_table("TMP")
        assert db.epoch > epoch


class TestPlanOnce:
    """A prepared statement plans its ``$name`` template once per epoch;
    each execution only binds the values and builds the operator tree."""

    @pytest.fixture
    def plans(self, monkeypatch):
        """Every logical plan built while the test runs."""
        from repro.quel.planner import Plan

        built = []
        original = Plan._build_logical_plan

        def counting(plan):
            built.append(plan)
            return original(plan)

        monkeypatch.setattr(Plan, "_build_logical_plan", counting)
        return built

    def test_prepared_retrieve_plans_once(self, session, db, plans):
        emp = db.table("EMP")
        emp.insert_many([(k, f"N{k}", k) for k in range(10, 60)])
        emp.create_index(["E#"], name="emp_e")
        prepared = session.prepare(
            'range of e is EMP retrieve (e.NAME) where e.E# = $k'
        )
        for k in range(10, 60):
            result = session.execute_prepared(prepared, {"k": k})
            assert [r["e_NAME"] for r in result] == [f"N{k}"]
        assert len(plans) == 1
        # The cached plan's explain and trace show the bound constant.
        assert "index select e.E# = 2 using index emp_e" in prepared.explain({"k": 2})
        assert session.execute_prepared(prepared, {"k": 2}).rows
        assert "index select e.E# = 2 using index emp_e" in "\n".join(
            session.recent_traces()[-1].plan
        )
        assert len(plans) == 1

    def test_prepared_replace_plans_once(self, session, db, plans):
        db.table("EMP").insert_many([(k, f"N{k}", 0) for k in range(10, 60)])
        prepared = session.prepare(
            'range of e is EMP replace e (SAL = $s) where e.E# = $k'
        )
        for k in range(10, 60):
            result = session.execute_prepared(prepared, {"k": k, "s": k + 1})
            assert result.rows_affected == 1
            assert f"Filter e.E# = {k}" in result.explain(analyze=True)
        assert len(plans) == 1
        assert XTuple({"E#": 59, "NAME": "N59", "SAL": 60}) in db["EMP"].tuples()


class TestStaleResults:
    """Satellite bugfix: an undrained retrieve whose plan probes a live
    index (index-nested-loop join) fails loudly once the probed table
    mutates, instead of silently streaming post-statement rows."""

    @pytest.fixture
    def joined(self, db):
        db.table("EMP").create_index(["E#"], name="emp_e")
        dept = db.create_table("DEPT", ["D#", "MGR#"])
        dept.insert_many([(1, 1), (2, 2)])
        session = repro.connect(db)
        text = (
            'range of d is DEPT range of e is EMP '
            'retrieve (d.D#, e.NAME) where d.MGR# = e.E#'
        )
        return db, session, text

    def test_undrained_result_raises_after_mutation(self, joined):
        db, session, text = joined
        result = session.execute(text)
        assert "index-nested-loop" in result.explain()
        db.insert("EMP", (9, "NINE", 5))
        with pytest.raises(StaleResultError):
            list(result)

    def test_undrained_result_raises_after_index_ddl(self, joined):
        db, session, text = joined
        result = session.execute(text)
        db.table("EMP").drop_index("emp_e")
        with pytest.raises(StaleResultError):
            result.rows

    def test_stale_error_latches(self, joined):
        db, session, text = joined
        result = session.execute(text)
        db.insert("EMP", (9, "NINE", 5))
        with pytest.raises(StaleResultError):
            result.rows
        # A partial prefix must never be passed off as the answer later.
        with pytest.raises(StaleResultError):
            len(result)

    def test_drained_result_survives_mutation(self, joined):
        db, session, text = joined
        result = session.execute(text)
        before = result.rows  # drains the pipeline
        db.insert("EMP", (9, "NINE", 5))
        db.table("EMP").drop_index("emp_e")
        assert result.rows == before
        assert list(result) == before

    def test_hash_join_needs_no_guard(self, db):
        # Without an index the planner builds a hash join, which
        # snapshots both inputs at execute time: late consumption still
        # sees the statement-time answer.
        dept = db.create_table("DEPT", ["D#", "MGR#"])
        dept.insert_many([(1, 1), (2, 2)])
        session = repro.connect(db)
        result = session.execute(
            'range of d is DEPT range of e is EMP '
            'retrieve (d.D#, e.NAME) where d.MGR# = e.E#'
        )
        assert "index-nested-loop" not in result.explain()
        db.insert("EMP", (9, "NINE", 5))
        assert {r["e_NAME"] for r in result.rows} == {"SMITH", "JONES"}


class TestDefaults:
    def test_run_query_defaults_to_the_planner(self, db):
        result = run_query('range of e is EMP retrieve (e.NAME)', db)
        assert result.strategy == "plan"
        assert result.plan is not None
        oracle = run_query('range of e is EMP retrieve (e.NAME)', db, strategy="tuple")
        assert result.answer == oracle.answer

    def test_database_query_returns_result_set(self, db):
        result = db.query('range of e is EMP retrieve (e.NAME) where e.SAL = 20')
        assert {r["e_NAME"] for r in result.rows} == {"JONES", "GREEN"}
        assert result.rows_affected == 0

    def test_database_query_strategy_keeps_oracle_path(self, db):
        result = db.query('range of e is EMP retrieve (e.NAME)', strategy="tuple")
        assert result.strategy == "tuple"

    def test_database_query_runs_dml(self, db):
        result = db.query('append to EMP (E# = $e)', {"e": 42})
        assert result.rows_affected == 1
        assert XTuple({"E#": 42}) in db["EMP"].tuples()

    def test_database_query_shares_one_session_cache(self, db):
        db.query('range of e is EMP retrieve (e.NAME)')
        db.query('range of e is EMP retrieve (e.NAME)')
        assert db.session().cached_statements == 1


class TestTransactions:
    def test_commit_keeps_effects(self, session, db):
        with session.transaction():
            session.execute('append to EMP (E# = 50)')
            session.execute('range of e is EMP delete e where e.E# = 1')
        assert XTuple({"E#": 50}) in db["EMP"].tuples()
        assert not any(t["E#"] == 1 for t in db["EMP"].tuples())

    def test_exception_rolls_back(self, session, db):
        before = db.snapshot()
        with pytest.raises(RuntimeError):
            with session.transaction():
                session.execute('range of e is EMP delete e')
                assert len(db["EMP"]) == 0
                raise RuntimeError("abort")
        assert db.snapshot() == before

    def test_explicit_rollback(self, session, db):
        before = db.snapshot()
        with session.transaction() as txn:
            session.execute('append to EMP (E# = 51)')
            txn.rollback()
        assert db.snapshot() == before

    def test_rollback_restores_indexes(self, session, db):
        before = db.snapshot()
        with pytest.raises(RuntimeError):
            with session.transaction():
                db.table("EMP").create_index(["E#"], name="tmp_idx")
                raise RuntimeError("abort")
        assert "tmp_idx" not in db.table("EMP").indexes
        assert db.snapshot() == before

    def test_rollback_drops_created_tables(self, session, db):
        with pytest.raises(RuntimeError):
            with session.transaction():
                session.execute('range of e is EMP retrieve into COPY (e.NAME)')
                assert "COPY" in db
                raise RuntimeError("abort")
        assert "COPY" not in db

    def test_rollback_removes_foreign_keys_added_inside(self, session, db):
        from repro.constraints.referential import ForeignKeyConstraint

        ref = db.create_table("REF", ["E#"])
        ref.insert_many([(1,), (77,)])  # 77 references nothing in EMP
        with pytest.raises(RuntimeError):
            with session.transaction():
                db.delete("REF", (77,))
                db.add_foreign_key("REF", ForeignKeyConstraint(["E#"], "EMP", ["E#"]))
                raise RuntimeError("abort")
        assert db.catalog.foreign_keys_of("REF") == []
        # The pre-transaction state (a dangling 77) is valid again.
        assert XTuple({"E#": 77}) in db["REF"].tuples()
        db.insert("REF", (99,))  # would violate the FK had it survived

    def test_drop_table_inside_transaction_fails_rollback_loudly(self, session, db):
        db.create_table("SCRATCH", ["A"])
        with pytest.raises(StorageError):
            with session.transaction():
                db.drop_table("SCRATCH")
                raise RuntimeError("abort")

    def test_rollback_of_a_table_created_and_dropped_inside(self, session, db):
        """A table the group made and dropped has nothing to undo: the
        rollback succeeds and undoes the group's other writes."""
        before = db.snapshot()
        with pytest.raises(RuntimeError):
            with session.transaction():
                session.execute('append to EMP (E# = 80)')
                session.execute('range of e is EMP retrieve into TMP (e.NAME)')
                db.catalog.rename_table("TMP", "TMP2")
                db.drop_table("TMP2")
                db.create_table("TMP", ["X"])
                raise RuntimeError("abort")
        assert "TMP" not in db and "TMP2" not in db
        assert db.snapshot() == before

    def test_drop_of_a_table_older_than_the_inner_group(self, session, db):
        """The inner group cannot recreate what it dropped; the outer
        group, which created the table, can still roll back."""
        with session.transaction() as outer:
            db.create_table("SCRATCH", ["A"])
            session.execute('append to EMP (E# = 81)')
            with pytest.raises(StorageError):
                with session.transaction():
                    db.drop_table("SCRATCH")
                    raise RuntimeError("abort")
            outer.rollback()
        assert "SCRATCH" not in db
        assert XTuple({"E#": 81}) not in db["EMP"].tuples()

    def test_interleaved_sessions_each_undo_their_own_writes(self, db):
        """Two sessions' groups on one database: the first group's
        rollback takes the second's mark down with the journal, so the
        second group's later writes still roll back."""
        first, second = repro.connect(db), repro.connect(db)
        rows_before = set(db["EMP"].tuples())
        outer = first.transaction().begin()
        for e in range(100, 105):
            first.execute('append to EMP (E# = $e)', {"e": e})
        inner = second.transaction().begin()
        outer.rollback()
        second.execute('append to EMP (E# = 200)')
        second.execute('append to EMP (E# = 201)')
        inner.rollback()
        assert set(db["EMP"].tuples()) == rows_before
        assert db.catalog._journal is None

    def test_in_transaction_flag(self, session):
        assert not session.in_transaction
        with session.transaction():
            assert session.in_transaction
        assert not session.in_transaction

    def test_nested_transactions(self, session, db):
        with session.transaction():
            session.execute('append to EMP (E# = 60)')
            with pytest.raises(RuntimeError):
                with session.transaction():
                    session.execute('append to EMP (E# = 61)')
                    raise RuntimeError("inner")
            # Inner rolled back, outer effect survives and commits.
            assert XTuple({"E#": 60}) in db["EMP"].tuples()
            assert XTuple({"E#": 61}) not in db["EMP"].tuples()
        assert XTuple({"E#": 60}) in db["EMP"].tuples()

    def test_transactions_copy_nothing(self, session, db, monkeypatch):
        """Begin, commit and rollback go through the undo journal alone."""

        def refuse(*args, **kwargs):
            raise AssertionError("a transaction copied or restored the database")

        monkeypatch.setattr(Database, "snapshot", refuse)
        monkeypatch.setattr(Database, "restore", refuse)
        with session.transaction():
            session.execute('append to EMP (E# = 70)')
        with pytest.raises(RuntimeError):
            with session.transaction():
                session.execute('append to EMP (E# = 71)')
                db.table("EMP").create_index(["NAME"])
                raise RuntimeError("abort")
        with session.transaction() as txn:
            session.execute('range of e is EMP delete e where e.E# = 1')
            txn.rollback()
        assert {row["E#"] for row in db["EMP"].tuples()} == {1, 2, 3, 4, 70}
        assert not db.table("EMP").indexes


# ---------------------------------------------------------------------------
# Hypothesis: rollback is snapshot-exact under arbitrary statement groups
# ---------------------------------------------------------------------------

_VALUES = st.one_of(st.none(), st.integers(0, 3))

_STATEMENTS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(0, 3), _VALUES),
        st.tuples(st.just("delete"), st.integers(0, 3), st.none()),
        st.tuples(st.just("replace"), st.integers(0, 3), st.integers(0, 3)),
        st.tuples(st.just("into"), st.integers(0, 3), st.none()),
        st.tuples(st.just("drop"), st.integers(0, 3), st.none()),
        st.tuples(st.just("index"), st.integers(0, 3), st.none()),
        st.tuples(st.just("analyze"), st.integers(0, 3), st.none()),
        st.tuples(st.just("fk"), st.integers(0, 3), st.none()),
        st.tuples(st.just("rename"), st.integers(0, 3), st.none()),
        st.tuples(st.just("nested"), st.integers(0, 3), _VALUES),
    ),
    min_size=1,
    max_size=6,
)


def _parent_name(database):
    """``P``, or ``Q`` while a rename inside the group has it renamed."""
    return "P" if "P" in database else "Q"


def _apply(session, op, key, value):
    database = session.database
    if op == "append":
        if value is None:
            session.execute('append to R (A = $a)', {"a": key})
        else:
            session.execute('append to R (A = $a, B = $b)', {"a": key, "b": value})
    elif op == "delete":
        session.execute('range of r is R delete r where r.A = $k', {"k": key})
    elif op == "replace":
        session.execute(
            'range of r is R replace r (B = $v) where r.A = $k',
            {"v": value, "k": key},
        )
    elif op == "into":
        name = f"OUT_{key}"
        if name not in session.database:
            session.execute(
                f'range of r is R retrieve into {name} (r.A)'
            )
    elif op == "drop":
        # Only OUT_k tables, which the group itself created.
        name = f"OUT_{key}"
        if name in database:
            database.drop_table(name)
    elif op == "index":
        # Toggles the pre-existing r_a, or an r_b on B.
        table = database.table("R")
        name, attributes = (("r_a", ["A"]), ("r_b", ["B"]))[key % 2]
        if name in table.indexes:
            table.drop_index(name if key < 2 else attributes)
        else:
            table.create_index(attributes, name=name)
    elif op == "analyze":
        if key % 2:
            database.analyze()
        else:
            database.table("R").analyze()
    elif op == "fk":
        # Every R.A is 0..3 or ni, and P holds 0..3: always satisfied.
        database.add_foreign_key(
            "R", ForeignKeyConstraint(["A"], _parent_name(database), ["A"])
        )
    elif op == "rename":
        old = _parent_name(database)
        database.catalog.rename_table(old, "Q" if old == "P" else "P")
    elif op == "nested":
        entry = database.snapshot()
        with pytest.raises(_InnerAbort):
            with session.transaction():
                _apply(session, "append", key, value)
                _apply(session, "index", key, None)
                _apply(session, "analyze", key, None)
                _apply(session, "fk", key, None)
                raise _InnerAbort()
        assert database.snapshot() == entry
        assert session.in_transaction


def _assert_structures_match_rebuild(table) -> None:
    rows = set(table.rows())
    assert table.dominance._partitions == DominanceIndex(rows)._partitions
    for index in table.indexes.values():
        rebuilt = HashIndex(index.attributes)
        rebuilt.rebuild(rows)
        assert index._buckets == rebuilt._buckets
        assert index._unindexed == rebuilt._unindexed
    assert table.statistics == TableStatistics(rows)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(_VALUES, _VALUES), max_size=6),
    _STATEMENTS,
)
def test_transaction_rollback_is_snapshot_exact(rows, statements):
    database = Database("txn")
    table = database.create_table("R", ["A", "B"])
    table.insert_many([
        XTuple({a: v for a, v in zip(("A", "B"), values) if v is not None})
        for values in rows
    ])
    table.create_index(["A"], name="r_a")
    database.create_table("P", ["A"]).insert_many([(a,) for a in range(4)])
    database.analyze()
    database.insert("P", (9,))  # churn since the ANALYZE
    session = repro.connect(database)
    before = database.snapshot()
    tables_before = set(database.catalog.table_names())
    foreign_keys_before = database.catalog.foreign_key_entries()
    epoch_before = database.epoch
    with pytest.raises(_Abort):
        with session.transaction():
            for op, key, value in statements:
                _apply(session, op, key, value)
            raise _Abort()
    assert not session.in_transaction
    assert set(database.catalog.table_names()) == tables_before
    assert database.snapshot() == before
    assert database.catalog.foreign_key_entries() == foreign_keys_before
    for name in tables_before:
        _assert_structures_match_rebuild(database.table(name))
    assert database.epoch >= epoch_before


class _Abort(Exception):
    pass


class _InnerAbort(Exception):
    pass


# ---------------------------------------------------------------------------
# Hypothesis: prepared single-range retrieves ≡ the Section 5 tuple oracle
# ---------------------------------------------------------------------------

_OPS = ("=", "!=", "<", "<=", ">", ">=")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(_VALUES, _VALUES), max_size=8),
    st.lists(
        st.tuples(st.sampled_from(("A", "B")), st.sampled_from(_OPS), st.integers(0, 3)),
        max_size=3,
    ),
    st.booleans(),
)
def test_fast_path_agrees_with_tuple_oracle(rows, conjuncts, indexed):
    database = Database("fast")
    table = database.create_table("R", ["A", "B"])
    table.insert_many([
        XTuple({a: v for a, v in zip(("A", "B"), values) if v is not None})
        for values in rows
    ])
    if indexed:
        table.create_index(["A"])
    clauses = " and ".join(f"r.{a} {op} {k}" for a, op, k in conjuncts)
    text = 'range of r is R retrieve (r.A, r.B)'
    if clauses:
        text += f' where {clauses}'
    session = repro.connect(database)
    fast = session.execute(text).to_relation()
    oracle = run_query(text, database, strategy="tuple").answer
    assert fast == oracle, text
