"""The six e2e workloads: seeded data, seeded op lists, expected answers.

Everything here is a function of ``--seed`` alone.  ``tables()`` yields
plain row dicts (a null is an absent key), ``build()`` loads them into a
``repro`` database (the only place this module touches the system under
test), and ``schedule()`` yields the op lists with the answer the
:mod:`reference` model expects for every op.  The constants of each
workload — sizes, null rate, key skew, selectivity, cache fit — are class
attributes and are printed with every result (``describe()``).

Op counts scale with ``--seconds``: ``rate`` is the number of ops that
take one second on the builder's machine, so the measured part lasts
about ``--seconds`` there.  The op list itself is fixed by (seed,
seconds), never by how fast the program runs, which is what makes the
WAL byte / record / fsync counts of the single-writer workloads repeat
exactly.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from reference import Reference, digest

#: Share of payload values that are the no-information null.
NULL_RATE = 0.25
#: Measured segments per run (rates are medians over them).
SEGMENTS = 5
#: Rows per cursor page over HTTP; rows taken by a first-page op in-process.
PAGE_ROWS = 256
FIRST_ROWS = 10
#: Op kinds that return rows (``first`` only the first of them).
READ_KINDS = ("point", "range", "scan", "drain", "first")
#: How durable workloads open their database (``Database.open``'s defaults).
SYNC_POLICY = {"sync": "commit", "group_commit": True}


class Op(NamedTuple):
    kind: str
    params: Dict[str, Any]
    #: What the reference model says the op returns: a frozenset of
    #: canonical rows for reads, rows affected for writes (a list of them
    #: for a transaction's statements).
    expect: Any


def _maybe(rng: random.Random, value: Any) -> Any:
    return None if rng.random() < NULL_RATE else value


def _row(**values: Any) -> Dict[str, Any]:
    return {k: v for k, v in values.items() if v is not None}


C_DOMAIN = 1_000_000


def _big_rows(rng: random.Random, count: int) -> List[Dict[str, Any]]:
    """``BIG(A, B, C)``: ``A`` unique, ``C`` uniform with 25 % nulls."""
    return [
        _row(A=a, B=rng.randrange(1000), C=_maybe(rng, rng.randrange(C_DOMAIN)))
        for a in range(count)
    ]


def _balanced(rng: random.Random, count: int, values: int) -> List[int]:
    """*count* draws covering ``range(values)`` evenly, in seeded order.

    Join fan-outs, op mixes and hot parameters are dealt like this, not
    drawn independently: what a run costs then depends on the seed only
    through the order of things, and runs with different seeds agree."""
    order = list(range(values))
    rng.shuffle(order)          # which values a short deck leaves out
    deck = [order[i % values] for i in range(count)]
    rng.shuffle(deck)
    return deck


class Workload:
    name = ""
    why = ""
    #: ``"http"`` — ServerClient callers against the server child;
    #: ``"session"`` — an in-process Session.
    transport = "session"
    clients = 1
    durable = False
    #: ``{table: key attribute}`` and ``(owner, attribute, referenced)``.
    keys: Dict[str, str] = {}
    foreign_keys: Tuple[Tuple[str, str, str], ...] = ()
    statements: Dict[str, str] = {}
    #: Op kinds whose latencies form ``latency_p50_ms`` / ``latency_p95_ms``
    #: (``None``: every op).
    headline: Optional[Tuple[str, ...]] = None
    #: Whether HTTP clients send statement text (parsed per request)
    #: instead of executing prepared handles.
    sends_text = False
    #: Ops per second of ``--seconds`` on the builder's machine.
    rate = 1.0
    sizes: Dict[str, Dict[str, int]] = {}

    def size(self, scale: str) -> Dict[str, int]:
        """``full``, ``smoke``, or ``oracle`` — sizes small enough for the
        tuple-at-a-time evaluator (smoke sizes unless stated)."""
        return self.sizes.get(scale, self.sizes["smoke"])

    def rng(self, seed: int, stream: str) -> random.Random:
        return random.Random(f"e2e/{self.name}/{seed}/{stream}")

    def segment_ops(self, seconds: float, scale: str, multiple: int = 1) -> int:
        """Ops per measured segment (all clients together)."""
        if scale == "full":
            count = int(self.rate * seconds / SEGMENTS)
        else:
            count = self.size(scale)["segment_ops"]
        return max(multiple, count - count % multiple)

    def reference(self, tables) -> Reference:
        return Reference(tables, self.keys, self.foreign_keys)

    def open(self, seed: int, scale: str, wal_dir: Optional[str] = None):
        """The workload's database, loaded and ANALYZEd — durable at
        *wal_dir* (checkpointed, so the load leaves the log) or in memory."""
        from repro.storage.database import Database

        database = Database.open(wal_dir, **SYNC_POLICY) if wal_dir else Database("e2e")
        self.build(database, self.tables(seed, scale))
        if wal_dir:
            database.checkpoint()
        return database

    def describe(self, scale: str) -> Dict[str, Any]:
        return {"null_rate": NULL_RATE, "clients": self.clients,
                "transport": self.transport, "durable": self.durable,
                **self.size(scale)}

    # Subclasses provide: tables(seed, scale), build(database, tables),
    # schedule(seed, seconds, scale, segments, reference).


def database_state(database) -> Dict[str, Dict[str, Any]]:
    """Every table's row count and digest, index definitions and
    statistics row count, in JSON-native form — what the end-state and
    recovery checks compare."""
    state = {}
    for name in database.catalog.table_names():
        table = database.table(name)
        state[name] = dict(
            digest(row.items() for row in table.rows()),
            indexes={index: list(attrs) for index, attrs in table.index_specs().items()},
            stats_rows=table.statistics.row_count,
        )
    return state


def state_checks(state: Dict[str, Dict[str, Any]], reference: Reference) -> Dict[str, bool]:
    """Per model table: does the database's state show the model's rows?"""
    return {
        name: {k: state[name][k] for k in ("rows", "sha256")} == digest(reference.rows(name))
        for name in reference.tables
    }


def _load(database, name, attributes, rows, index=None, constraints=()):
    table = database.create_table(name, attributes, constraints)
    database.insert_many(name, rows)
    if index:
        table.create_index(index)
    return table


def _split(ops: Sequence[Op], clients: int) -> List[List[Op]]:
    return [list(ops[c::clients]) for c in range(clients)]


class _BigOnly(Workload):
    """Workloads over the single table ``BIG`` with a hash index on ``A``."""

    keys = {"BIG": "A"}

    def tables(self, seed, scale):
        return {"BIG": _big_rows(self.rng(seed, "data"), self.size(scale)["rows"])}

    def build(self, database, tables):
        _load(database, "BIG", ["A", "B", "C"], tables["BIG"], index=["A"])
        database.analyze()


class PointReadHttp(_BigOnly):
    name = "point_read_http"
    why = ("server-owned: engine work is a few % of a prepared point read, "
           "keys uniform over 50k so the 128-entry result cache misses")
    transport = "http"
    clients = 2
    statements = {"point": "range of t is BIG retrieve (t.C) where t.A = $a"}
    rate = 1600.0
    sizes = {"full": {"rows": 50_000}, "smoke": {"rows": 2_000, "segment_ops": 80}}
    target = (("t_C", "C"),)

    def schedule(self, seed, seconds, scale, segments, reference):
        rng = self.rng(seed, "ops")
        rows = self.size(scale)["rows"]
        per_segment = self.segment_ops(seconds, scale, self.clients)

        def segment(count):
            ops = []
            for _ in range(count):
                a = rng.randrange(rows)
                ops.append(Op("point", {"a": a}, reference.point("BIG", a, self.target)))
            return _split(ops, self.clients)

        return [segment(max(self.clients, per_segment // 4))] + [
            segment(per_segment) for _ in range(segments)
        ]


class ScanPageHttp(_BigOnly):
    name = "scan_page_http"
    why = ("same server layer, few large responses: a 5 % histogram-estimated "
           "range scan paged 256 rows at a time; codec, scan/filter/project "
           "and lazy paging dominate; gives first_page_ms over HTTP")
    transport = "http"
    clients = 1
    statements = {"scan": "range of t is BIG retrieve (t.A, t.C) where t.C < $limit"}
    rate = 30.0
    sizes = {"full": {"rows": 20_000}, "smoke": {"rows": 2_000, "segment_ops": 4}}
    target = (("t_A", "A"), ("t_C", "C"))
    #: ``$limit`` is one of 1 000 values keeping 4.5–5.5 % of all rows.
    limits = [60_000 + 13 * k for k in range(1000)]

    def schedule(self, seed, seconds, scale, segments, reference):
        rng = self.rng(seed, "ops")
        per_segment = self.segment_ops(seconds, scale)

        def segment(count):
            ops = []
            for _ in range(count):
                limit = rng.choice(self.limits)
                ops.append(Op("scan", {"limit": limit},
                              reference.select("BIG", "C", "<", limit, self.target)))
            return [ops]

        return [segment(max(2, per_segment // 8))] + [
            segment(per_segment) for _ in range(segments)
        ]


class JoinDrain(Workload):
    name = "join_drain"
    why = ("engine-owned: a selective 3-way join with pushed filters and a "
           "fused residual, distinct parameters so the result cache misses; "
           "planner, operators and the dominance engine do the work, server none")
    keys = {"R": "RID", "S": "SID", "T": "TID"}
    join = (
        "range of r is R range of s is S range of t is T "
        "retrieve (r.RID, s.SID, t.TID, t.W) "
        "where r.A = $a and t.D < $limit and r.B = s.B and s.C = t.C and r.P <= s.Q"
    )
    #: ``drain`` takes ``.rows``; ``first`` iterates the first 10 rows.
    statements = {"drain": join, "first": join}
    headline = ("drain",)
    rate = 64.0
    sizes = {"full": {"rows": 4_000}, "smoke": {"rows": 400, "segment_ops": 8},
             "oracle": {"rows": 40, "segment_ops": 8}}
    #: 70 ``$limit`` values × rows/40 values of ``$a``: 7 000 pairs at full size.
    limits = list(range(400, 610, 3))

    def tables(self, seed, scale):
        # 40 rows per value of A, 4 per value of every join attribute:
        # each link fans out by exactly 4, so answer sizes differ only
        # through the null payloads and the two filters.
        rng = self.rng(seed, "data")
        n = self.size(scale)["rows"]
        column = lambda values: _balanced(rng, n, values)  # noqa: E731
        return {
            "R": [_row(RID=i, A=a, B=b, P=_maybe(rng, rng.randrange(100)))
                  for i, (a, b) in enumerate(zip(column(n // 40), column(n // 4)))],
            "S": [_row(SID=i, B=b, C=c, Q=_maybe(rng, rng.randrange(100)))
                  for i, (b, c) in enumerate(zip(column(n // 4), column(n // 4)))],
            "T": [_row(TID=i, C=c, D=rng.randrange(1000), W=_maybe(rng, rng.randrange(100)))
                  for i, c in enumerate(column(n // 4))],
        }

    def build(self, database, tables):
        _load(database, "R", ["RID", "A", "B", "P"], tables["R"])
        _load(database, "S", ["SID", "B", "C", "Q"], tables["S"])
        _load(database, "T", ["TID", "C", "D", "W"], tables["T"])
        database.analyze()

    def schedule(self, seed, seconds, scale, segments, reference):
        rng = self.rng(seed, "ops")
        n = self.size(scale)["rows"]
        per_segment = self.segment_ops(seconds, scale, 2)
        warm = 24
        total = warm + per_segment * segments
        # Distinct (a, limit) pairs, every value of either used equally often.
        pairs = dict.fromkeys(zip(_balanced(rng, 2 * total, n // 40),
                                  _balanced(rng, 2 * total, len(self.limits))))
        picked = iter(pairs)

        def segment(count, kinds):
            ops = []
            for i in range(count):
                a, limit = next(picked)
                limit = self.limits[limit]
                ops.append(Op(kinds[i % len(kinds)], {"a": a, "limit": limit},
                              reference.join3(a, limit)))
            return [ops]

        # The plan changes under adaptive feedback during the first few
        # drains; run.py reports how many plan shapes the last warm-up
        # drains still showed (``warm_plan_shapes``, 1 when it held still).
        return [segment(warm, ("drain",))] + [
            segment(per_segment, ("drain", "first")) for _ in range(segments)
        ]


class IngestDurable(Workload):
    name = "ingest_durable"
    why = ("writes beside reads: 1-row keyed appends, bulk append-where, range "
           "deletes and checkpoints on a sync=commit WAL, then crash-copy "
           "recovery; table bulk paths, constraint checks and the WAL dominate")
    durable = True
    keys = {"PARENT": "P", "CHILD": "K", "STAGE": "K"}
    foreign_keys = (("CHILD", "P", "PARENT"),)
    statements = {
        "append": "append to CHILD (K = $k, P = $p, X = $x, Y = $y)",
        "append_where": ("range of s is STAGE append to CHILD "
                         "(K = s.K, P = s.P, X = s.X) where s.G = $g"),
        "delete": "range of c is CHILD delete c where c.K >= $lo and c.K < $hi",
    }
    headline = ("append",)
    #: 1-row appends per second of ``--seconds``; the bulk statements and
    #: the checkpoint ride along once per segment.
    rate = 170.0
    sizes = {
        "full": {"preload": 7_000, "parents": 100, "slice_rows": 200,
                 "delete_rows": 500},
        "smoke": {"preload": 700, "parents": 20, "slice_rows": 20,
                  "delete_rows": 50, "segment_ops": 20},
    }
    #: Room for the warm-up and the traced run's extra segment.
    max_segments = SEGMENTS + 1
    bulk_per_segment = 4
    stage_key_base = 10_000_000
    append_key_base = 1_000_000

    def tables(self, seed, scale):
        rng = self.rng(seed, "data")
        size = self.size(scale)
        parents = size["parents"]
        slices = self.bulk_per_segment * self.max_segments + 1
        return {
            "PARENT": [_row(P=p, NAME=f"parent-{p}") for p in range(parents)],
            "CHILD": [_row(K=k, P=rng.randrange(parents),
                           X=_maybe(rng, rng.randrange(1000)),
                           Y=_maybe(rng, rng.randrange(1000)))
                      for k in range(size["preload"])],
            "STAGE": [_row(K=self.stage_key_base + i, P=rng.randrange(parents),
                           X=_maybe(rng, rng.randrange(1000)),
                           G=i // size["slice_rows"])
                      for i in range(slices * size["slice_rows"])],
        }

    def build(self, database, tables):
        from repro.constraints.keys import KeyConstraint
        from repro.constraints.referential import ForeignKeyConstraint

        _load(database, "PARENT", ["P", "NAME"], tables["PARENT"],
              constraints=[KeyConstraint(["P"])])
        database.create_table("CHILD", ["K", "P", "X", "Y"], [KeyConstraint(["K"])])
        database.add_foreign_key("CHILD", ForeignKeyConstraint(["P"], "PARENT", ["P"]))
        database.insert_many("CHILD", tables["CHILD"])
        database.table("CHILD").create_index(["K"])
        _load(database, "STAGE", ["K", "P", "X", "G"], tables["STAGE"])
        database.analyze()

    def schedule(self, seed, seconds, scale, segments, reference):
        rng = self.rng(seed, "ops")
        size = self.size(scale)
        appends = self.segment_ops(seconds, scale, 4)
        keys = itertools.count(self.append_key_base)
        slices = itertools.count(0)
        doomed = itertools.count(0, size["delete_rows"])

        def append():
            params = {"k": next(keys), "p": rng.randrange(size["parents"]),
                      "x": _maybe(rng, rng.randrange(1000)),
                      "y": _maybe(rng, rng.randrange(1000))}
            row = {"K": params["k"], "P": params["p"], "X": params["x"], "Y": params["y"]}
            return Op("append", params, reference.append("CHILD", [row]))

        def bulk():
            g = next(slices)
            return Op("append_where", {"g": g}, reference.append_where(
                "STAGE", "G", g, "CHILD", (("K", "K"), ("P", "P"), ("X", "X"))))

        def delete():
            lo = next(doomed)
            hi = lo + size["delete_rows"]
            return Op("delete", {"lo": lo, "hi": hi},
                      reference.delete_range("CHILD", "K", lo, hi))

        def segment(count, measured=True):
            # Quarter the appends around the bulk statements; the
            # checkpoint sits mid-segment so the log the crash copy
            # replays is never empty.
            quarter = count // 4
            ops: List[Op] = []
            for part in range(4):
                ops.extend(append() for _ in range(quarter))
                if measured:
                    ops.append(bulk())
                    if part in (0, 2):
                        ops.append(delete())
                    if part == 1:
                        ops.append(Op("checkpoint", {}, True))
            return [ops]

        warm = [segment(8, measured=False)[0] + [bulk()]]
        return [warm] + [segment(appends) for _ in range(segments)]


class MixedHttp(Workload):
    name = "mixed_http"
    why = ("reads and writes contend: Zipf point reads, hot range reads that "
           "hit the result cache until a write bumps the table, appends, "
           "replaces and transactions through the gate on a WAL-backed BIG")
    transport = "http"
    clients = 2
    durable = True
    keys = {"BIG": "A", "HOT": "K"}
    statements = {
        "point": "range of t is BIG retrieve (t.C) where t.A = $a",
        "range": "range of h is HOT retrieve (h.K, h.V) where h.V < $limit",
        "append": "append to BIG (A = $a, B = $b, C = $c)",
        "replace": "range of t is BIG replace t (C = $c) where t.A = $a",
        "txn": "append to HOT (K = $k, V = $v)",
    }
    sends_text = True
    rate = 640.0
    sizes = {"full": {"rows": 50_000, "hot_rows": 2_000},
             "smoke": {"rows": 2_000, "hot_rows": 400, "segment_ops": 100}}
    #: Of every 100 ops: 60 point reads, 25 range reads, 7 appends, 7
    #: replaces, 1 transaction of three appends.  The slow classes
    #: (replace, transaction) are 8 % so that p95 falls inside the
    #: replaces, not on the edge between two classes.
    mix = ("point",) * 60 + ("range",) * 25 + ("append",) * 7 + ("replace",) * 7 + ("txn",)
    zipf_s = 1.1
    #: 16 hot ``$limit`` values keep 2–9.5 % of HOT; with the point reads
    #: between two uses of one value they fit the 128-entry result cache.
    limits = list(range(20, 100, 5))
    hot_domain = 1000
    point_target = (("t_C", "C"),)
    range_target = (("h_K", "K"), ("h_V", "V"))

    def tables(self, seed, scale):
        rng = self.rng(seed, "data")
        size = self.size(scale)
        return {
            "BIG": _big_rows(rng, size["rows"]),
            "HOT": [_row(K=k, V=v) for k, v in enumerate(
                _balanced(rng, size["hot_rows"], self.hot_domain))],
        }

    def build(self, database, tables):
        _load(database, "BIG", ["A", "B", "C"], tables["BIG"], index=["A"])
        _load(database, "HOT", ["K", "V"], tables["HOT"])
        database.analyze()

    def schedule(self, seed, seconds, scale, segments, reference):
        size = self.size(scale)
        per_client = self.segment_ops(seconds, scale, self.clients) // self.clients
        # Each client owns the keys congruent to its number: its reads see
        # its own writes in its own order, whatever the other client does,
        # so every answer is determined although the interleaving is not.
        # Transaction rows carry V >= hot_domain: they bump HOT's version
        # (invalidating cached range answers) without entering any range.
        streams = []
        for client in range(self.clients):
            rng = self.rng(seed, f"ops/{client}")
            own = [a for a in range(size["rows"]) if a % self.clients == client]
            rng.shuffle(own)
            weights = list(itertools.accumulate(
                1.0 / (rank + 1) ** self.zipf_s for rank in range(len(own))))
            fresh = itertools.count((client + 1) * 10_000_000)

            def ops(count, rng=rng, own=own, weights=weights, fresh=fresh):
                out = []
                hot_keys = rng.choices(own, cum_weights=weights, k=count)
                kinds = _balanced(rng, count, len(self.mix))
                limits = iter(_balanced(rng, count, len(self.limits)))
                for i in range(count):
                    kind = self.mix[kinds[i]]
                    if kind == "point":
                        a = hot_keys[i]
                        out.append(Op(kind, {"a": a},
                                      reference.point("BIG", a, self.point_target)))
                    elif kind == "range":
                        limit = self.limits[next(limits)]
                        out.append(Op(kind, {"limit": limit}, reference.select(
                            "HOT", "V", "<", limit, self.range_target)))
                    elif kind == "append":
                        row = {"A": next(fresh), "B": rng.randrange(1000),
                               "C": _maybe(rng, rng.randrange(C_DOMAIN))}
                        out.append(Op(kind, {"a": row["A"], "b": row["B"], "c": row["C"]},
                                      reference.append("BIG", [row])))
                    elif kind == "replace":
                        a = rng.choice(own)
                        c = _maybe(rng, rng.randrange(C_DOMAIN))
                        out.append(Op(kind, {"a": a, "c": c},
                                      reference.replace("BIG", a, {"C": c})))
                    else:
                        rows = [{"K": next(fresh), "V": self.hot_domain + rng.randrange(1000)}
                                for _ in range(3)]
                        out.append(Op(kind, {"rows": [{"k": r["K"], "v": r["V"]} for r in rows]},
                                      [reference.append("HOT", [r]) for r in rows]))
                return out

            streams.append(ops)

        def segment(count):
            return [ops(count) for ops in streams]

        return [segment(max(10, per_client // 4))] + [
            segment(per_client) for _ in range(segments)
        ]


class TxnSmall(_BigOnly):
    name = "txn_small"
    why = ("transaction-owned: two 1-row appends inside session.transaction() on "
           "50k rows, every 10th rolled back; p50 is the snapshot (commit) path, "
           "p95 the restore (rollback) path; reads and joins bypass it")
    append = "append to BIG (A = $a, B = $b, C = $c)"
    #: Both kinds run two appends in a transaction; ``rollback`` then raises.
    statements = {"commit": append, "rollback": append}
    rate = 45.0
    sizes = {"full": {"rows": 50_000}, "smoke": {"rows": 2_000, "segment_ops": 10}}
    rollback_every = 10

    def schedule(self, seed, seconds, scale, segments, reference):
        rng = self.rng(seed, "ops")
        per_segment = self.segment_ops(seconds, scale, self.rollback_every)
        fresh = itertools.count(10_000_000)

        def segment(count):
            ops = []
            for i in range(count):
                rows = [{"a": next(fresh), "b": rng.randrange(1000),
                         "c": _maybe(rng, rng.randrange(C_DOMAIN))} for _ in range(2)]
                fails = i % self.rollback_every == self.rollback_every - 1
                if not fails:
                    reference.append("BIG", [{"A": r["a"], "B": r["b"], "C": r["c"]}
                                             for r in rows])
                # The answer of either kind is BIG's row count after the
                # op: a rollback must leave the count it found.
                ops.append(Op("rollback" if fails else "commit", {"rows": rows},
                              len(reference.tables["BIG"])))
            return [ops]

        return [segment(self.rollback_every)] + [
            segment(per_segment) for _ in range(segments)
        ]


WORKLOADS = {w.name: w for w in (
    PointReadHttp(), ScanPageHttp(), JoinDrain(), IngestDurable(), MixedHttp(), TxnSmall(),
)}
