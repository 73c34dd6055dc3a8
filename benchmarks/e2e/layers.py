"""Per-layer metrics of a traced run (``run.py --trace 1``).

Layers are measured **from outside**: nothing under ``src/`` carries a
span of ours.  Three sources, all public surface of the system:

* **Counters** — ``repro_*`` series read before and after the measured
  part, from ``GET /metrics`` on the server child or from the database's
  own registry, both parsed with ``repro.obs.parse_prometheus``.
* **Client spans** — one per measured op in the traced segments
  (``client.op.<kind>``); the split of client latencies by op class.
* **Staged replay** — a seeded sample of the workload's own ops is
  performed again on a *twin* database in this process by calling each
  layer's public function in order, one span per call (name, start, end,
  parent, op).  Unit costs of layer functions the op does not reach
  (``Database.snapshot`` under a join, say) are taken on the same twin
  with the workload's own rows, so every number is a property of this
  workload's data.  A metric with no meaning on a workload (an HTTP
  round trip under an in-process workload) is reported as 0.

The twin is the measured database itself for a non-durable in-process
workload, and otherwise a fresh in-memory build of the same seed (the
server child's database lives in another process; a WAL-backed one would
add an fsync to every replayed write, which the scratch-log probes
measure on their own).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import random
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.api.compiled import compile_statement
from repro.api.session import Session
from repro.core.engine.dominance import bulk_reduce
from repro.core.engine.joins import equi_join_rows
from repro.obs import parse_prometheus
from repro.quel.analyzer import analyze
from repro.quel.ast_nodes import RetrieveStatement, normalize_statement
from repro.quel.parser import parse_statement
from repro.quel.planner import Plan
from repro.server import ServerClient
from repro.server.codec import decode_params, rows_to_json
from repro.server.http import encode_response, read_request
from repro.storage.wal import WriteAheadLog, encode_frame

from drivers import SessionDriver
from workloads import READ_KINDS

#: Ops replayed stage by stage per workload, and repetitions of a unit probe.
SAMPLE_OPS = 60
PROBE_REPEATS = 40
OPERATORS = ("TableScan", "IndexProbe", "Filter", "Rename", "Project",
             "HashJoin", "IndexNLJoin", "Reduce")


class Spans:
    """Spans kept in memory and written out when the run ends."""

    def __init__(self):
        self.records: List[tuple] = []
        self._ids = itertools.count(1)

    def reserve(self) -> int:
        """An id for a span recorded later (a parent, once it has ended)."""
        return next(self._ids)

    def add(self, name: str, start: float, end: float, parent: Optional[int] = None,
            op: Optional[int] = None, span: Optional[int] = None) -> int:
        span = self.reserve() if span is None else span
        self.records.append((span, parent, name, start, end, op))
        return span

    def timed(self, name: str, call: Callable[[], Any],
              parent: Optional[int] = None, op: Optional[int] = None):
        """Run *call* under a span; returns ``(result, seconds)``."""
        start = time.perf_counter()
        result = call()
        end = time.perf_counter()
        self.add(name, start, end, parent, op)
        return result, end - start

    def write(self, path: str) -> None:
        keys = ("id", "parent", "name", "start", "end", "op")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(keys, record)) for record in self.records], handle)


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------

def counters(env) -> Dict[Any, float]:
    """Every ``repro_*`` series of the database host, as parsed text."""
    if env.child is not None:
        with ServerClient("127.0.0.1", env.child.port) as client:
            return parse_prometheus(client.metrics())
    return parse_prometheus(env.database.metrics.render_prometheus())


def series(snapshot: Dict[Any, float], name: str, **labels: str) -> float:
    return sum(value for (family, pairs), value in snapshot.items()
               if family == name and all(pair in pairs for pair in labels.items()))


def _median_us(call: Callable[[], Any], repeats: int = PROBE_REPEATS) -> float:
    """Median wall time of *call* in µs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def _p50_ms(values: Sequence[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


# ---------------------------------------------------------------------------
# Staged replay
# ---------------------------------------------------------------------------

class Replay:
    """Performs sampled ops layer by layer on the twin and keeps, per
    stage, the seconds each sampled op spent there."""

    def __init__(self, workload, database, spans: Spans):
        self.workload = workload
        self.database = database
        self.spans = spans
        self.session = Session(database)
        self.driver = SessionDriver(workload, self.session)
        #: ``{stage: [(op kind, seconds), ...]}`` over the sampled ops.
        self.stages: Dict[str, List[tuple]] = {}
        self.relations: List[Any] = []      # canonical answer per replayed read
        self.streamed: List[list] = []      # pre-minimal pipeline output per read
        self.requests: List[bytes] = []
        self.bodies: List[bytes] = []
        self.blocks: List[int] = []

    def op(self, number: int, op) -> None:
        """Replay one op; *number* ties its spans together."""
        if op.kind == "checkpoint":
            return
        spans = self.spans
        root = spans.reserve()
        started = time.perf_counter()

        def stage(name: str, call: Callable[[], Any]):
            result, seconds = spans.timed(name, call, root, number)
            self.stages.setdefault(name, []).append((op.kind, seconds))
            return result

        text = self.workload.statements[op.kind]
        wire = op.params["rows"][0] if "rows" in op.params else op.params
        body = json.dumps({"params": wire}).encode("utf-8")
        request = (b"POST /prepared/ps-c1-1/execute HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                   b"Accept-Encoding: identity\r\nContent-Length: %d\r\n"
                   b"Content-Type: application/json\r\n\r\n" % len(body)) + body
        self.requests.append(request)
        params = stage("server.codec.decode_params",
                       lambda: decode_params(json.loads(body)["params"]))
        statement = stage("quel.parser.parse", lambda: parse_statement(text))
        stage("quel.parser.normalize", lambda: normalize_statement(statement))
        if isinstance(statement, RetrieveStatement):
            analyzed = stage("quel.analyzer.analyze", lambda: analyze(statement, self.database))
            compiled = compile_statement(self.database, statement)
            if hasattr(compiled, "make_pipeline"):      # the prepared fast path
                pipeline = stage("quel.planner.compile", lambda: compiled.make_pipeline(params))
            else:
                plan = Plan(analyzed.bind(params), self.database)
                stage("quel.planner.logical_plan", plan.logical_plan)
                pipeline = stage("quel.planner.compile", plan.compile)
            rows = pipeline.iter_rows()
            stage("exec.pipeline.first_block", lambda: next(rows, None))
            self.streamed.append(stage("exec.pipeline.rest", lambda: list(pipeline.iter_rows())))
            relation = stage("exec.pipeline.reduce", pipeline.run)
            ordered = stage("api.results.sort", relation.representation.sorted_rows)
            columns = pipeline.columns
            self.relations.append(relation)
            self.blocks.append(sum(node.actual_blocks for node in _walk(pipeline.root)))
            payload = stage("server.codec.rows_to_json", lambda: json.dumps(
                {"columns": list(columns), "rows": rows_to_json(ordered, columns),
                 "row_count": len(ordered)}).encode("utf-8"))
            self.bodies.append(payload)
            stage("server.http.encode_response", lambda: encode_response(200, payload))
        # The same op in one call, as the in-process client makes it: what
        # the stages add up to plus the session's own bookkeeping.
        stage("api.session.execute", lambda: self.driver.run(op))
        spans.add("replay." + op.kind, started, time.perf_counter(), op=number, span=root)

    def median(self, stage: str, kinds: Optional[Sequence[str]] = None) -> float:
        """Median seconds of a stage over the sampled ops, or those of
        the given kinds (0 if it never ran)."""
        values = [seconds for kind, seconds in self.stages.get(stage, ())
                  if kinds is None or kind in kinds]
        return statistics.median(values) if values else 0.0


def _walk(node):
    yield node
    for child in node.children:
        yield from _walk(child)


# ---------------------------------------------------------------------------
# Unit probes on the twin
# ---------------------------------------------------------------------------

def unit_probes(workload, database, replay: Replay, out: Dict[str, float], scratch: str) -> None:
    """Unit costs of layer functions on the workload's own rows."""
    table = max((database.table(n) for n in database.catalog.table_names()), key=len)
    rows = sorted(table.rows(), key=lambda r: r.items())[:200]
    key = workload.keys[table.name]

    # server.http / server.codec: over the recorded messages of the replay.
    loop = asyncio.new_event_loop()
    try:
        def read_all():
            async def parse():
                for request in replay.requests:
                    reader = asyncio.StreamReader()
                    reader.feed_data(request)
                    reader.feed_eof()
                    await read_request(reader)
            loop.run_until_complete(parse())
        out["server.http.read_request_us"] = (
            _median_us(read_all, 10) / max(1, len(replay.requests)))
    finally:
        loop.close()
    bodies = replay.bodies or [json.dumps({"rows_affected": 1, "seq": 1}).encode("utf-8")]
    out["server.http.encode_response_us"] = _median_us(
        lambda: [encode_response(200, body) for body in bodies], 10) / len(bodies)
    pages = [(r.representation.sorted_rows(), r.attributes) for r in replay.relations]
    pages = [page for page in pages if page[0]] or [(rows, tuple(table.attributes))]
    page_rows = sum(len(page) for page, _ in pages)
    out["server.codec.rows_to_json_us_per_row"] = _median_us(
        lambda: [json.dumps(rows_to_json(page, columns)) for page, columns in pages],
        10) / page_rows
    raw_params = [json.loads(r.split(b"\r\n\r\n", 1)[1])["params"] for r in replay.requests]
    out["server.codec.decode_params_us"] = _median_us(
        lambda: [decode_params(p) for p in raw_params], 10) / max(1, len(raw_params))

    # api: result-cache keying, canonical sort of a drained answer.
    prepared = replay.session.prepare(next(iter(workload.statements.values())))
    compiled = compile_statement(database, prepared.statement)
    tables = compiled.referenced_tables() or (table,)
    bound = {name: 1 for name in compiled.parameters}
    out["api.result_cache.key_for_us"] = _median_us(lambda: replay.session.result_cache.key_for(
        prepared.statement_key, bound, compiled.parameters, tables), 200)
    relations = [r for r in replay.relations if len(r)] or [table.as_xrelation()]
    out["api.results.sort_us_per_row"] = _median_us(
        lambda: [r.representation.sorted_rows() for r in relations],
        10) / sum(len(r) for r in relations)

    # core.engine: on the replay's own intermediate row sets.
    streamed = [block for block in replay.streamed if block] or [rows]
    streamed_rows = sum(len(block) for block in streamed)
    out["core.engine.bulk_reduce_us_per_row"] = _median_us(
        lambda: [bulk_reduce(block) for block in streamed], 10) / streamed_rows
    left = [row.rename({a: "l." + a for a in row.attributes}) for row in rows]
    right = [row.rename({a: "r." + a for a in row.attributes}) for row in rows]
    out["core.engine.equi_join_us_per_row"] = _median_us(
        lambda: equi_join_rows(left, right, "l." + key, "r." + key), 10) / (2 * len(rows))
    out["core.engine.probe_dominated_us"] = _median_us(
        lambda: [table.dominance.probe_dominated(row) for row in rows], 5) / len(rows)

    # storage.database: what a transaction pays on this database.
    snapshot = database.snapshot()
    out["storage.database.snapshot_ms"] = _median_us(database.snapshot, 5) / 1e3
    out["storage.database.restore_ms"] = _median_us(lambda: database.restore(snapshot), 3) / 1e3

    # storage.table: direct calls (after the snapshot probes: a bulk delete
    # leaves the statistics costlier to copy).
    out["storage.table.lookup_us"] = _median_us(
        lambda: [table.lookup([key], [row[key]]) for row in rows[:50]], 10) / 50
    batch = rows[:100]
    deletes, inserts = [], []
    for _ in range(3):
        started = time.perf_counter()
        database.delete_many(table.name, batch)
        middle = time.perf_counter()
        database.insert_many(table.name, batch)
        inserts.append(time.perf_counter() - middle)
        deletes.append(middle - started)
    out["storage.table.delete_many_us_per_row"] = statistics.median(deletes) * 1e6 / len(batch)
    out["storage.table.insert_many_us_per_row"] = statistics.median(inserts) * 1e6 / len(batch)
    out["stats.analyze_ms"] = _median_us(database.analyze, 3) / 1e3

    # storage.wal: the workload's rows as log records in a scratch log.
    records = [{"op": "insert", "table": table.name, "rows": [row]} for row in rows]
    out["storage.wal.encode_frame_us_per_row"] = _median_us(
        lambda: [encode_frame(record) for record in records], 10) / len(records)
    log = WriteAheadLog(os.path.join(scratch, "probe-wal"), sync="none")
    try:
        out["storage.wal.append_us"] = _median_us(
            lambda: [log.append(record) for record in records], 5) / len(records)
        feed = itertools.cycle(records)

        def append_and_flush():
            log.append(next(feed))
            started = time.perf_counter()
            log.flush()
            return time.perf_counter() - started
        out["storage.wal.flush_us"] = statistics.median(
            append_and_flush() for _ in range(PROBE_REPEATS)) * 1e6
    finally:
        log.close()


# ---------------------------------------------------------------------------
# Putting a traced run together
# ---------------------------------------------------------------------------

def client_metrics(measured, out: Dict[str, float]) -> None:
    good = [s for s in measured.samples if s.answered]
    by_class: Dict[str, List[float]] = {"read": [], "write": [], "txn": []}
    for sample in good:
        kind = sample.op.kind
        group = ("read" if kind in READ_KINDS else
                 "txn" if kind in ("txn", "commit", "rollback") else "write")
        by_class[group].append(sample.latency)
    out["client.error_share"] = measured.failed / measured.attempted
    out["client.read_p50_ms"] = _p50_ms(by_class["read"])
    out["client.write_p50_ms"] = _p50_ms(by_class["write"])
    out["client.txn_p50_ms"] = _p50_ms(by_class["txn"])
    latencies = sorted(s.latency for s in good)
    out["client.latency_p99_ms"] = latencies[int(0.99 * (len(latencies) - 1))] * 1e3
    traced = [s["ops"] / s["wall"] for s in measured.segments if s["spans"]]
    plain = [s["ops"] / s["wall"] for s in measured.segments if not s["spans"]]
    out["obs.trace_overhead_share"] = statistics.median(plain) / statistics.median(traced) - 1.0


def counter_metrics(before, after, measured, out: Dict[str, float]) -> None:
    def delta(name: str, **labels: str) -> float:
        return series(after, name, **labels) - series(before, name, **labels)

    requests = delta("repro_server_request_seconds_count")
    out["server.app.requests"] = delta("repro_server_requests_total")
    out["server.app.rejected_overload"] = delta("repro_server_rejected_overload_total")
    out["server.app.request_ms"] = (
        delta("repro_server_request_seconds_sum") / requests * 1e3 if requests else 0.0)
    hits = delta("repro_result_cache_total", event="hit")
    lookups = hits + delta("repro_result_cache_total", event="miss")
    out["api.result_cache.lookups"] = lookups
    out["api.result_cache.hit_ratio"] = hits / lookups if lookups else 0.0
    out["api.result_cache.entries"] = series(after, "repro_result_cache_entries")
    plan_hits = delta("repro_plan_cache_total", event="hit")
    plan_all = plan_hits + delta("repro_plan_cache_total", event="miss") + delta(
        "repro_plan_cache_total", event="stale_epoch")
    out["api.plan_cache.hit_ratio"] = plan_hits / plan_all if plan_all else 0.0
    out["storage.wal.records"] = delta("repro_wal_records_total")
    out["storage.wal.bytes"] = delta("repro_wal_bytes_total")
    out["storage.wal.fsyncs"] = delta("repro_wal_fsyncs_total")
    out["storage.wal.commits_coalesced"] = delta("repro_wal_commits_coalesced_total")
    out["storage.wal.checkpoint_s"] = delta("repro_wal_checkpoint_seconds_sum")
    out["storage.wal.checkpoint_bytes"] = series(after, "repro_wal_checkpoint_bytes")
    out["stats.mutations_since_analyze"] = series(after, "repro_stats_mutations_since_analyze")
    out["storage.wal.recovery_s"] = measured.notes.get("recovery_s", 0.0)
    out["storage.wal.recovered_records"] = measured.notes.get("recovered_records", 0.0)
    appended = sum(
        (sum(s.raw) if isinstance(s.raw, list) else s.raw)
        for s in measured.samples
        if s.op.kind in ("append", "append_where", "txn") and s.answered)
    disk = measured.notes.get("wal_disk_bytes", 0.0)
    out["storage.wal.disk_bytes_per_row"] = disk / appended if appended and disk else 0.0


def trace_metrics(replay: Replay, out: Dict[str, float]) -> None:
    """Session phases and operator actuals of the replayed ops, read from
    ``Session.recent_traces()``."""
    traces = [t for t in replay.session.recent_traces() if t.finished]
    for phase in ("parse", "analyze", "plan", "execute"):
        values = [t.phases.get(phase, 0.0) for t in traces]
        out[f"api.session.phase_ms.{phase}"] = (
            statistics.fmean(values) * 1e3 if values else 0.0)
    self_seconds = dict.fromkeys(OPERATORS, 0.0)
    produced = dict.fromkeys(OPERATORS, 0.0)
    examined = returned = 0
    drained = [t for t in traces if t.operators and t.kind == "retrieve"]
    for trace in drained:
        operators = trace.operators
        for index, node in enumerate(operators):
            children = _children(operators, index)
            if node["operator"] in self_seconds:
                self_seconds[node["operator"]] += max(
                    0.0, node["seconds"] - sum(child["seconds"] for child in children))
                produced[node["operator"]] += node["rows"]
            if not children:
                examined += node["rows"]
        returned += operators[0]["rows"]
    count = max(1, len(drained))
    for operator in OPERATORS:
        out[f"exec.operators.{operator}.self_ms"] = self_seconds[operator] / count * 1e3
        out[f"exec.operators.{operator}.rows"] = produced[operator] / count
    out["quel.planner.rows_examined_per_row_out"] = examined / returned if returned else 0.0


def _children(operators: List[Dict[str, Any]], index: int) -> List[Dict[str, Any]]:
    """Direct children of the node at *index* in a depth-first, root-first
    list of ``{"depth": ...}`` records."""
    depth = operators[index]["depth"]
    children = []
    for other in operators[index + 1:]:
        if other["depth"] <= depth:
            break
        if other["depth"] == depth + 1:
            children.append(other)
    return children


def server_probes(workload, env, measured, replay: Replay, kinds, client_p50_ms: float,
                  out: Dict[str, float]) -> None:
    """Round-trip floor, the server's tax over the in-process path, and
    what a write waits for when the other client is busy."""
    out["server.tax_us"] = client_p50_ms * 1e3 - replay.median("api.session.execute", kinds) * 1e6
    if env.child is None:
        return
    client = env.drivers[0].client
    out["server.client.roundtrip_floor_us"] = _median_us(client.info, 300)
    if "append" in workload.statements and workload.clients > 1:
        # The same 1-row append with the other connection idle; the keys
        # are fresh and the end state has already been checked.
        text = workload.statements["append"]
        fresh = itertools.count(900_000_000)
        alone = _median_us(lambda: client.execute(
            text, {"a": next(fresh), "b": 0, "c": 0}), 100) / 1e3
        mixed = _p50_ms([s.latency for s in measured.samples
                         if s.op.kind == "append" and s.answered])
        out["server.gate.write_wait_ms"] = mixed - alone


def attribution(workload, replay: Replay, kinds, client_p50_ms: float,
                out: Dict[str, float]) -> List[tuple]:
    """The per-layer self-time table of the headline op, as ``(layer, µs,
    share of the client-observed p50)`` rows; sets ``obs.unattributed_share``
    and ``api.session.overhead_us``.

    In-process rows are medians over the replayed ops of that kind.  The
    two HTTP rows are differences against the server's own request
    histogram, so an HTTP table adds up by construction — what it shows
    is the split, and a negative row would mean the twin replay is not
    what the server ran."""
    us = lambda stage: replay.median(stage, kinds) * 1e6  # noqa: E731
    whole = us("api.session.execute")
    rows: List[tuple] = []
    if us("api.results.sort"):                          # a read
        engine = [
            ("quel.planner", us("quel.planner.logical_plan") + us("quel.planner.compile")),
            ("exec.pipeline", us("exec.pipeline.first_block") + us("exec.pipeline.rest")),
            ("core.engine (reduce)", us("exec.pipeline.reduce")),
            ("api.results (sort)", us("api.results.sort")),
        ]
        out["api.session.overhead_us"] = whole - sum(value for _, value in engine)
        rows = engine + [("api.session", out["api.session.overhead_us"])]
    else:
        # A write on the twin: session, sink, constraint checks and table
        # maintenance in one call; a transaction's snapshot on its own row.
        snapshot = (out["storage.database.snapshot_ms"] * 1e3
                    if set(kinds) & {"txn", "commit", "rollback"} else 0.0)
        rows = [("api.session + exec.sinks + storage.table", whole - snapshot)]
        if snapshot:
            rows.append(("storage.database (snapshot)", snapshot))
        if workload.durable:
            rows.append(("storage.wal (append + fsync)",
                         out["storage.wal.append_us"] + out["storage.wal.flush_us"]))
    if workload.transport == "http":
        request = out["server.app.request_ms"] * 1e3
        codec = us("server.codec.decode_params") + us("server.codec.rows_to_json")
        encode = us("server.http.encode_response")
        inside = sum(value for _, value in rows) + codec + encode
        rows += [
            ("server.codec", codec),
            ("server.http (encode)", encode),
            ("server.app (gate, executor hops)", request - inside),
            ("server.transport (client, socket, parse)", client_p50_ms * 1e3 - request),
        ]
    total = client_p50_ms * 1e3
    attributed = sum(value for _, value in rows)
    out["obs.unattributed_share"] = 1.0 - attributed / total
    rows.append(("unattributed", total - attributed))
    return [(name, value, value / total) for name, value in rows]


def per_layer_metrics(workload, env, measured, spans: Spans, before, after,
                      seed: int, scale: str, names: Sequence[str], scratch: str):
    """Returns ``(metrics by name, self-time table)`` of a traced run."""
    out: Dict[str, float] = dict.fromkeys(names, 0.0)
    client_metrics(measured, out)
    counter_metrics(before, after, measured, out)

    if workload.transport == "session" and not workload.durable:
        twin = env.database
    else:
        twin = workload.open(seed, scale)
    rng = random.Random(f"e2e/{workload.name}/{seed}/sample")
    pool = [(i, s.op) for i, s in enumerate(measured.samples)]
    sample = sorted(rng.sample(pool, min(SAMPLE_OPS, len(pool))))
    replay = Replay(workload, twin, spans)
    for number, op in sample:
        replay.op(number, op)

    trace_metrics(replay, out)
    for stage, metric, scale_by in (
        ("quel.parser.parse", "quel.parser.parse_us", 1e6),
        ("quel.parser.normalize", "quel.parser.normalize_us", 1e6),
        ("quel.analyzer.analyze", "quel.analyzer.analyze_us", 1e6),
        ("quel.planner.logical_plan", "quel.planner.logical_plan_ms", 1e3),
        ("quel.planner.compile", "quel.planner.compile_ms", 1e3),
        ("exec.pipeline.first_block", "exec.pipeline.first_block_ms", 1e3),
    ):
        out[metric] = replay.median(stage) * scale_by
    out["exec.pipeline.drain_ms"] = (
        replay.median("exec.pipeline.first_block") + replay.median("exec.pipeline.rest")
        + replay.median("exec.pipeline.reduce")) * 1e3
    out["exec.pipeline.blocks"] = statistics.fmean(replay.blocks) if replay.blocks else 0.0
    unit_probes(workload, twin, replay, out, scratch)

    # The op the self-time table is about: the headline kind, or the
    # commonest kind where every op counts towards the headline latency.
    kinds = workload.headline or (statistics.mode(op.kind for _, op in sample),)
    client_p50_ms = _p50_ms([
        s.latency for s in measured.samples
        if s.answered and s.op.kind in kinds])
    server_probes(workload, env, measured, replay, kinds, client_p50_ms, out)
    table = attribution(workload, replay, kinds, client_p50_ms, out)
    replay.session.close()
    unknown = set(out) - set(names)
    if unknown:
        raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return out, table
