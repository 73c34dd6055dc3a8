#!/usr/bin/env python3
"""e2e: the repo's benchmark, from HTTP client to write-ahead log.

One command sets up each workload, checks every answer against the
plain-Python model in ``reference.py`` and prints every metric by name
with its unit::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace 0|1] [--smoke] [--verify-repeat]

``--trace 0`` (default) measures the end-to-end metrics with harness
tracing off; ``--trace 1`` repeats the workload with the per-layer spans
on and reports the per-layer metrics (see ``layers.py``).  The last line
of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  See ``README.md`` for the workloads, the
metric / unit / bound table and the layer → metric predictions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path[:0] = [HERE, SRC]

from repro.api.session import Session  # noqa: E402
from repro.obs import get_registry  # noqa: E402
from repro.server import ServerClient  # noqa: E402
from repro.storage.database import Database  # noqa: E402

from drivers import HttpDriver, SessionDriver  # noqa: E402
from reference import canonical_row  # noqa: E402
from workloads import (  # noqa: E402
    FIRST_ROWS, READ_KINDS, SEGMENTS, SYNC_POLICY, WORKLOADS, Op, database_state, state_checks)

#: Set-ups per run; ``setup_s`` is their median and the last one is measured.
SETUP_REPEATS = 3

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    CONTRACT = json.load(_handle)
END_TO_END = {m["name"]: m for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m for m in CONTRACT["per_layer"]}


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of *values* (need not be sorted)."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def trimmed_mean(values: Sequence[float]) -> float:
    """Mean without the lowest and the highest value: what a rate over
    the measured segments is reported as.  One stalled segment does not
    move it, and a step between segments (a cache filling up) moves it
    by a third of the step, where a median would jump by all of it."""
    ordered = sorted(values)
    return statistics.fmean(ordered[1:-1] if len(ordered) > 2 else ordered)


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 − Q1) / median, the spread the acceptance rule uses."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


# ---------------------------------------------------------------------------
# The database host: server child or in-process
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def scratch_dir():
    """A directory under ``out/`` removed on the way out, whatever happened."""
    os.makedirs(OUT, exist_ok=True)
    path = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


class ServerChild:
    """``serve_child.py`` as a child process (see its docstring)."""

    def __init__(self, workload, seed: int, scale: str, wal_dir: Optional[str]):
        command = [sys.executable, os.path.join(HERE, "serve_child.py"),
                   "--workload", workload.name, "--seed", str(seed), "--scale", scale]
        if wal_dir:
            command += ["--wal-dir", wal_dir]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([HERE, SRC]))
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
        try:
            ready = self._reply()
        except BaseException:
            self.stop()
            raise
        self.port = ready["port"]

    def _reply(self) -> Dict[str, Any]:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"server child exited with {self.process.wait()}")
        return json.loads(line)

    def ask(self, command: str) -> Dict[str, Any]:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        return self._reply()

    def stop(self) -> None:
        """Stop the child and make sure it is gone (no orphan)."""
        process = self.process
        if process.poll() is None:
            try:
                process.stdin.write("stop\n")
                process.stdin.close()
                process.wait(timeout=20)
            except (OSError, subprocess.TimeoutExpired):
                process.kill()
                process.wait()
        process.stdout.close()
        if process.returncode != 0:
            raise RuntimeError(f"server child ended with {process.returncode}")

    def __enter__(self) -> "ServerChild":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class Environment:
    """One set-up of a workload: the database host and its drivers."""

    def __init__(self):
        self.stack = contextlib.ExitStack()
        self.child: Optional[ServerChild] = None
        self.database: Optional[Database] = None
        self.wal_dir: Optional[str] = None
        self.drivers: List[Any] = []
        self.setup_s = 0.0
        self.warm: List[List["Sample"]] = []

    def cpu_s(self) -> float:
        """User + system CPU of the harness and the server child so far."""
        child = self.child.ask("stats")["cpu_s"] if self.child else 0.0
        return time.process_time() + child

    def peak_rss_mb(self) -> float:
        """Peak RSS of the process hosting the database."""
        if self.child:
            kib = self.child.ask("stats")["max_rss_kb"]
        else:
            kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return kib / 1024.0

    def state(self) -> Dict[str, Any]:
        return self.child.ask("state") if self.child else database_state(self.database)

    def close(self) -> None:
        self.stack.close()


def set_up(workload, seed: int, scale: str, warm_segment) -> Environment:
    """Timed: data generation, load, index DDL, ANALYZE, server spawn,
    statement preparation and the warm-up ops."""
    env = Environment()
    started = time.perf_counter()
    try:
        if workload.durable:
            env.wal_dir = env.stack.enter_context(scratch_dir())
        if workload.transport == "http":
            env.child = env.stack.enter_context(
                ServerChild(workload, seed, scale, env.wal_dir))
            for _ in range(workload.clients):
                client = env.stack.enter_context(ServerClient("127.0.0.1", env.child.port))
                env.drivers.append(HttpDriver(workload, client))
        else:
            env.database = workload.open(seed, scale, env.wal_dir)
            env.stack.callback(env.database.close)
            session = env.stack.enter_context(Session(env.database))
            env.drivers.append(SessionDriver(workload, session))
        env.warm = run_segment(env.drivers, warm_segment)
        # Set-up ends as a long-running process would be found: what was
        # built is old and settled.  Without this CPython's full
        # collections keep re-scanning the freshly loaded database, land
        # on about 6 % of the join drains and leave p95 straddling the
        # pause.  The server child does the same after its load.
        gc.collect()
        gc.freeze()
        env.stack.callback(gc.unfreeze)
        env.setup_s = time.perf_counter() - started
    except BaseException:
        env.close()
        raise
    return env


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------

class Sample:
    """One executed op: its timing and its raw answer (scored later)."""

    __slots__ = ("op", "start", "end", "first", "raw")

    def __init__(self, op: Op, start: float, end: float, first: Optional[float], raw: Any):
        self.op, self.start, self.end, self.first, self.raw = op, start, end, first, raw

    @property
    def latency(self) -> float:
        return self.end - self.start

    @property
    def answered(self) -> bool:
        """False for an op that raised (an exception, any 4xx/5xx)."""
        return not isinstance(self.raw, Exception)


def run_client(driver, ops: Sequence[Op], out: List[Sample], spans=None) -> None:
    """The closed loop of one client: next op only after the reply."""
    clock = time.perf_counter
    for op in ops:
        start = clock()
        try:
            raw, first = driver.run(op)
        except Exception as error:  # a failed op, scored as such
            raw, first = error, None
        end = clock()
        out.append(Sample(op, start, end, first, raw))
        if spans is not None:
            spans.add("client.op." + op.kind, start, end)


def run_segment(drivers, segment, spans=None) -> List[List[Sample]]:
    """Run one segment: ``segment[i]`` is the op list of client *i*."""
    outs: List[List[Sample]] = [[] for _ in drivers]
    if len(drivers) == 1:
        run_client(drivers[0], segment[0], outs[0], spans)
        return outs
    threads = [
        threading.Thread(target=run_client, args=(driver, ops, out, spans))
        for driver, ops, out in zip(drivers, segment, outs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outs


def canonical_rows(rows) -> List[tuple]:
    return [canonical_row(r) if isinstance(r, dict) else tuple(r.items()) for r in rows]


def score(sample: Sample) -> Tuple[bool, int]:
    """``(answer is right, user rows returned or affected)`` for one op."""
    op, raw = sample.op, sample.raw
    if not sample.answered:
        return False, 0
    kind = op.kind
    if kind in READ_KINDS:
        rows = canonical_rows(raw)
        answer = frozenset(rows)
        if len(answer) != len(rows):
            return False, len(rows)
        if kind == "first":
            wanted = min(FIRST_ROWS, len(op.expect))
            return len(rows) == wanted and answer <= op.expect, len(rows)
        return answer == op.expect, len(rows)
    if kind == "txn":
        return raw == op.expect, sum(raw)
    if kind in ("commit", "rollback"):
        return raw == op.expect, 2 if kind == "commit" else 0
    if kind == "checkpoint":
        return raw is True, 0
    return raw == op.expect, raw


class Measured:
    """Everything one measured run of a workload produced."""

    def __init__(self):
        self.setup_times: List[float] = []
        self.segments: List[Dict[str, Any]] = []
        self.samples: List[Sample] = []
        self.attempted = 0
        self.failed = 0
        self.checks: Dict[str, bool] = {}
        self.peak_rss_mb = 0.0
        self.notes: Dict[str, Any] = {}

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())

    def tally(self, outs: List[List[Sample]]) -> Tuple[int, int]:
        ops = rows = 0
        for samples in outs:
            for sample in samples:
                ok, count = score(sample)
                ops += 1
                rows += count
                self.failed += not ok
        self.attempted += ops
        return ops, rows


def headline(workload, samples: Sequence[Sample]) -> List[float]:
    kinds = workload.headline
    return [s.latency for s in samples
            if s.answered and (kinds is None or s.op.kind in kinds)]


def first_page(workload, samples: Sequence[Sample]) -> List[float]:
    """Time to the first page: the first cursor page over HTTP, the first
    rows of a ``first`` op in-process; an op answered in one reply is its
    own first page.  Full drains never page and stay out."""
    return [(s.first or s.end) - s.start for s in samples
            if s.answered and s.op.kind != "drain"]


def end_to_end_metrics(workload, measured: Measured) -> Dict[str, float]:
    segments = measured.segments
    latencies = headline(workload, measured.samples)
    ops = sum(s["ops"] for s in segments)
    throughput = trimmed_mean([s["ops"] / s["wall"] for s in segments])
    return {
        "setup_s": statistics.median(measured.setup_times),
        "throughput_ops_s": throughput,
        "rows_per_s": throughput * sum(s["rows"] for s in segments) / ops,
        "latency_p50_ms": percentile(latencies, 0.50) * 1e3,
        "latency_p95_ms": percentile(latencies, 0.95) * 1e3,
        "first_page_ms": statistics.median(first_page(workload, measured.samples)) * 1e3,
        "cpu_ms_per_op": sum(s["cpu"] for s in segments) / ops * 1e3,
        "peak_rss_mb": measured.peak_rss_mb,
    }


def recovered_records() -> float:
    """Log records replayed so far by every ``Database.open`` of this
    process (they report into the process-global registry)."""
    return sum(
        sample["value"] for family in get_registry().collect()
        if family["name"] == "repro_wal_recovered_records_total"
        for sample in family["samples"])


def check_end_state(workload, env: Environment, reference, measured: Measured) -> None:
    """The tables the ops left behind equal the model's; on a durable
    workload a copy of the live directory recovers to the same rows,
    index definitions and statistics."""
    live = env.state()
    for name, same in state_checks(live, reference).items():
        measured.checks[f"state.{name}"] = same
    if not env.wal_dir:
        return
    with scratch_dir() as parent:
        copy = os.path.join(parent, "crash")
        shutil.copytree(env.wal_dir, copy)
        measured.notes["wal_disk_bytes"] = sum(
            os.path.getsize(os.path.join(copy, name)) for name in os.listdir(copy))
        replayed = recovered_records()
        started = time.perf_counter()
        recovered = Database.open(copy, **SYNC_POLICY)
        measured.notes["recovery_s"] = time.perf_counter() - started
        try:
            measured.checks["recovered"] = database_state(recovered) == live
            measured.notes["recovered_records"] = recovered_records() - replayed
        finally:
            recovered.close()


def run_workload(workload, seed: int, seconds: float, scale: str, traced: bool) -> Dict[str, Any]:
    """Set up (several times), measure, check; returns the result record."""
    segments = SEGMENTS + 1 if traced else SEGMENTS
    tables = workload.tables(seed, scale)
    reference = workload.reference(tables)
    schedule = workload.schedule(seed, seconds, scale, segments, reference)
    del tables
    warm, measured_segments = schedule[0], schedule[1:]

    measured = Measured()
    spans = None
    if traced:
        import layers
        spans = layers.Spans()
    env = None
    try:
        for _ in range(SETUP_REPEATS):
            if env is not None:
                env.close()
            env = set_up(workload, seed, scale, warm)
            measured.setup_times.append(env.setup_s)
        measured.tally(env.warm)
        if env.database is not None:
            # The join's plan moves under adaptive feedback during the
            # first few drains; the warm-up must end with it holding still.
            measured.notes["warm_plan_shapes"] = len({
                tuple((node["depth"], node["operator"]) for node in trace.operators)
                for trace in env.drivers[0].session.recent_traces()[-8:]
                if trace.kind == "retrieve" and trace.operators})
        before = layers.counters(env) if traced else None

        for index, segment in enumerate(measured_segments):
            # A traced run alternates spans on / off so the overhead of
            # the harness's own tracing is measured inside the same run.
            with_spans = spans if traced and index % 2 == 0 else None
            cpu = env.cpu_s()
            started = time.perf_counter()
            outs = run_segment(env.drivers, segment, with_spans)
            wall = time.perf_counter() - started
            cpu = env.cpu_s() - cpu
            ops, rows = measured.tally(outs)
            measured.segments.append({"ops": ops, "rows": rows, "wall": wall,
                                      "cpu": cpu, "spans": with_spans is not None})
            measured.samples.extend(s for out in outs for s in out)
        measured.peak_rss_mb = env.peak_rss_mb()
        after = layers.counters(env) if traced else None
        check_end_state(workload, env, reference, measured)

        record = {
            "workload": workload.name,
            "correct": measured.correct,
            "attempted": measured.attempted,
            "failed": measured.failed,
            "checks": measured.checks,
            "samples": len(headline(workload, measured.samples)),
            "segments": [{k: s[k] for k in ("ops", "rows", "wall", "cpu")}
                         for s in measured.segments],
            "constants": workload.describe(scale),
            "notes": measured.notes,
        }
        if traced:
            with scratch_dir() as scratch:
                record["metrics"], record["self_time"] = layers.per_layer_metrics(
                    workload, env, measured, spans, before, after, seed, scale,
                    list(PER_LAYER), scratch)
            spans.write(os.path.join(OUT, f"trace-{workload.name}.json"))
        else:
            record["metrics"] = end_to_end_metrics(workload, measured)
        return record
    finally:
        if env is not None:
            env.close()


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def machine_block(seed: int, seconds: float, scale: str) -> Dict[str, Any]:
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as handle:
            commit = handle.read().strip()
        if commit.startswith("ref: "):
            ref = os.path.join(ROOT, ".git", commit[5:])
            if os.path.exists(ref):
                with open(ref, encoding="utf-8") as handle:
                    commit = handle.read().strip()
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "commit": commit, "seed": seed,
        "seconds": seconds, "scale": scale, "flush_policy": SYNC_POLICY,
        "server_options": "repro.server.serve defaults", "loop": "closed",
        "setup_repeats": SETUP_REPEATS, "segments": SEGMENTS,
    }


def emit_metrics(record: Dict[str, Any], catalogue: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Print the record's metrics by name with their units and return the
    contract's ``{"name": {"value", "unit"}}`` form."""
    name = record["workload"]
    print(f"\n== {name}: correct={record['correct']} attempted={record['attempted']} "
          f"failed={record['failed']} latency samples={record['samples']}")
    print(f"   constants: {json.dumps(record['constants'])}")
    walls = [s["wall"] for s in record["segments"]]
    print(f"   measured part: {sum(walls):.2f} s in {len(walls)} segments "
          f"(quartile spread of segment time {quartile_spread(walls):.3f})")
    print(f"   notes: {json.dumps(record['notes'])}")
    for check, ok in record["checks"].items():
        print(f"   check {check}: {'ok' if ok else 'FAILED'}")
    if "self_time" in record:
        print("   per-layer self time of the headline op, share of its client-observed p50:")
        for layer, micros, share in record["self_time"]:
            print(f"     {layer:<44} {micros:>12.1f} us {share:>8.1%}")
    out = {}
    for metric, spec in catalogue.items():
        value = record["metrics"][metric]
        out[metric] = {"value": value, "unit": spec["unit"]}
        print(f"   {metric:<48} {value:>16.6g} {spec['unit']}")
    return out


def run_isolated(name: str, args, echo: bool = True) -> Dict[str, Any]:
    """One workload in a process of its own — the way the driver runs it —
    so that peak RSS and collector state are that workload's alone.
    Returns the run's result line."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if echo:
        print("\n".join(lines[1:-1]))     # without its machine and result lines
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{name}: run ended with {done.returncode} and no result")
    return json.loads(lines[-1])


def verify_repeat(names: Sequence[str], args) -> int:
    """Run every workload twice with one seed; fail if any end-to-end
    metric moved by more than its bound between the two."""
    worst = False
    for name in names:
        first, second = (run_isolated(name, args, echo=False) for _ in range(2))
        print(f"\n== {name}: repeat check (seed {args.seed})")
        for metric, spec in END_TO_END.items():
            a, b = (run["metrics"][metric]["value"] for run in (first, second))
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            verdict = "ok" if abs(worse) <= spec["bound"] else "EXCEEDS"
            worst |= verdict != "ok"
            print(f"   {metric:<20} {a:>14.6g} {b:>14.6g} {spec['unit']:<6} "
                  f"moved {worse:+.3f} bound {spec['bound']:.2f} {verdict}")
        worst |= not (first["correct"] and second["correct"])
    return int(worst)


def smoke_cross_check(workload, seed: int) -> bool:
    """``--smoke``: the reference model against the definitional
    tuple-at-a-time evaluator.  Each workload's op list runs client after
    client on a small database; writes go through a session, and the
    first reads of every kind must get from ``strategy="tuple"`` exactly
    the answer the model expected; so must the tables left at the end."""
    agreed = True
    tables = workload.tables(seed, "oracle")
    reference = workload.reference(tables)
    schedule = workload.schedule(seed, 1.0, "oracle", 1, reference)
    database = Database("oracle")
    workload.build(database, tables)
    checked = 0
    with Session(database) as session:
        driver = SessionDriver(workload, session)
        for op in (op for segment in schedule for client in segment for op in client):
            if op.kind in READ_KINDS and op.kind != "first":
                if checked < 12:
                    oracle = database.query(
                        workload.statements[op.kind], op.params, strategy="tuple")
                    agreed &= op.expect == frozenset(canonical_rows(oracle.rows))
                    checked += 1
            elif op.kind not in READ_KINDS and op.kind != "checkpoint":
                driver.run(op)
    agreed &= all(state_checks(database_state(database), reference).values())
    print(f"   cross-check {workload.name}: {checked} reads against strategy='tuple', "
          f"end state of {len(reference.tables)} table(s) against the model")
    return agreed


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all six")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=float(CONTRACT["run_seconds"]),
                        help="size of the measured part (see workloads.py)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1, dest="trace",
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, plus the reference/oracle cross-check")
    parser.add_argument("--verify-repeat", action="store_true",
                        help="run each workload twice and compare against the bounds")
    args = parser.parse_args(argv)

    scale = "smoke" if args.smoke else "full"
    names = [args.workload] if args.workload else list(WORKLOADS)
    print(f"machine: {json.dumps(machine_block(args.seed, args.seconds, scale))}")
    if args.verify_repeat:
        args.trace = 0
        return verify_repeat(names, args)
    if not args.workload:
        # All six: each in a process of its own, results under "<workload>.<metric>".
        total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            result = run_isolated(name, args)
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            total["metrics"].update(
                {f"{name}.{metric}": value for metric, value in result["metrics"].items()})
        print(json.dumps(total))
        return 0 if total["correct"] else 1

    workload = WORKLOADS[args.workload]
    correct = True
    if args.smoke:
        correct = smoke_cross_check(workload, args.seed)
        print(f"   reference == oracle: {correct}")
    record = run_workload(workload, args.seed, args.seconds, scale, bool(args.trace))
    metrics = emit_metrics(record, PER_LAYER if args.trace else END_TO_END)
    correct &= record["correct"]
    print(json.dumps({"correct": bool(correct), "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
