"""The server child of the HTTP workloads.

Started by ``run.py`` (which puts ``src/`` and this directory on
``PYTHONPATH``): builds the workload's seeded dataset, serves it with
``repro.server.serve`` on an ephemeral port with default options, and
then answers one-word commands on stdin with one JSON line on stdout:

* ``stats`` — this process's CPU seconds (user + system) and peak RSS;
* ``state`` — ``workloads.database_state`` (end-state check);
* ``stop``  — stop the server, close the database, exit 0.

Closing stdin (the harness died) stops it the same way, so no run can
leave an orphan behind.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

from repro.server import serve

from workloads import WORKLOADS, database_state


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--wal-dir")
    args = parser.parse_args()

    def emit(payload) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    database = WORKLOADS[args.workload].open(args.seed, args.scale, args.wal_dir)
    gc.collect()
    gc.freeze()                 # see run.py: set_up
    handle = serve(database)
    try:
        emit({"event": "ready", "port": handle.port, "pid": os.getpid()})
        for line in sys.stdin:
            command = line.strip()
            if command == "stats":
                emit({"cpu_s": time.process_time(),
                      "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
            elif command == "state":
                emit(database_state(database))
            elif command == "stop":
                break
    finally:
        handle.stop()
        database.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
