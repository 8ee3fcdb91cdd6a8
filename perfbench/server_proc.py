"""The serve_wire server: a NetServer in a process of its own.

    python3 perfbench/server_proc.py --seed <n> --sf <sf> --max-concurrent <k>

It generates TPC-H from the seed, registers it under the benchmark's engine
profile, starts a NetServer on a free localhost port and prints one JSON line
``{"port": ..., "setup_s": ...}``.  It then reads commands from stdin, one
per line, and answers each with one JSON line on stdout:

* ``trace on`` / ``trace off`` install or remove the span tracer's probes
  (engine layers plus the server's request, stream and frame-encode paths);
* ``dump`` returns the tracer's spans and totals and the peak RSS;
* ``stop`` closes the server and exits.

The server runs apart from the load generator so that the generator's own
work never delays the server's event loop.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def reply(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def install_server_probes(tracer) -> None:
    from repro.server import netserver

    from tracer import install_engine_probes

    install_engine_probes(tracer)
    tracer.wrap_async(netserver.NetServer, "_cmd_query", "server.request",
                      qid_of=lambda args: f"{args[1].session.name}:{args[2]}")

    def stream_rows(args):
        tracer.count("wire.rows", args[4].nrows)

    tracer.wrap_async(netserver.NetServer, "_stream_chunk", "wire.stream",
                      on_enter=stream_rows)
    tracer.wrap(netserver, "encode_frame", "wire.encode_frame",
                after=lambda r, a, k, s: tracer.count("wire.bytes_out", len(r)))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sf", type=float, required=True)
    parser.add_argument("--max-concurrent", type=int, required=True)
    args = parser.parse_args()

    from common import PROFILE, peak_rss_mb
    from tracer import Tracer

    start = time.perf_counter()
    from repro import connect
    from repro.backends import get_backend
    from repro.server import NetServer
    from repro.workloads.tpch import generate, register_tpch

    db = connect(get_backend(PROFILE).config(threads=1))
    register_tpch(db, generate(scale_factor=args.sf, seed=args.seed))
    server = NetServer(db, max_concurrent=args.max_concurrent, queue_limit=256)
    server.run_in_thread()
    reply({"port": server.port, "setup_s": time.perf_counter() - start})

    tracer = Tracer()
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace on":
                install_server_probes(tracer)
                reply({"ok": True})
            elif command == "trace off":
                tracer.uninstall()
                reply({"ok": True})
            elif command == "dump":
                reply({"trace": tracer.dump(), "peak_rss_mb": peak_rss_mb()})
            elif command == "stop":
                break
            else:
                reply({"error": f"unknown command {command!r}"})
    finally:
        tracer.uninstall()
        server.close()
    reply({"stopped": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
