#!/usr/bin/env python3
"""Serve a spanner from shared memory and drive load at the daemon.

Builds a Baswana–Sen 3-spanner, preprocesses it into a
:class:`~repro.oracle.DistanceOracle`, and publishes it once through
:class:`~repro.serve.Server` — two forked worker processes map zero-copy
views of the same frozen CSR + landmark potentials (one payload, not
one pickled oracle per worker). A :class:`~repro.serve.ServeClient`
exercises the frame protocol (queries, batch, k-nearest, typed errors,
merged worker metrics), then the load generator measures a small
qps-vs-concurrency curve closed-loop and replays a seeded Poisson
schedule open-loop — the same drivers behind ``repro loadgen`` and the
live throughput test in ``tests/test_serve.py``.

Run:  python examples/serve_loadgen.py
"""

import random
import threading

from repro.graphs import erdos_renyi_graph
from repro.harness.loadgen import (
    poisson_schedule,
    run_closed_level,
    run_open_level,
    schedule_digest,
)
from repro.oracle import build_oracle
from repro.serve import ProtocolError, ServeClient, Server
from repro.spanners import baswana_sen_spanner


def main() -> None:
    rng = random.Random(0)
    g = erdos_renyi_graph(200, 0.06, seed=4)
    h = baswana_sen_spanner(g, 2, rng)
    oracle = build_oracle(h, landmarks=6, strategy="far", seed=0)
    print(f"host {g}  ->  spanner {h}  ->  {oracle}")

    # -- publish once, serve from two crash-isolated workers ------------
    server = Server(oracle, workers=2, port=0, warm=2)
    server.start()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.address
    print(f"daemon up at {host}:{port}, workers=2, "
          f"shared payload {server.payload_bytes} bytes")

    try:
        with ServeClient.open(server.address) as client:
            # -- the protocol, one op at a time -------------------------
            d = client.query("0", "7")
            batch = client.query_many([("0", "7"), ("3", "12"), ("0", "7")])
            nearest = client.k_nearest("5", k=3)
            print(f"query d(0,7) = {d:.4f}   batch {batch}")
            print(f"k-nearest(5) = {nearest}")

            # failures are typed envelopes, never tracebacks or hangs
            try:
                client.query("0", "no-such-vertex")
            except ProtocolError as err:
                print(f"typed error  code={err.code!r}: {err}")

            stats = client.stats()
            requests = stats["snapshot"]["serve.worker.requests"]["value"]
            print(f"merged metrics from {stats['workers']} workers: "
                  f"{requests} compute requests so far")

            # -- closed loop: a fixed-concurrency qps curve -------------
            pairs = [(str(rng.randrange(200)), str(rng.randrange(200)))
                     for _ in range(120)]
            print("\nclosed loop (every client replays its share "
                  "back-to-back):")
            for concurrency in (1, 2, 4):
                level, _ = run_closed_level(
                    server.address, pairs, concurrency, repeats=2
                )
                print(f"  c={concurrency}: {level.requests} req, "
                      f"p50 {level.p50_ms:.3f} ms, p99 {level.p99_ms:.3f} ms, "
                      f"{level.qps:.0f} q/s, "
                      f"failures {level.failure_rate:.1%}")

            # -- open loop: seeded Poisson arrivals on a wall clock -----
            schedule = poisson_schedule(pairs, rate=300.0, duration=1.0,
                                        seed=42)
            level = run_open_level(server.address, schedule, clients=4)
            print(f"\nopen loop (Poisson 300/s for 1 s, "
                  f"schedule sha256 {schedule_digest(schedule)[:12]}...):")
            print(f"  {level.requests} req at {level.offered_rate:.0f}/s "
                  f"offered, p50 {level.p50_ms:.3f} ms, "
                  f"p99 {level.p99_ms:.3f} ms, "
                  f"failures {level.failure_rate:.1%}")
            print("  (latency is measured from the scheduled arrival — "
                  "queueing delay counts)")
    finally:
        server.request_shutdown()
        thread.join(timeout=30)
    print("\ndaemon drained and stopped; shared segment unlinked")


if __name__ == "__main__":
    main()
