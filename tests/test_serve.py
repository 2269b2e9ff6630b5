"""Suite for the shared-memory serving daemon (repro.serve).

Three layers of contract:

* **shm** — publish/attach round-trips the oracle exactly, attached
  oracles answer over zero-copy views, and worker-side private memory
  stays far below one full oracle copy (the whole point of sharing);
* **protocol/daemon** — every failure in the typed taxonomy is a typed
  envelope, never a traceback or a hang: malformed frames keep the
  connection, oversized frames close it, disconnecting clients and
  SIGKILLed workers leave the daemon serving;
* **liveness under hostile clients** — a client that pipelines without
  reading, reads slowly, or half-closes never stalls anyone else; a
  stopped worker does not stop new connections; a pipeline is held
  back by TCP and answered whole, and only a worker holding its cap
  of requests over all clients answers ``overloaded``;
* **correctness under concurrency** — workers=N answers equal
  workers=1 answers equal Dijkstra-on-H (1e-9), and per-worker metric
  registries merge into exact totals.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import signal
import socket
import struct
import subprocess
import sys
import textwrap
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import verify_oracle
from repro.graphs import erdos_renyi_graph
from repro.graphs.shortest_paths import dijkstra
from repro.harness import get_profile
from repro.harness.loadgen import build_profile_structure, run_closed_level
from repro.harness.queries import QUERY_MIXES, build_query_mix
from repro.io import write_json
from repro.oracle import build_oracle
from repro.serve import (
    ConnectionClosed,
    ProtocolError,
    ServeClient,
    Server,
    address_of,
    attach_oracle,
    publish_oracle,
)
from repro.serve.protocol import (
    DEFAULT_MAX_FRAME,
    decode_body,
    encode_frame,
    error_response,
    ok_response,
    parse_request,
    read_frame,
    result_of,
)

REPO_SRC = Path(__file__).resolve().parent.parent / "src"

GRAPH = erdos_renyi_graph(150, 0.06, seed=21)
ORACLE = build_oracle(GRAPH, landmarks=4, seed=3)
PAIRS = [(u, v) for u in [0, 3, 7, 20] for v in [1, 9, 33, 140]]


def _serve_in_thread(server):
    server.start()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


@pytest.fixture(scope="module")
def served():
    """One shared daemon (2 workers, TCP) for the read-only tests."""
    server = Server(ORACLE, workers=2, port=0, warm=3)
    thread = _serve_in_thread(server)
    yield server
    server.request_shutdown()
    thread.join(timeout=30)
    assert not thread.is_alive()


@pytest.fixture()
def client(served):
    with ServeClient.open(served.address) as c:
        yield c


def _raw_conn(served):
    sock = socket.create_connection(served.address, timeout=10)
    sock.settimeout(10)
    return sock


# ---------------------------------------------------------------------------
# protocol helpers
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_frame_round_trip(self):
        payload = {"op": "query", "u": "0", "v": "1"}
        frame = encode_frame(payload)
        (length,) = struct.unpack("!I", frame[:4])
        assert length == len(frame) - 4
        assert decode_body(frame[4:]) == payload

    def test_infinity_rides_the_wire(self):
        frame = encode_frame(ok_response(float("inf")))
        assert result_of(decode_body(frame[4:])) == float("inf")

    def test_encode_rejects_oversized(self):
        with pytest.raises(ProtocolError) as err:
            encode_frame({"blob": "x" * 100}, max_frame=50)
        assert err.value.code == "oversized_frame"

    def test_parse_request_taxonomy(self):
        assert parse_request({"op": "ping"}) == ("ping", {})
        with pytest.raises(ProtocolError) as err:
            parse_request({"no": "op"})
        assert err.value.code == "malformed_frame"
        with pytest.raises(ProtocolError) as err:
            parse_request({"op": "frobnicate"})
        assert err.value.code == "unknown_op"

    def test_result_of_rebuilds_typed_errors(self):
        with pytest.raises(ProtocolError) as err:
            result_of(error_response("unknown_vertex", "no such vertex"))
        assert err.value.code == "unknown_vertex"

    def test_eof_mid_request_is_worker_crashed(self):
        """A worker owns its connections: its death reaches the client as
        EOF in the middle of a request, which the client library types."""
        listener = socket.create_server(("127.0.0.1", 0))
        with listener:
            def accept_read_and_die():
                conn, _ = listener.accept()
                conn.recv(4096)
                conn.close()

            peer = threading.Thread(target=accept_read_and_die, daemon=True)
            peer.start()
            with ServeClient.open(listener.getsockname(), timeout=10) as c:
                with pytest.raises(ProtocolError) as err:
                    c.query("0", "1")
            peer.join(timeout=10)
        assert err.value.code == "worker_crashed"

    def test_address_of(self):
        assert address_of("127.0.0.1:80") == ("127.0.0.1", 80)
        assert address_of("unix:/tmp/s.sock") == "/tmp/s.sock"
        with pytest.raises(ValueError):
            address_of("unix:")
        with pytest.raises(ValueError):
            address_of("no-port-here")


# ---------------------------------------------------------------------------
# shared-memory publish / attach
# ---------------------------------------------------------------------------
class TestShm:
    def test_attach_round_trips_the_oracle(self):
        share = publish_oracle(ORACLE)
        try:
            handle = attach_oracle(share.name)
            try:
                attached = handle.oracle
                assert attached.csr.n == ORACLE.csr.n
                assert list(attached.csr.verts) == list(ORACLE.csr.verts)
                assert attached.landmark_indices == ORACLE.landmark_indices
                got = attached.query_many(PAIRS)
                want = ORACLE.query_many(PAIRS)
                for g, w in zip(got, want):
                    assert g == pytest.approx(w, abs=1e-9)
            finally:
                handle.close()
        finally:
            share.unlink()

    def test_attached_arrays_are_views_not_copies(self):
        share = publish_oracle(ORACLE)
        try:
            handle = attach_oracle(share.name)
            try:
                csr = handle.oracle.csr
                assert isinstance(csr.indptr, memoryview)
                assert isinstance(csr.weights, memoryview)
                assert isinstance(handle.oracle.potentials[0], memoryview)
            finally:
                handle.close()
        finally:
            share.unlink()

    def test_attach_rejects_foreign_segment(self):
        from multiprocessing import shared_memory

        seg = shared_memory.SharedMemory(create=True, size=64)
        try:
            with pytest.raises(ValueError, match="magic"):
                attach_oracle(seg.name)
        finally:
            seg.close()
            seg.unlink()

    def test_shm_backed_oracle_still_pickles_self_contained(self):
        share = publish_oracle(ORACLE)
        try:
            handle = attach_oracle(share.name)
            try:
                clone = pickle.loads(pickle.dumps(handle.oracle))
            finally:
                handle.close()
        finally:
            share.unlink()
        # the segment is gone; the clone must answer from its own arrays
        for g, w in zip(clone.query_many(PAIRS), ORACLE.query_many(PAIRS)):
            assert g == pytest.approx(w, abs=1e-9)

    def test_worker_private_memory_is_a_fraction_of_a_copy(self, tmp_path):
        """The memory-footprint gate: a worker that *attaches* pays far
        less private memory than a worker holding its own *unpickled
        copy* — the array payload stays in shared pages.  (The label
        table is rebuilt privately either way, so the honest comparison
        is attach-vs-copy, not attach-vs-zero.)"""
        big_graph = erdos_renyi_graph(3000, 0.006, seed=5)
        big_oracle = build_oracle(big_graph, landmarks=6, seed=9)
        share = publish_oracle(big_oracle)
        pickled = tmp_path / "oracle.pkl"
        pickled.write_bytes(pickle.dumps(big_oracle))
        script = tmp_path / "residency_probe.py"
        script.write_text(textwrap.dedent("""\
            import json
            import pickle
            import sys

            from repro.serve import attach_oracle


            def private_bytes() -> int:
                total = 0
                with open("/proc/self/smaps_rollup") as fh:
                    for line in fh:
                        if line.startswith(("Private_Dirty:", "Private_Clean:")):
                            total += int(line.split()[1]) * 1024
                return total


            mode, source = sys.argv[1], sys.argv[2]
            before = private_bytes()
            if mode == "attach":
                handle = attach_oracle(source)
                oracle = handle.oracle
                payload = handle.payload_bytes
            else:
                with open(source, "rb") as fh:
                    oracle = pickle.loads(fh.read())
                payload = 0
            touched = (
                sum(oracle.csr.weights)
                + sum(oracle.csr.indptr)
                + sum(sum(p) for p in oracle.potentials)
                + float(oracle.query(0, 1))
            )
            after = private_bytes()
            print(json.dumps({
                "delta": after - before,
                "payload": payload,
                "touched": touched,
            }))
        """))

        def probe(mode, source):
            out = subprocess.run(
                [sys.executable, str(script), mode, source],
                capture_output=True, text=True, timeout=120,
                env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
            )
            assert out.returncode == 0, out.stderr
            return json.loads(out.stdout)

        try:
            attached = probe("attach", share.name)
            copied = probe("copy", str(pickled))
        finally:
            share.unlink()
        assert attached["payload"] > 500_000  # the gate must be meaningful
        # both probes touch every value and compute one query; only the
        # copy materializes the arrays as private Python objects
        assert attached["touched"] == pytest.approx(copied["touched"])
        assert attached["delta"] < 0.5 * copied["delta"], (attached, copied)
        # and the attach-side private cost stays below one payload even
        # counting the rebuilt label table
        assert attached["delta"] < attached["payload"], attached


# ---------------------------------------------------------------------------
# daemon ops
# ---------------------------------------------------------------------------
class TestDaemonOps:
    def test_ping_info_vertices(self, served, client):
        assert client.ping() is True
        info = client.info()
        assert info["n"] == ORACLE.csr.n
        assert info["workers"] == 2
        assert info["payload_bytes"] == served.payload_bytes > 0
        page = client.call("vertices", limit=5)
        assert page["n"] == ORACLE.csr.n
        assert len(page["vertices"]) == 5
        assert client.vertices(limit=5) == page["vertices"]

    def test_query_matches_direct_oracle_and_dijkstra(self, client):
        dist, _ = dijkstra(GRAPH, 0)
        for v in (1, 9, 140):
            served_d = client.query("0", str(v))
            assert served_d == pytest.approx(ORACLE.query(0, v), abs=1e-9)
            assert served_d == pytest.approx(
                dist.get(v, float("inf")), abs=1e-9
            )

    def test_query_many_matches_batch(self, client):
        got = client.query_many([[str(u), str(v)] for u, v in PAIRS])
        for g, w in zip(got, ORACLE.query_many(PAIRS)):
            assert g == pytest.approx(w, abs=1e-9)

    def test_k_nearest_matches(self, client):
        got = client.k_nearest("7", k=4)
        want = ORACLE.k_nearest(7, 4)
        assert [u for u, _ in got] == [str(u) for u, _ in want]
        for (_, gd), (_, wd) in zip(got, want):
            assert gd == pytest.approx(wd, abs=1e-9)

    def test_unknown_vertex_is_typed(self, client):
        with pytest.raises(ProtocolError) as err:
            client.query("0", "nope")
        assert err.value.code == "unknown_vertex"

    def test_bad_request_is_typed(self, client):
        with pytest.raises(ProtocolError) as err:
            client.call("query", u="0")  # v missing
        assert err.value.code == "bad_request"
        with pytest.raises(ProtocolError) as err:
            client.call("k_nearest", v="0", k="three")
        assert err.value.code == "bad_request"

    def test_stats_merges_worker_registries(self, served, client):
        before = client.stats()["snapshot"].get(
            "serve.worker.requests", {}
        ).get("value", 0)
        for u, v in PAIRS:
            client.query(str(u), str(v))
        stats = client.stats()
        assert stats["workers"] == 2
        after = stats["snapshot"]["serve.worker.requests"]["value"]
        # every compute op landed on exactly one worker; the merged
        # total counts them all (stats itself is answered by fan-out)
        assert after - before >= len(PAIRS)
        assert len(stats["caches"]) == 2


# ---------------------------------------------------------------------------
# robustness: the typed failure taxonomy, end to end
# ---------------------------------------------------------------------------
class TestRobustness:
    def test_malformed_frame_keeps_the_connection(self, served):
        sock = _raw_conn(served)
        try:
            body = b"this is not json"
            sock.sendall(struct.pack("!I", len(body)) + body)
            reply = read_frame(sock)
            assert reply["error"]["code"] == "malformed_frame"
            # the framing was intact, so the connection still serves
            sock.sendall(encode_frame({"op": "ping"}))
            assert result_of(read_frame(sock))["pong"] is True
        finally:
            sock.close()

    def test_non_object_json_is_malformed(self, served):
        sock = _raw_conn(served)
        try:
            body = json.dumps([1, 2, 3]).encode()
            sock.sendall(struct.pack("!I", len(body)) + body)
            assert read_frame(sock)["error"]["code"] == "malformed_frame"
        finally:
            sock.close()

    def test_oversized_frame_answers_then_closes(self, served):
        sock = _raw_conn(served)
        try:
            sock.sendall(struct.pack("!I", DEFAULT_MAX_FRAME + 1))
            reply = read_frame(sock)
            assert reply["error"]["code"] == "oversized_frame"
            # the stream position is unrecoverable: the daemon closes
            with pytest.raises(ConnectionClosed):
                read_frame(sock)
        finally:
            sock.close()

    def test_client_disconnect_mid_request_never_wedges(self, served):
        for _ in range(3):
            sock = _raw_conn(served)
            sock.sendall(encode_frame({"op": "query", "u": "0", "v": "9"}))
            sock.close()  # gone before the answer comes back
        # the daemon must still be fully alive for everyone else
        with ServeClient.open(served.address) as c:
            assert c.ping() is True
            assert c.query("0", "9") == pytest.approx(
                ORACLE.query(0, 9), abs=1e-9
            )

    def test_partial_frame_then_eof_is_harmless(self, served):
        sock = _raw_conn(served)
        sock.sendall(b"\x00\x00")  # half a length prefix
        sock.close()
        with ServeClient.open(served.address) as c:
            assert c.ping() is True


# ---------------------------------------------------------------------------
# liveness: hostile clients and stopped workers never stall anyone else
# ---------------------------------------------------------------------------
FLOOD_GRAPH = erdos_renyi_graph(2000, 0.004, seed=1)
FLOOD_ORACLE = build_oracle(FLOOD_GRAPH, landmarks=4, seed=1)


@pytest.fixture(scope="module")
def flood_served():
    """A one-worker daemon over ER(2000, 0.004): a ``k_nearest`` answer
    with k=2000 is ~50 KB, so a client that does not read fills every
    socket buffer between it and the worker within a few dozen frames."""
    server = Server(FLOOD_ORACLE, workers=1, port=0)
    thread = _serve_in_thread(server)
    yield server
    server.request_shutdown()
    thread.join(timeout=30)
    assert not thread.is_alive()


def _timed_ping(address):
    with ServeClient.open(address, timeout=5) as c:
        t0 = time.monotonic()
        assert c.ping() is True
        return time.monotonic() - t0


class TestLiveness:
    def test_unread_pipelined_flood_never_blocks_a_ping(self, flood_served):
        """The relay daemon deadlocked here: its loop blocked writing to a
        worker whose own writes back were blocked, so this ping timed out."""
        frames = 3000
        frame = encode_frame({"op": "k_nearest", "v": "0", "k": 2000})
        flood = _raw_conn(flood_served)
        sender = threading.Thread(
            target=flood.sendall, args=(frame * frames,), daemon=True
        )
        sender.start()
        try:
            time.sleep(0.5)  # the flood is in place, nobody reads it
            assert _timed_ping(flood_served.address) < 1.0
            # once the flooder reads, every frame ends in an answer or in
            # ``overloaded`` — none is lost, and answers stay exact.  One
            # connection never holds more parsed frames than its cap (the
            # rest wait in TCP's buffers), so here every frame is answered
            want = FLOOD_ORACLE.k_nearest(0, 2000)
            codes = Counter()
            flood.settimeout(60)
            for _ in range(frames):
                reply = read_frame(flood)
                if reply["ok"]:
                    got = reply["result"]["nearest"]
                    assert [u for u, _ in got] == [str(u) for u, _ in want]
                    codes["ok"] += 1
                else:
                    codes[reply["error"]["code"]] += 1
            sender.join(timeout=30)
            assert not sender.is_alive()
        finally:
            flood.close()
        assert codes == Counter(ok=frames), codes

    def test_slow_reader_never_stalls_other_clients(self, flood_served):
        frames = 64  # within the in-flight cap: every one is answered
        slow = _raw_conn(flood_served)
        slow.sendall(
            encode_frame({"op": "k_nearest", "v": "0", "k": 2000}) * frames
        )
        answers = []

        def read_slowly():
            for _ in range(frames):
                answers.append(read_frame(slow))
                time.sleep(0.02)

        reader = threading.Thread(target=read_slowly, daemon=True)
        reader.start()
        try:
            latencies = []
            with ServeClient.open(flood_served.address, timeout=5) as c:
                for u, v in [(0, 9), (1, 1500), (7, 1999)] * 10:
                    t0 = time.monotonic()
                    c.query(str(u), str(v))
                    latencies.append(time.monotonic() - t0)
            assert max(latencies) < 1.0
            reader.join(timeout=60)
            assert not reader.is_alive()
        finally:
            slow.close()
        assert len(answers) == frames
        assert all(a["ok"] for a in answers)

    def test_half_closed_client_still_gets_its_answer(self, served):
        sock = _raw_conn(served)
        try:
            sock.sendall(encode_frame({"op": "query", "u": "0", "v": "9"}))
            sock.shutdown(socket.SHUT_WR)
            assert result_of(read_frame(sock))["distance"] == pytest.approx(
                ORACLE.query(0, 9), abs=1e-9
            )
            with pytest.raises(ConnectionClosed):
                read_frame(sock)  # answered, then closed cleanly
        finally:
            sock.close()

    def test_stopped_worker_does_not_stop_new_connections(self):
        before = set(_children(os.getpid()))
        server = Server(ORACLE, workers=2, port=0)
        thread = _serve_in_thread(server)
        workers = sorted(set(_children(os.getpid())) - before)
        assert len(workers) == 2
        os.kill(workers[0], signal.SIGSTOP)
        try:
            for u, v in PAIRS[:8]:
                with ServeClient.open(server.address, timeout=5) as c:
                    assert c.query(str(u), str(v)) == pytest.approx(
                        ORACLE.query(u, v), abs=1e-9
                    )
            # stats waits a bounded time for the stopped worker, then
            # answers with the snapshots it has
            with ServeClient.open(server.address, timeout=30) as c:
                assert c.stats()["workers"] == 1
        finally:
            os.kill(workers[0], signal.SIGCONT)
            server.request_shutdown()
            thread.join(timeout=30)
        assert not thread.is_alive()

    def test_pipelining_clients_on_more_workers_than_cores(self):
        """Stress: three workers, twelve threads of short-lived
        connections that pipeline up to 99 queries, a fifth of them
        hanging up before reading.  Every frame of these moderate
        pipelines is answered, exactly; every frame a reading client
        sent is parsed once (a hung-up one's may stay unread past the
        in-flight cap), and no in-flight count is lost (only the stats
        request itself is in flight when it is snapshotted)."""
        server = Server(ORACLE, workers=3, port=0)
        thread = _serve_in_thread(server)
        bad, sent, read = [], [0] * 12, [0] * 12

        def client(slot):
            rng = random.Random(slot)
            for _ in range(20):
                pairs = [(rng.randrange(150), rng.randrange(150))
                         for _ in range(rng.randrange(1, 100))]
                sent[slot] += len(pairs)
                with _raw_conn(server) as sock:
                    sock.sendall(b"".join(
                        encode_frame({"op": "query", "u": str(u), "v": str(v)})
                        for u, v in pairs
                    ))
                    if rng.random() < 0.2:
                        continue  # gone before any answer
                    read[slot] += len(pairs)
                    for u, v in pairs:
                        reply = read_frame(sock)
                        if not reply["ok"] or reply["result"]["distance"] != (
                            pytest.approx(ORACLE.query(u, v), abs=1e-9)
                        ):
                            bad.append((u, v, reply))

        def run_client(slot):
            try:
                client(slot)
            except Exception as exc:  # noqa: BLE001 - reported by the assert below
                bad.append((slot, repr(exc)))

        try:
            threads = [threading.Thread(target=run_client, args=(i,)) for i in range(12)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            with ServeClient.open(server.address) as c:
                stats = c.stats()
        finally:
            server.request_shutdown()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert bad == []
        snap = stats["snapshot"]
        assert stats["workers"] == 3
        parsed = snap["serve.requests.total"]["value"]
        assert sum(read) + 1 <= parsed <= sum(sent) + 1
        assert snap["serve.stage.parse"]["count"] == parsed
        assert snap["serve.requests.inflight"]["value"] == 1
        assert "serve.workers.crashed" not in snap
        assert "serve.errors.overloaded" not in snap

    def test_saturated_worker_answers_overloaded_in_order(self):
        """A worker holding MAX_WORKER_INFLIGHT requests over all its
        clients answers the next frames ``overloaded`` at once.  Twenty
        connections each put 64 queries in while the worker is stopped;
        it wakes to 1280 frames and can answer only 8 per connection
        before parsing the rest, so at least 96 are shed.  Each
        connection still gets one answer per frame, in order."""
        before = set(_children(os.getpid()))
        server = Server(ORACLE, workers=1, port=0)
        thread = _serve_in_thread(server)
        (worker,) = set(_children(os.getpid())) - before
        socks = [_raw_conn(server) for _ in range(20)]
        pipeline = (PAIRS * 4)[:64]
        try:
            for sock in socks:  # accepted before the worker stops
                sock.sendall(encode_frame({"op": "ping"}))
                assert read_frame(sock)["ok"]
            os.kill(worker, signal.SIGSTOP)
            try:
                for sock in socks:
                    sock.sendall(b"".join(
                        encode_frame({"op": "query", "u": str(u), "v": str(v)})
                        for u, v in pipeline
                    ))
            finally:
                os.kill(worker, signal.SIGCONT)
            codes = Counter()
            for sock in socks:
                for u, v in pipeline:
                    reply = read_frame(sock)
                    if reply["ok"]:
                        assert reply["result"]["distance"] == pytest.approx(
                            ORACLE.query(u, v), abs=1e-9
                        )
                        codes["ok"] += 1
                    else:
                        codes[reply["error"]["code"]] += 1
            with ServeClient.open(server.address) as c:
                assert c.ping() is True
                snap = c.stats()["snapshot"]
        finally:
            for sock in socks:
                sock.close()
            server.request_shutdown()
            thread.join(timeout=30)
        assert set(codes) == {"ok", "overloaded"}, codes
        assert codes["overloaded"] >= 20 * 64 - 1024 - 20 * 8
        assert snap["serve.errors.overloaded"]["value"] == codes["overloaded"]


# ---------------------------------------------------------------------------
# crash isolation and lifecycle
# ---------------------------------------------------------------------------
def _await_respawn(address, timeout=30.0):
    """The first ``stats`` (each on a new connection, since the asking
    one may belong to the killed worker) that shows a crash and its
    respawn."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with ServeClient.open(address, timeout=10) as c:
                stats = c.stats()
        except ProtocolError as err:
            assert err.code == "worker_crashed"
            continue
        snap = stats["snapshot"]
        crashed = snap.get("serve.workers.crashed", {"value": 0})["value"]
        respawned = snap.get("serve.workers.respawned", {"value": 0})["value"]
        if crashed >= 1 and respawned >= 1:
            return stats
        time.sleep(0.05)
    raise AssertionError("no crash and respawn within the timeout")


class TestLifecycle:
    def test_worker_crash_respawns_and_service_continues(self):
        server = Server(ORACLE, workers=2, port=0)
        thread = _serve_in_thread(server)
        try:
            with ServeClient.open(server.address) as c:
                try:
                    assert c.crash_worker(worker=0) == 0
                except ProtocolError as err:
                    # this connection was worker 0's own: it died with it
                    assert err.code == "worker_crashed"
            stats = _await_respawn(server.address)
            assert stats["workers"] == 2
            assert len(stats["caches"]) == 2
            with ServeClient.open(server.address) as c:
                assert c.info()["workers"] == 2
                for u, v in PAIRS:
                    assert c.query(str(u), str(v)) == pytest.approx(
                        ORACLE.query(u, v), abs=1e-9
                    )
        finally:
            server.request_shutdown()
            thread.join(timeout=30)
            assert not thread.is_alive()

    def test_shutdown_op_stops_the_daemon(self):
        server = Server(ORACLE, workers=1, port=0)
        thread = _serve_in_thread(server)
        address = server.address
        with ServeClient.open(address) as c:
            c.shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=2)

    def test_unix_socket_serving(self, tmp_path):
        path = str(tmp_path / "serve.sock")
        server = Server(ORACLE, workers=1, unix_path=path)
        thread = _serve_in_thread(server)
        try:
            assert server.address == path
            with ServeClient.open(path) as c:
                assert c.ping() is True
                assert c.query("0", "1") == pytest.approx(
                    ORACLE.query(0, 1), abs=1e-9
                )
        finally:
            server.request_shutdown()
            thread.join(timeout=30)
        assert not Path(path).exists()  # stale socket files are removed

    def test_close_is_idempotent(self):
        server = Server(ORACLE, workers=1, port=0)
        thread = _serve_in_thread(server)
        server.request_shutdown()
        thread.join(timeout=30)
        server.close()
        server.close()


# ---------------------------------------------------------------------------
# the `repro serve` process: signals, crash safety, topology
# ---------------------------------------------------------------------------
def _children(pid):
    with open(f"/proc/{pid}/task/{pid}/children") as fh:
        return sorted(int(k) for k in fh.read().split())


def _cmdline(pid):
    with open(f"/proc/{pid}/cmdline", "rb") as fh:
        return fh.read().replace(b"\0", b" ").decode()


def _gone(pids, timeout=10.0):
    """Whether every pid has exited (zombies count as exited)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        alive = []
        for pid in pids:
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    state = fh.read().rsplit(")", 1)[1].split()[0]
            except OSError:
                continue
            if state != "Z":
                alive.append(pid)
        if not alive:
            return True
        time.sleep(0.05)
    return False


class TestServeProcess:
    """``repro serve`` as a supervisor sees it: a parent and its workers."""

    @pytest.fixture()
    def launch(self, tmp_path):
        structure = tmp_path / "structure.json"
        write_json(GRAPH, structure)
        procs = []

        def start(workers):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--structure", str(structure), "--workers", str(workers),
                 "--landmarks", "4", "--port", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                env={**os.environ, "PYTHONPATH": str(REPO_SRC),
                     "PYTHONUNBUFFERED": "1"},
                start_new_session=True,
            )
            procs.append(proc)
            lines = []
            for line in proc.stdout:
                lines.append(line)
                if line.startswith("READY "):
                    fields = dict(
                        p.split("=", 1) for p in line.split()[1:] if "=" in p
                    )
                    return proc, address_of(fields["address"])
            raise AssertionError("daemon exited before READY:\n" + "".join(lines))

        yield start
        for proc in procs:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except OSError:
                pass
            proc.wait(timeout=10)
            proc.stdout.close()

    def test_sigterm_right_after_ready_exits_cleanly(self, launch):
        shm_before = set(os.listdir("/dev/shm"))
        proc, _ = launch(workers=1)
        proc.send_signal(signal.SIGTERM)
        rest = proc.stdout.read()
        assert proc.wait(timeout=30) == 0, rest
        assert "daemon stopped" in rest
        assert set(os.listdir("/dev/shm")) == shm_before

    def test_sigkill_of_the_whole_group_leaves_no_segment(self, launch):
        shm_before = set(os.listdir("/dev/shm"))
        proc, _ = launch(workers=2)
        group = [proc.pid, *_children(proc.pid)]
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
        assert _gone(group)
        assert set(os.listdir("/dev/shm")) == shm_before

    def test_process_group_is_parent_plus_workers(self, launch):
        proc, address = launch(workers=2)
        workers = _children(proc.pid)
        assert len(workers) == 2
        assert not any("resource_tracker" in _cmdline(pid) for pid in workers)
        with ServeClient.open(address) as c:
            try:
                c.crash_worker(worker=0)
            except ProtocolError as err:
                assert err.code == "worker_crashed"
        _await_respawn(address)
        with ServeClient.open(address) as c:
            assert c.query("0", "1") == pytest.approx(
                ORACLE.query(0, 1), abs=1e-9
            )
        respawned = _children(proc.pid)
        assert len(respawned) == 2
        assert respawned != workers
        assert not any("resource_tracker" in _cmdline(pid) for pid in respawned)

    def test_sigkill_of_the_parent_alone_stops_every_worker(self, launch):
        """Workers see the supervisor's death as EOF on their control
        socket — which only holds when each child closed every inherited
        descriptor but its own (a sibling's control end would keep the
        supervisor's side open)."""
        shm_before = set(os.listdir("/dev/shm"))
        proc, address = launch(workers=2)
        workers = _children(proc.pid)
        assert len(workers) == 2
        with ServeClient.open(address) as c:
            assert c.ping() is True
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
        assert _gone(workers, timeout=5.0)
        assert set(os.listdir("/dev/shm")) == shm_before


# ---------------------------------------------------------------------------
# observability: per-stage histograms and gauges, merged across workers
# ---------------------------------------------------------------------------
STAGES = ("read", "parse", "compute", "encode", "flush")


class TestStageMetrics:
    def test_stage_histograms_and_gauges_add_up_across_workers(self):
        server = Server(ORACLE, workers=2, port=0)
        thread = _serve_in_thread(server)
        try:
            clients = [ServeClient.open(server.address) for _ in range(4)]
            try:
                for c in clients:
                    for u, v in PAIRS:
                        c.query(str(u), str(v))
                stats = clients[0].stats()
            finally:
                for c in clients:
                    c.close()
        finally:
            server.request_shutdown()
            thread.join(timeout=30)
        queries = 4 * len(PAIRS)
        snap = stats["snapshot"]
        for stage in STAGES:
            assert snap[f"serve.stage.{stage}"]["type"] == "histogram"
        # every frame was parsed once, by whichever worker held its
        # connection; the merged counts are the daemon-wide totals
        assert snap["serve.requests.total"]["value"] == queries + 1
        assert snap["serve.stage.parse"]["count"] == queries + 1
        # stats is answered by the supervisor, after the snapshot
        assert snap["serve.stage.compute"]["count"] == queries
        assert snap["serve.stage.encode"]["count"] == queries
        assert snap["serve.stage.flush"]["count"] >= queries
        assert snap["serve.stage.read"]["count"] >= queries + 1
        # each worker counts the queries it answered plus its stats part
        assert snap["serve.worker.requests"]["value"] == queries + 2
        assert stats["workers"] == 2
        assert snap["serve.clients.open"]["type"] == "gauge"
        assert 1 <= snap["serve.clients.open"]["max"] <= 4
        # the stats request itself is in flight when it is snapshotted
        assert snap["serve.requests.inflight"]["value"] == 1


class TestThroughput:
    @pytest.mark.parametrize("concurrency", [2, 4])
    def test_closed_loop_clients_spread_over_both_workers(self, concurrency):
        """A worker holding more clients than another leaves a new
        connection to that one, so a closed loop's connections land on
        both workers of a workers=2 daemon, and both answer queries."""
        server = Server(ORACLE, workers=2, port=0)
        thread = _serve_in_thread(server)
        try:
            pairs = [(str(u), str(v)) for u, v in PAIRS] * 4
            level, _ = run_closed_level(server.address, pairs, concurrency)
            assert level.failures == 0
            with ServeClient.open(server.address) as c:
                caches = c.stats()["caches"]
        finally:
            server.request_shutdown()
            thread.join(timeout=30)
        lookups = [w["cache"]["hits"] + w["cache"]["misses"] for w in caches]
        assert len(lookups) == 2 and min(lookups) > 0, lookups
        assert sum(lookups) == len(pairs)

    def test_two_workers_keep_single_worker_throughput(self):
        """No-collapse bar: at smoke size a workers=2 daemon keeps at
        least 0.7x the closed-loop qps of workers=1.  Nothing is
        pinned.  Two clients, one per worker once they spread: more
        client threads in this one process mostly measure their own
        contention for the interpreter lock on a small host.  Best of
        five interleaved rounds each, so a passing slowdown on the
        host hits both sides.
        """
        profile = get_profile("slt-er")
        _graph, structure, _, _ = build_profile_structure(profile, "smoke")
        mix = QUERY_MIXES["smoke"]
        raw_pairs, _sources = build_query_mix(structure, mix, profile.seed)
        pairs = [(str(u), str(v)) for u, v in raw_pairs]
        oracle = build_oracle(structure, landmarks=mix.landmarks, seed=profile.seed)
        servers, threads = {}, []
        best = {1: 0.0, 2: 0.0}
        try:
            for workers in (1, 2):
                servers[workers] = Server(oracle, workers=workers, port=0, warm=2)
                threads.append(_serve_in_thread(servers[workers]))
            for round_ in range(5):
                for workers in ((1, 2) if round_ % 2 == 0 else (2, 1)):
                    level, _ = run_closed_level(
                        servers[workers].address, pairs, 2, repeats=8
                    )
                    assert level.failures == 0
                    best[workers] = max(best[workers], level.qps)
        finally:
            for server in servers.values():
                server.request_shutdown()
            for thread in threads:
                thread.join(timeout=30)
        assert best[2] >= 0.7 * best[1], best


# ---------------------------------------------------------------------------
# workers=N == workers=1 == Dijkstra
# ---------------------------------------------------------------------------
class TestMultiWorkerCorrectness:
    def test_answers_agree_across_worker_counts(self):
        verify_oracle(GRAPH, ORACLE, pairs=20, seed=3)
        pairs = [(str(u), str(v)) for u, v in PAIRS] * 3
        answers = {}
        for workers in (1, 2):
            server = Server(ORACLE, workers=workers, port=0)
            thread = _serve_in_thread(server)
            try:
                _, got = run_closed_level(
                    server.address, pairs, concurrency=2,
                    collect_answers=True,
                )
            finally:
                server.request_shutdown()
                thread.join(timeout=30)
            answers[workers] = sorted(got)
        assert answers[1] == answers[2]
        dist_cache = {}
        for u, v, d in answers[2]:
            if u not in dist_cache:
                dist_cache[u] = dijkstra(GRAPH, int(u))[0]
            assert d == pytest.approx(
                dist_cache[u].get(int(v), float("inf")), abs=1e-9
            )
