"""Multi-worker oracle serving daemon over one shared-memory segment.

Architecture — one parent event loop, N compute workers::

    clients ── TCP / unix socket ──▶ parent (selectors loop)
                                        │  per-worker socketpair
                                        ▼
                       worker 0 … worker N-1  (plain interpreters)
                                        ▲
                one shared segment ─────┘  (repro.serve.shm, by fd)

The daemon's processes are exactly the parent and its N workers.  Each
worker is a ``subprocess.Popen`` interpreter that imports only the
serving path; it inherits two descriptors — the oracle segment, whose
``/dev/shm`` name the parent has already removed, and its end of a
``socket.socketpair()`` that both sides wrap in
:class:`multiprocessing.connection.Connection` for pickled messages.

The parent owns every client connection and never computes a distance;
workers never touch a client socket.  That split is what makes crash
isolation *answerable*: when a worker dies, its socket reads EOF in the
same selector that watches the clients, and the parent still holds the
client connections of the requests that died with it, answers each
with a typed ``worker_crashed`` error, and respawns the worker over
the same segment descriptor — the daemon as a whole never hangs and
never drops a connection because of a worker failure.

Requests are dispatched to the live worker with the fewest outstanding
requests; ``stats`` fans out to every worker and folds the per-worker
:class:`~repro.obs.metrics.MetricsRegistry` snapshots into the parent's
registry via the existing ``snapshot()/merge()`` contract, so the
merged counters equal a single-worker run's exactly.

Robustness contract (regression-tested): malformed frames are answered
``malformed_frame`` on a connection that stays usable; an oversized
length prefix is answered ``oversized_frame`` and the connection is
closed (the stream position is unrecoverable); a client that
disconnects mid-request is dropped with a metrics counter and the
worker's eventual answer is discarded — no traceback ever reaches
stderr, no worker is ever left stuck.
"""

from __future__ import annotations

import os
import random
import selectors
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from multiprocessing.connection import Connection
from typing import Any, Dict, List, Optional, Set

from repro.obs.metrics import MetricsRegistry
from repro.oracle.oracle import DistanceOracle
from repro.serve import protocol
from repro.serve.protocol import Address
from repro.serve.shm import OracleShare, attach_fd, publish_oracle

DEFAULT_WORKERS = 2
DEFAULT_HOST = "127.0.0.1"
#: how long start() waits for every worker's ready message
DEFAULT_READY_TIMEOUT = 60.0

_LEN = struct.Struct("!I")

#: the ``src`` directory this module was loaded from; a worker puts it
#: first on ``sys.path`` so it runs the parent's code
_SRC_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
#: a worker interpreter's whole program; argv is the src root, then the
#: worker id, segment fd, socket fd and warm count
_WORKER_BOOT = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from repro.serve.daemon import worker_main; "
    "worker_main(*map(int, sys.argv[2:]))"
)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _execute(
    op: str,
    args: Dict[str, Any],
    oracle: DistanceOracle,
    by_name: Dict[str, Any],
    registry: MetricsRegistry,
    worker_id: int,
) -> Dict[str, Any]:
    """Run one dispatched op; always returns a response envelope."""

    def resolve(label: Any, field: str) -> Any:
        if not isinstance(label, str):
            raise protocol.ProtocolError(
                "bad_request", f"{op} needs a string {field!r} field"
            )
        try:
            return by_name[label]
        except KeyError:
            raise protocol.ProtocolError(
                "unknown_vertex",
                f"{label!r} is not a vertex of the served structure",
            ) from None

    try:
        registry.counter("serve.worker.requests").inc()
        if op == "query":
            u = resolve(args.get("u"), "u")
            v = resolve(args.get("v"), "v")
            return protocol.ok_response({"distance": oracle.query(u, v)})
        if op == "query_many":
            pairs = args.get("pairs")
            if not isinstance(pairs, list):
                raise protocol.ProtocolError(
                    "bad_request", "query_many needs a 'pairs' list of [u, v]"
                )
            resolved = []
            for pair in pairs:
                if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                    raise protocol.ProtocolError(
                        "bad_request", f"pair {pair!r} is not a [u, v] pair"
                    )
                resolved.append(
                    (resolve(pair[0], "pairs[0]"), resolve(pair[1], "pairs[1]"))
                )
            return protocol.ok_response(
                {"distances": oracle.query_many(resolved)}
            )
        if op == "k_nearest":
            v = resolve(args.get("v"), "v")
            k = args.get("k")
            if not isinstance(k, int) or isinstance(k, bool) or k < 1:
                raise protocol.ProtocolError(
                    "bad_request", f"k_nearest needs an int k >= 1, got {k!r}"
                )
            near = oracle.k_nearest(v, k)
            return protocol.ok_response(
                {"nearest": [[str(u), d] for u, d in near]}
            )
        if op == "stats":
            merged = MetricsRegistry()
            merged.merge(registry.snapshot())
            merged.merge(oracle.metrics.snapshot())
            return protocol.ok_response(
                {
                    "worker": worker_id,
                    "snapshot": merged.snapshot(),
                    "cache": oracle.cache_info(),
                }
            )
        raise protocol.ProtocolError(
            "bad_request", f"op {op!r} is not dispatchable to a worker"
        )
    except protocol.ProtocolError as exc:
        registry.counter("serve.worker.errors").inc()
        return protocol.error_response(exc.code, exc.message)
    except ValueError as exc:
        registry.counter("serve.worker.errors").inc()
        return protocol.error_response("bad_request", str(exc))
    except Exception as exc:  # noqa: BLE001 - the wire gets a typed error
        registry.counter("serve.worker.errors").inc()
        return protocol.error_response(
            "internal", f"{type(exc).__name__}: {exc}"
        )


def worker_main(worker_id: int, shm_fd: int, conn_fd: int, warm: int) -> None:
    """Entry point of one serving worker (its own interpreter).

    Maps the oracle segment inherited on ``shm_fd`` (zero-copy),
    optionally warms the scratch arrays and cache with ``warm`` seeded
    self-queries, reports ready, then answers ``(req_id, op, args)``
    messages from the parent on the socket ``conn_fd`` until told to
    exit or the socket closes.  All state is local to the process: a
    private metrics registry, the label-resolution dict, and the
    attached oracle — nothing global is written.
    """
    # the parent handles SIGINT for the whole process group; a worker
    # interrupted mid-recv would otherwise die with a KeyboardInterrupt
    # traceback instead of exiting through the socket protocol
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    conn = Connection(conn_fd)
    handle = attach_fd(shm_fd)
    os.close(shm_fd)
    oracle = handle.oracle
    assert oracle is not None
    registry = MetricsRegistry()
    by_name = {str(v): v for v in oracle.csr.verts}
    if warm > 0:
        rng = random.Random(oracle.seed * 1_000_003 + worker_id)
        verts = oracle.csr.verts
        for _ in range(warm):
            u = verts[rng.randrange(len(verts))]
            v = verts[rng.randrange(len(verts))]
            oracle.query(u, v)
    conn.send((-1, {"ready": worker_id, "pid": os.getpid()}))
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            req_id, op, args = message
            if op == "exit":
                break
            conn.send(
                (req_id, _execute(op, args, oracle, by_name, registry, worker_id))
            )
    except (BrokenPipeError, OSError):  # pragma: no cover - parent vanished
        pass
    finally:
        del oracle, by_name
        handle.close()
        conn.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class _Worker:
    """Parent-side record of one worker process."""

    __slots__ = ("worker_id", "proc", "conn", "outstanding", "alive")

    def __init__(
        self, worker_id: int, proc: subprocess.Popen, conn: Connection
    ) -> None:
        self.worker_id = worker_id
        self.proc = proc
        self.conn = conn
        self.outstanding: Set[int] = set()
        self.alive = True


class _Client:
    """Parent-side record of one client connection."""

    __slots__ = ("sock", "fd", "rbuf", "wbuf", "closing", "inflight")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.fd = sock.fileno()
        self.rbuf = bytearray()
        self.wbuf = bytearray()
        self.closing = False  # close once wbuf drains (oversized frame)
        self.inflight: Set[int] = set()


class _Request:
    """One in-flight request: who asked, who is computing it."""

    __slots__ = ("req_id", "client_fd", "op", "worker_ids", "parts")

    def __init__(self, req_id: int, client_fd: int, op: str) -> None:
        self.req_id = req_id
        self.client_fd = client_fd
        self.op = op
        self.worker_ids: Set[int] = set()
        self.parts: List[Dict[str, Any]] = []


class Server:
    """The serving daemon: shared-memory publish + N workers + event loop.

    Build the oracle first (:meth:`DistanceOracle.build`), then::

        server = Server(oracle, workers=4, port=0)
        server.start()            # publish shm, spawn workers, bind
        server.serve_forever()    # blocks; request_shutdown() stops it

    ``port=0`` binds an ephemeral TCP port (read it back from
    ``server.address``); ``unix_path`` serves a unix-domain socket
    instead.  :meth:`serve_forever` tears everything down on exit —
    in-flight requests are answered ``shutting_down``, workers are told
    to exit and joined (killed if they won't), and the shared segment
    is unlinked; the teardown runs on the failure path too.
    """

    def __init__(
        self,
        oracle: DistanceOracle,
        workers: int = DEFAULT_WORKERS,
        host: str = DEFAULT_HOST,
        port: int = 0,
        unix_path: Optional[str] = None,
        warm: int = 0,
        max_frame: int = protocol.DEFAULT_MAX_FRAME,
        respawn: bool = True,
        ready_timeout: float = DEFAULT_READY_TIMEOUT,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.oracle = oracle
        self.workers = workers
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.warm = warm
        self.max_frame = max_frame
        self.respawn = respawn
        self.ready_timeout = ready_timeout
        self.metrics = MetricsRegistry()
        self._share: Optional[OracleShare] = None
        self._workers: Dict[int, _Worker] = {}
        self._clients: Dict[int, _Client] = {}
        self._requests: Dict[int, _Request] = {}
        self._next_req = 0
        self._listener: Optional[socket.socket] = None
        self._sel: Optional[selectors.BaseSelector] = None
        self._wake_r: Optional[socket.socket] = None
        self._wake_w: Optional[socket.socket] = None
        self._stop = threading.Event()
        self._closed = False
        self._started_at = 0.0

    # -- lifecycle -----------------------------------------------------
    @property
    def address(self) -> Address:
        """The bound address (``(host, port)`` or the unix socket path)."""
        if self.unix_path is not None:
            return self.unix_path
        if self._listener is None:
            return (self.host, self.port)
        bound = self._listener.getsockname()
        return (bound[0], bound[1])

    @property
    def payload_bytes(self) -> int:
        """Size of the published shared segment (0 before :meth:`start`)."""
        return self._share.payload_bytes if self._share is not None else 0

    def _spawn_worker(self, worker_id: int) -> _Worker:
        assert self._share is not None
        shm_fd = self._share.fd
        parent_sock, child_sock = socket.socketpair()
        with child_sock:
            proc = subprocess.Popen(
                [sys.executable, "-c", _WORKER_BOOT, _SRC_ROOT, str(worker_id),
                 str(shm_fd), str(child_sock.fileno()), str(self.warm)],
                stdin=subprocess.DEVNULL,
                pass_fds=(shm_fd, child_sock.fileno()),
            )
        worker = _Worker(worker_id, proc, Connection(parent_sock.detach()))
        self._workers[worker_id] = worker
        self.metrics.counter("serve.workers.spawned").inc()
        if self._sel is not None:
            self._register_worker(worker)
        return worker

    def _register_worker(self, worker: _Worker) -> None:
        assert self._sel is not None
        self._sel.register(
            worker.conn, selectors.EVENT_READ, ("worker", worker.worker_id)
        )

    def start(self) -> None:
        """Publish the segment, spawn workers, wait ready, bind the socket.

        The segment's ``/dev/shm`` name is removed as soon as it is
        written: workers inherit its descriptor, so no crash of any
        process can leave it behind.

        Raises
        ------
        RuntimeError
            When a worker fails to report ready within ``ready_timeout``.
        """
        self._share = publish_oracle(self.oracle)
        self._share.unlink_name()
        self._started_at = time.monotonic()
        try:
            for worker_id in range(self.workers):
                self._spawn_worker(worker_id)
            deadline = time.monotonic() + self.ready_timeout
            for worker in self._workers.values():
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not worker.conn.poll(remaining):
                    raise RuntimeError(
                        f"worker {worker.worker_id} not ready within "
                        f"{self.ready_timeout:.0f}s"
                    )
                try:
                    tag, info = worker.conn.recv()
                except (EOFError, OSError):
                    raise RuntimeError(
                        f"worker {worker.worker_id} died during startup"
                    ) from None
                if tag != -1 or not isinstance(info, dict) or "ready" not in info:
                    raise RuntimeError(
                        f"worker {worker.worker_id} sent {info!r} instead of ready"
                    )
            if self.unix_path is not None:
                try:
                    os.unlink(self.unix_path)
                except FileNotFoundError:
                    pass
                listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                listener.bind(self.unix_path)
            else:
                listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                listener.bind((self.host, self.port))
            listener.listen(128)
            listener.setblocking(False)
            self._listener = listener
            self._sel = selectors.DefaultSelector()
            self._sel.register(listener, selectors.EVENT_READ, ("listener", None))
            for worker in self._workers.values():
                self._register_worker(worker)
            self._wake_r, self._wake_w = socket.socketpair()
            self._wake_r.setblocking(False)
            self._sel.register(self._wake_r, selectors.EVENT_READ, ("wake", None))
        except BaseException:
            self.close()
            raise

    def request_shutdown(self) -> None:
        """Ask the loop to stop (thread- and signal-safe)."""
        self._stop.set()
        wake = self._wake_w
        if wake is not None:
            try:
                wake.send(b"x")
            except OSError:  # pragma: no cover - already closed
                pass

    # -- event loop ----------------------------------------------------
    def serve_forever(self) -> None:
        """Run until :meth:`request_shutdown` (or a ``shutdown`` op); then
        tear everything down, failure path included."""
        if self._sel is None:
            raise RuntimeError("serve_forever() before start()")
        try:
            while not self._stop.is_set():
                for key, mask in self._sel.select(timeout=0.5):
                    kind, tag = key.data
                    if kind == "listener":
                        self._accept()
                    elif kind == "wake":
                        try:
                            assert self._wake_r is not None
                            self._wake_r.recv(4096)
                        except (BlockingIOError, OSError):
                            pass
                    elif kind == "client":
                        if mask & selectors.EVENT_WRITE:
                            self._client_writable(tag)
                        if mask & selectors.EVENT_READ:
                            self._client_readable(tag)
                    elif kind == "worker":
                        self._worker_readable(tag)
        finally:
            self.close()

    # -- clients -------------------------------------------------------
    def _accept(self) -> None:
        assert self._listener is not None and self._sel is not None
        try:
            sock, _addr = self._listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        client = _Client(sock)
        self._clients[client.fd] = client
        self._sel.register(sock, selectors.EVENT_READ, ("client", client.fd))
        self.metrics.counter("serve.clients.accepted").inc()

    def _drop_client(self, client: _Client, midrequest: bool) -> None:
        assert self._sel is not None
        for req_id in list(client.inflight):
            request = self._requests.pop(req_id, None)
            if request is None:
                continue
            for worker_id in request.worker_ids:
                worker = self._workers.get(worker_id)
                if worker is not None:
                    worker.outstanding.discard(req_id)
        if midrequest and client.inflight:
            self.metrics.counter("serve.clients.disconnect_midrequest").inc()
        client.inflight.clear()
        try:
            self._sel.unregister(client.sock)
        except (KeyError, ValueError):
            pass
        self._clients.pop(client.fd, None)
        try:
            client.sock.close()
        except OSError:
            pass
        self.metrics.counter("serve.clients.closed").inc()

    def _send_to_client(self, client: _Client, payload: Dict[str, Any]) -> None:
        try:
            frame = protocol.encode_frame(payload, max_frame=self.max_frame)
        except protocol.ProtocolError:
            # the *response* outgrew the frame limit (huge query_many):
            # degrade to a typed error that always fits
            self._count_error("oversized_frame")
            frame = protocol.encode_frame(
                protocol.error_response(
                    "oversized_frame",
                    f"response exceeds the {self.max_frame}-byte frame limit",
                )
            )
        client.wbuf += frame
        self._flush_client(client)

    def _flush_client(self, client: _Client) -> None:
        assert self._sel is not None
        if client.wbuf:
            try:
                sent = client.sock.send(client.wbuf)
                del client.wbuf[:sent]
            except (BlockingIOError, InterruptedError):
                pass
            except OSError:
                self._drop_client(client, midrequest=True)
                return
        events = selectors.EVENT_READ
        if client.wbuf:
            events |= selectors.EVENT_WRITE
        try:
            self._sel.modify(client.sock, events, ("client", client.fd))
        except (KeyError, ValueError):
            return
        if client.closing and not client.wbuf:
            self._drop_client(client, midrequest=False)

    def _client_writable(self, fd: int) -> None:
        client = self._clients.get(fd)
        if client is not None:
            self._flush_client(client)

    def _client_readable(self, fd: int) -> None:
        client = self._clients.get(fd)
        if client is None:
            return
        try:
            data = client.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._drop_client(client, midrequest=True)
            return
        if not data:
            self._drop_client(client, midrequest=bool(client.inflight))
            return
        client.rbuf += data
        self._parse_frames(client)

    def _count_error(self, code: str) -> None:
        self.metrics.counter(f"serve.errors.{code}").inc()

    def _parse_frames(self, client: _Client) -> None:
        while not client.closing:
            if len(client.rbuf) < _LEN.size:
                return
            (length,) = _LEN.unpack_from(client.rbuf)
            if length > self.max_frame:
                self._count_error("oversized_frame")
                client.rbuf.clear()  # stream position is unrecoverable
                client.closing = True
                self._send_to_client(
                    client,
                    protocol.error_response(
                        "oversized_frame",
                        f"frame of {length} bytes exceeds the "
                        f"{self.max_frame}-byte limit",
                    ),
                )
                return
            if len(client.rbuf) < _LEN.size + length:
                return
            body = bytes(client.rbuf[_LEN.size : _LEN.size + length])
            del client.rbuf[: _LEN.size + length]
            try:
                op, args = protocol.parse_request(protocol.decode_body(body))
            except protocol.ProtocolError as exc:
                self._count_error(exc.code)
                self._send_to_client(
                    client, protocol.error_response(exc.code, exc.message)
                )
                continue
            self.metrics.counter("serve.requests.total").inc()
            self._handle_request(client, op, args)

    # -- request handling ----------------------------------------------
    def _alive_workers(self) -> List[_Worker]:
        return [w for w in self._workers.values() if w.alive]

    def _handle_request(
        self, client: _Client, op: str, args: Dict[str, Any]
    ) -> None:
        if self._stop.is_set():
            self._count_error("shutting_down")
            self._send_to_client(
                client,
                protocol.error_response(
                    "shutting_down", "the daemon is shutting down"
                ),
            )
            return
        if op == "ping":
            self._send_to_client(
                client, protocol.ok_response({"pong": True})
            )
            return
        if op == "info":
            share = self._share
            self._send_to_client(
                client,
                protocol.ok_response(
                    {
                        "n": self.oracle.csr.n,
                        "m": self.oracle.csr.m,
                        "landmarks": len(self.oracle.landmark_indices),
                        "strategy": self.oracle.strategy,
                        "seed": self.oracle.seed,
                        "workers": len(self._alive_workers()),
                        "payload_bytes": share.payload_bytes if share else 0,
                        "max_frame": self.max_frame,
                        "pid": os.getpid(),
                        "uptime_s": time.monotonic() - self._started_at,
                    }
                ),
            )
            return
        if op == "vertices":
            limit = args.get("limit", 100)
            offset = args.get("offset", 0)
            if (
                not isinstance(limit, int)
                or isinstance(limit, bool)
                or not isinstance(offset, int)
                or isinstance(offset, bool)
                or limit < 0
                or offset < 0
            ):
                self._count_error("bad_request")
                self._send_to_client(
                    client,
                    protocol.error_response(
                        "bad_request",
                        "vertices needs non-negative int 'limit'/'offset'",
                    ),
                )
                return
            verts = self.oracle.csr.verts
            self._send_to_client(
                client,
                protocol.ok_response(
                    {
                        "n": len(verts),
                        "vertices": [
                            str(v) for v in verts[offset : offset + limit]
                        ],
                    }
                ),
            )
            return
        if op == "shutdown":
            self._send_to_client(client, protocol.ok_response({"stopping": True}))
            self.request_shutdown()
            return
        if op == "crash_worker":
            self._crash_worker(client, args)
            return
        if op == "stats":
            self._fanout_stats(client)
            return
        # compute ops go to the least-loaded live worker
        alive = self._alive_workers()
        if not alive:
            self._count_error("worker_crashed")
            self._send_to_client(
                client,
                protocol.error_response(
                    "worker_crashed", "no live worker to serve the request"
                ),
            )
            return
        worker = min(alive, key=lambda w: (len(w.outstanding), w.worker_id))
        request = self._new_request(client, op)
        request.worker_ids.add(worker.worker_id)
        worker.outstanding.add(request.req_id)
        self.metrics.counter("serve.requests.dispatched").inc()
        self._send_to_worker(worker, request.req_id, op, args)

    def _new_request(self, client: _Client, op: str) -> _Request:
        self._next_req += 1
        request = _Request(self._next_req, client.fd, op)
        self._requests[request.req_id] = request
        client.inflight.add(request.req_id)
        return request

    def _send_to_worker(
        self, worker: _Worker, req_id: int, op: str, args: Dict[str, Any]
    ) -> None:
        try:
            worker.conn.send((req_id, op, args))
        except (BrokenPipeError, OSError):
            self._worker_died(worker.worker_id)

    def _crash_worker(self, client: _Client, args: Dict[str, Any]) -> None:
        """Kill one worker (test/ops endpoint exercising crash isolation)."""
        alive = self._alive_workers()
        if not alive:
            self._count_error("bad_request")
            self._send_to_client(
                client,
                protocol.error_response("bad_request", "no live worker to crash"),
            )
            return
        wanted = args.get("worker")
        if wanted is None:
            target = max(alive, key=lambda w: len(w.outstanding))
        else:
            matches = [w for w in alive if w.worker_id == wanted]
            if not matches:
                self._count_error("bad_request")
                self._send_to_client(
                    client,
                    protocol.error_response(
                        "bad_request", f"no live worker {wanted!r}"
                    ),
                )
                return
            target = matches[0]
        pid = target.proc.pid
        assert pid is not None
        os.kill(pid, signal.SIGKILL)
        self._send_to_client(
            client,
            protocol.ok_response({"killed": target.worker_id, "pid": pid}),
        )

    def _fanout_stats(self, client: _Client) -> None:
        alive = self._alive_workers()
        request = self._new_request(client, "stats")
        if not alive:
            self._finish_stats(request)
            return
        for worker in alive:
            request.worker_ids.add(worker.worker_id)
            worker.outstanding.add(request.req_id)
            self._send_to_worker(worker, request.req_id, "stats", {})

    def _finish_stats(self, request: _Request) -> None:
        self._requests.pop(request.req_id, None)
        client = self._clients.get(request.client_fd)
        if client is None:
            return
        client.inflight.discard(request.req_id)
        merged = MetricsRegistry()
        merged.merge(self.metrics.snapshot())
        caches = []
        for part in request.parts:
            merged.merge(part.get("snapshot", {}))
            caches.append(
                {"worker": part.get("worker"), "cache": part.get("cache")}
            )
        self._send_to_client(
            client,
            protocol.ok_response(
                {
                    "workers": len(request.parts),
                    "snapshot": merged.snapshot(),
                    "caches": caches,
                }
            ),
        )

    # -- worker events -------------------------------------------------
    def _worker_readable(self, worker_id: int) -> None:
        worker = self._workers.get(worker_id)
        if worker is None or not worker.alive:
            return
        try:
            while worker.conn.poll():
                req_id, envelope = worker.conn.recv()
                self._worker_reply(worker, req_id, envelope)
        except (EOFError, OSError):
            self._worker_died(worker_id)

    def _worker_reply(
        self, worker: _Worker, req_id: int, envelope: Dict[str, Any]
    ) -> None:
        if req_id == -1:  # a respawned worker reporting ready
            return
        worker.outstanding.discard(req_id)
        request = self._requests.get(req_id)
        if request is None:
            return  # client disconnected mid-request; answer discarded
        if request.op == "stats":
            request.worker_ids.discard(worker.worker_id)
            if envelope.get("ok") is True and isinstance(
                envelope.get("result"), dict
            ):
                request.parts.append(envelope["result"])
            if not request.worker_ids:
                self._finish_stats(request)
            return
        self._requests.pop(req_id, None)
        client = self._clients.get(request.client_fd)
        if client is None:
            return
        client.inflight.discard(req_id)
        if envelope.get("ok") is not True:
            error = envelope.get("error")
            if isinstance(error, dict) and error.get("code") in protocol.ERROR_CODES:
                self._count_error(str(error["code"]))
        self._send_to_client(client, envelope)

    def _worker_died(self, worker_id: int) -> None:
        assert self._sel is not None
        worker = self._workers.get(worker_id)
        if worker is None or not worker.alive:
            return
        worker.alive = False
        try:
            self._sel.unregister(worker.conn)
        except (KeyError, ValueError):
            pass
        try:
            worker.conn.close()
        except OSError:
            pass
        _reap(worker.proc, grace=1.0)
        self.metrics.counter("serve.workers.crashed").inc()
        # every request that died with the worker gets a typed error now
        for req_id in sorted(worker.outstanding):
            request = self._requests.get(req_id)
            if request is None:
                continue
            if request.op == "stats":
                request.worker_ids.discard(worker_id)
                if not request.worker_ids:
                    self._finish_stats(request)
                continue
            self._requests.pop(req_id, None)
            client = self._clients.get(request.client_fd)
            if client is None:
                continue
            client.inflight.discard(req_id)
            self._count_error("worker_crashed")
            self._send_to_client(
                client,
                protocol.error_response(
                    "worker_crashed",
                    f"worker {worker_id} died while serving the request",
                ),
            )
        worker.outstanding.clear()
        self._workers.pop(worker_id, None)
        if self.respawn and not self._stop.is_set():
            self._spawn_worker(worker_id)
            self.metrics.counter("serve.workers.respawned").inc()

    # -- teardown ------------------------------------------------------
    def close(self) -> None:
        """Tear everything down (idempotent; runs on the failure path too)."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        # in-flight requests are answered with a typed shutting_down error
        for request in list(self._requests.values()):
            client = self._clients.get(request.client_fd)
            if client is None:
                continue
            client.inflight.discard(request.req_id)
            self._count_error("shutting_down")
            try:
                client.sock.setblocking(True)
                client.sock.settimeout(1.0)
                client.sock.sendall(
                    protocol.encode_frame(
                        protocol.error_response(
                            "shutting_down", "the daemon is shutting down"
                        )
                    )
                )
            except OSError:
                pass
        self._requests.clear()
        for client in list(self._clients.values()):
            try:
                client.sock.close()
            except OSError:
                pass
        self._clients.clear()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        if self.unix_path is not None:
            try:
                os.unlink(self.unix_path)
            except OSError:
                pass
        for worker in self._workers.values():
            if not worker.alive:
                continue
            try:
                worker.conn.send((None, "exit", {}))
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers.values():
            _reap(worker.proc, grace=5.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        self._workers.clear()
        for wake in (self._wake_r, self._wake_w):
            if wake is not None:
                try:
                    wake.close()
                except OSError:
                    pass
        self._wake_r = self._wake_w = None
        if self._sel is not None:
            self._sel.close()
            self._sel = None
        if self._share is not None:
            self._share.unlink()
            self._share = None


def _reap(proc: subprocess.Popen, grace: float) -> None:
    """Wait ``grace`` seconds for a worker to exit, then kill and reap it."""
    try:
        proc.wait(timeout=grace)
    except subprocess.TimeoutExpired:  # pragma: no cover - stuck worker
        proc.kill()
        proc.wait()
