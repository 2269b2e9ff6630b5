"""Pre-fork oracle serving daemon over one shared-memory segment.

Architecture — a supervisor and N forked workers that own their clients::

    clients ── TCP / unix socket ──▶ listener (bound once, before fork)
                                        │ accepted least-loaded first
                                        ▼
    one shared segment ──▶ worker 0 … worker N-1  (forks of the supervisor)
    (repro.serve.shm, by fd)            │ one control socketpair each
                                        ▼
                 supervisor: spawn, reap, respawn, stats fan-out,
                             crash_worker, shutdown

:meth:`Server.start` publishes the oracle, binds the listener and forks
each worker after :func:`gc.freeze`.  A worker keeps only the listener,
its control end and the segment of what it inherits, and runs its own
``selectors`` loop — accept, read, parse, compute, encode, flush — over
its clients; it forwards ``stats``, ``crash_worker`` and ``shutdown`` to
the supervisor and leaves through :func:`os._exit` on every path.  The
worker holding the fewest clients takes a new connection: the others
leave it to that one for :data:`ACCEPT_DEFER` first.  A worker's death
is EOF on its control socket (the supervisor respawns it), and the
supervisor's death is EOF on every worker's.

Nothing blocks.  Control writes are buffered both ways.  A client past
:data:`MAX_CLIENT_WBUF` unsent bytes or :data:`MAX_CLIENT_INFLIGHT`
parsed requests is neither parsed further nor read until it drains, so
TCP holds its pipeline back; a worker holding :data:`MAX_WORKER_INFLIGHT`
requests answers further frames ``overloaded``.  Clients are served in
turn, :data:`FRAMES_PER_TURN` frames each.  Failures are typed on the
wire, never a traceback; DESIGN.md "Process topology" has the details.
"""

from __future__ import annotations

import gc
import mmap
import os
import pickle
import random
import selectors
import signal
import socket
import struct
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.oracle.oracle import DistanceOracle
from repro.serve import protocol
from repro.serve.protocol import Address, ProtocolError
from repro.serve.shm import OracleShare, attach_fd, publish_oracle

DEFAULT_WORKERS = 2
DEFAULT_HOST = "127.0.0.1"
#: how long start() waits for every worker's ready message
DEFAULT_READY_TIMEOUT = 60.0
#: a client with more unsent answer bytes than this is neither read nor
#: served until its buffer drains below it
MAX_CLIENT_WBUF = 1 << 20
#: parsed requests a client may have waiting for an answer; further
#: frames stay unparsed, and unread, until its queue drains
MAX_CLIENT_INFLIGHT = 64
#: parsed requests a worker may hold over all its clients; frames parsed
#: beyond it are answered ``overloaded`` at once
MAX_WORKER_INFLIGHT = 1024
#: how long a worker holding more clients than another live worker
#: leaves a new connection to that one before it accepts it itself
ACCEPT_DEFER = 0.002
#: frames answered for one client before the next client's turn
FRAMES_PER_TURN = 8
#: how long a ``stats`` fan-out waits for a worker that does not answer
STATS_TIMEOUT = 5.0
#: how long a stopping worker keeps flushing its answers
DRAIN_TIMEOUT = 1.0

_LEN = struct.Struct("!I")
_RECV = 65536
_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE
_COMPUTE_OPS = frozenset(("query", "query_many", "k_nearest"))
_SUPERVISOR_OPS = frozenset(("stats", "crash_worker"))
_STAGES = ("read", "parse", "compute", "encode", "flush")
_ABSENT = 2**31 - 1  # the load a dead worker's slot reads: never the least


class _Channel:
    """Pickled messages over one end of a control socketpair, never
    blocking: :meth:`send` buffers what the socket does not take yet,
    :meth:`recv` returns the complete messages, ``None`` once the peer
    is gone."""

    __slots__ = ("sock", "rbuf", "wbuf")

    def __init__(self, sock: socket.socket) -> None:
        sock.setblocking(False)
        self.sock = sock
        self.rbuf = bytearray()
        self.wbuf = bytearray()

    def send(self, message: Tuple[Any, ...]) -> None:
        body = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        self.wbuf += _LEN.pack(len(body)) + body
        self.flush()

    def flush(self) -> None:
        while self.wbuf:
            try:
                sent = self.sock.send(self.wbuf)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:  # the peer is gone; recv() reports it
                self.wbuf.clear()
                return
            del self.wbuf[:sent]

    def recv(self) -> Optional[List[Tuple[Any, ...]]]:
        while True:
            try:
                chunk = self.sock.recv(_RECV)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                return None
            if not chunk:
                return None
            self.rbuf += chunk
        messages = []
        rbuf, pos = self.rbuf, 0
        while len(rbuf) - pos >= _LEN.size:
            (length,) = _LEN.unpack_from(rbuf, pos)
            end = pos + _LEN.size + length
            if len(rbuf) < end:
                break
            messages.append(pickle.loads(rbuf[pos + _LEN.size : end]))
            pos = end
        del rbuf[:pos]
        return messages

    def events(self) -> int:
        return _READ | (_WRITE if self.wbuf else 0)


# ----------------------------------------------------------------------
# Worker side (runs in a forked child)
# ----------------------------------------------------------------------
class _Client:
    """Worker-side record of one client connection."""

    __slots__ = ("sock", "rbuf", "wbuf", "queue", "eof", "waiting", "events", "ready")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.rbuf = bytearray()
        self.wbuf = bytearray()
        #: parsed requests, answered in order: ``(op, args)``, or
        #: ``(None, ProtocolError)`` for a frame answered with that error
        self.queue: Deque[Tuple[Optional[str], Any]] = deque()
        self.eof = False  # no more input: peer half-closed, or oversized frame
        self.waiting: Optional[int] = None  # token of a supervisor answer
        self.events = 0
        self.ready = False  # listed in the worker's turn queue


class _Worker:
    """One worker's event loop over its own clients."""

    def __init__(self, worker_id: int, listener: socket.socket, loads: memoryview,
                 ctl: _Channel, oracle: DistanceOracle, max_frame: int,
                 info: Dict[str, Any]) -> None:
        self.worker_id = worker_id
        self.listener = listener
        self.loads = loads
        self.ctl = ctl
        self.oracle = oracle
        self.by_name = {str(v): v for v in oracle.csr.verts}
        self.max_frame = max_frame
        self.info = info
        self.registry = MetricsRegistry()
        self.stage = {s: self.registry.histogram(f"serve.stage.{s}") for s in _STAGES}
        self.open_gauge = self.registry.gauge("serve.clients.open")
        self.inflight_gauge = self.registry.gauge("serve.requests.inflight")
        self.inflight = 0
        self.clients: Dict[int, _Client] = {}
        self.turns: Deque[_Client] = deque()
        self.waiting: Dict[int, _Client] = {}
        self.next_token = 0
        self.deferred: Optional[float] = None  # when a deferred accept is due
        self.stopping = False
        self.sel = selectors.DefaultSelector()
        listener.setblocking(False)
        self.sel.register(listener, _READ, None)
        self.sel.register(ctl.sock, ctl.events(), ctl)

    def count(self, name: str) -> None:
        self.registry.counter(name).inc()

    def add_inflight(self, delta: int) -> None:
        self.inflight += delta
        self.inflight_gauge.set(self.inflight)

    def observe(self, stage: str, t0: float) -> None:
        self.stage[stage].observe((time.perf_counter() - t0) * 1e3)

    # -- loop ------------------------------------------------------------
    def run(self) -> None:
        while not self.stopping:
            due = None if self.deferred is None else self.deferred - time.monotonic()
            for key, mask in self.sel.select(0 if self.turns else due):
                client = key.data
                if client is None:
                    self.offer()
                elif client is self.ctl:
                    self.control(mask)
                else:
                    if mask & _WRITE:
                        self.flush(client)
                    if mask & _READ and client.events:
                        self.read(client)
            if self.deferred is not None and time.monotonic() >= self.deferred:
                self.deferred = None
                self.sel.register(self.listener, _READ, None)
                self.accept()
            for _ in range(len(self.turns)):
                client = self.turns.popleft()
                client.ready = False
                self.serve(client)
        self.drain()

    def offer(self) -> None:
        """Accept a pending connection, unless another live worker
        holds fewer clients: then leave it to that one for
        :data:`ACCEPT_DEFER`, and take it if it is still pending."""
        if self.loads[self.worker_id] > min(self.loads):
            self.sel.unregister(self.listener)
            self.deferred = time.monotonic() + ACCEPT_DEFER
        else:
            self.accept()

    def accept(self) -> None:
        try:
            sock, _addr = self.listener.accept()
        except OSError:  # another worker took it
            return
        sock.setblocking(False)
        client = _Client(sock)
        self.clients[sock.fileno()] = client
        self.count("serve.clients.accepted")
        self.set_open()
        self.sync(client)

    def set_open(self) -> None:
        self.loads[self.worker_id] = len(self.clients)
        self.open_gauge.set(len(self.clients))

    def sync(self, client: _Client) -> None:
        """Match the client's selector interest and turn to its state;
        close it once it has nothing left to read, answer or send."""
        busy = client.queue or client.waiting is not None or client.wbuf
        if client.eof and not busy:
            self.drop(client, midrequest=False)
            return
        room = len(client.wbuf) <= MAX_CLIENT_WBUF
        want = _WRITE if client.wbuf else 0
        if not client.eof and room and len(client.queue) < MAX_CLIENT_INFLIGHT:
            want |= _READ
        if want != client.events:
            if not client.events:
                self.sel.register(client.sock, want, client)
            elif not want:
                self.sel.unregister(client.sock)
            else:
                self.sel.modify(client.sock, want, client)
            client.events = want
        if room and client.queue and client.waiting is None and not client.ready:
            client.ready = True
            self.turns.append(client)

    def drop(self, client: _Client, midrequest: bool) -> None:
        if self.clients.pop(client.sock.fileno(), None) is None:
            return
        pending = len(client.queue) + (client.waiting is not None)
        if midrequest and pending:
            self.count("serve.clients.disconnect_midrequest")
        if client.waiting is not None:
            del self.waiting[client.waiting]
        self.add_inflight(-pending)
        # a dropped client has nothing left: a later turn finds it done
        client.eof, client.waiting = True, None
        client.queue.clear()
        client.wbuf.clear()
        if client.events:
            self.sel.unregister(client.sock)
            client.events = 0
        client.sock.close()
        self.count("serve.clients.closed")
        self.set_open()

    # -- input -----------------------------------------------------------
    def read(self, client: _Client) -> None:
        t0 = time.perf_counter()
        try:
            data = client.sock.recv(_RECV)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self.drop(client, midrequest=True)
            return
        self.observe("read", t0)
        if data:
            client.rbuf += data
            self.parse(client)
        else:
            client.eof = True
            client.rbuf.clear()
        self.serve(client)

    def parse(self, client: _Client) -> None:
        """Queue the complete frames of the read buffer, in order, until
        the client holds :data:`MAX_CLIENT_INFLIGHT`; the rest wait in
        the buffer for the queue to drain."""
        rbuf, pos, added = client.rbuf, 0, 0
        room = MAX_CLIENT_INFLIGHT - len(client.queue)
        while added < room and len(rbuf) - pos >= _LEN.size:
            (length,) = _LEN.unpack_from(rbuf, pos)
            item: Tuple[Optional[str], Any]
            if length > self.max_frame:
                item = (None, ProtocolError(
                    "oversized_frame",
                    f"frame of {length} bytes exceeds the {self.max_frame}-byte limit",
                ))
                client.eof = True  # the stream position is unrecoverable
                pos = len(rbuf)
            elif len(rbuf) < pos + _LEN.size + length:
                break
            else:
                t0 = time.perf_counter()
                body = bytes(rbuf[pos + _LEN.size : pos + _LEN.size + length])
                pos += _LEN.size + length
                try:
                    item = protocol.parse_request(protocol.decode_body(body))
                    self.count("serve.requests.total")
                except ProtocolError as exc:
                    item = (None, exc)
                self.observe("parse", t0)
                if self.inflight + added >= MAX_WORKER_INFLIGHT:
                    item = (None, ProtocolError(
                        "overloaded",
                        f"the worker holds {MAX_WORKER_INFLIGHT} requests in flight",
                    ))
            client.queue.append(item)
            added += 1
        del rbuf[:pos]
        self.add_inflight(added)

    # -- answers -----------------------------------------------------------
    def serve(self, client: _Client) -> None:
        """One turn: answer up to :data:`FRAMES_PER_TURN` queued frames
        (``stats``/``crash_worker`` go to the supervisor), refill the
        queue from the read buffer, then flush."""
        for _ in range(FRAMES_PER_TURN):
            if not client.queue or client.waiting is not None or (
                    len(client.wbuf) > MAX_CLIENT_WBUF):
                break
            op, args = client.queue.popleft()
            if op in _SUPERVISOR_OPS and not self.stopping:
                self.next_token += 1
                client.waiting = self.next_token
                self.waiting[self.next_token] = client
                self.ctl.send((op, self.next_token, args))
                self.watch_ctl()
            else:
                self.add_inflight(-1)
                self.reply(client, self.answer(op, args))
        if client.rbuf:
            self.parse(client)
        self.flush(client)

    def answer(self, op: Optional[str], args: Any) -> Dict[str, Any]:
        """The envelope answering one queued frame (never raises)."""
        t0 = time.perf_counter()
        compute = op in _COMPUTE_OPS
        if op is None:
            envelope = protocol.error_response(args.code, args.message)
        elif self.stopping:
            envelope = protocol.error_response("shutting_down", "the daemon is shutting down")
        else:
            if compute:
                self.count("serve.worker.requests")
            try:
                envelope = protocol.ok_response(self.result(op, args))
            except ProtocolError as exc:
                envelope = protocol.error_response(exc.code, exc.message)
            except ValueError as exc:
                envelope = protocol.error_response("bad_request", str(exc))
            except Exception as exc:  # noqa: BLE001 - the wire gets a typed error
                envelope = protocol.error_response("internal", f"{type(exc).__name__}: {exc}")
            if compute and envelope["ok"] is not True:
                self.count("serve.worker.errors")
        self.observe("compute", t0)
        return envelope

    def reply(self, client: _Client, envelope: Dict[str, Any]) -> None:
        if envelope.get("ok") is not True:
            self.count(f"serve.errors.{envelope['error']['code']}")
        t0 = time.perf_counter()
        try:
            frame = protocol.encode_frame(envelope, max_frame=self.max_frame)
        except ProtocolError:
            # the *response* outgrew the frame limit (huge query_many):
            # degrade to a typed error that always fits
            self.count("serve.errors.oversized_frame")
            frame = protocol.encode_frame(protocol.error_response(
                "oversized_frame", f"response exceeds the {self.max_frame}-byte frame limit"
            ))
        self.observe("encode", t0)
        client.wbuf += frame

    def flush(self, client: _Client) -> None:
        if client.wbuf:
            t0 = time.perf_counter()
            try:
                sent = client.sock.send(client.wbuf)
            except (BlockingIOError, InterruptedError):
                sent = 0
            except OSError:
                self.drop(client, midrequest=True)
                return
            self.observe("flush", t0)
            del client.wbuf[:sent]
        self.sync(client)

    def resolve(self, op: str, label: Any, field: str) -> Any:
        if not isinstance(label, str):
            raise ProtocolError("bad_request", f"{op} needs a string {field!r} field")
        try:
            return self.by_name[label]
        except KeyError:
            raise ProtocolError(
                "unknown_vertex", f"{label!r} is not a vertex of the served structure"
            ) from None

    def result(self, op: str, args: Dict[str, Any]) -> Any:
        oracle = self.oracle
        if op == "query":
            u = self.resolve(op, args.get("u"), "u")
            return {"distance": oracle.query(u, self.resolve(op, args.get("v"), "v"))}
        if op == "query_many":
            pairs = args.get("pairs")
            if not isinstance(pairs, list):
                raise ProtocolError("bad_request", "query_many needs a 'pairs' list of [u, v]")
            resolved = []
            for pair in pairs:
                if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                    raise ProtocolError("bad_request", f"pair {pair!r} is not a [u, v] pair")
                resolved.append((
                    self.resolve(op, pair[0], "pairs[0]"),
                    self.resolve(op, pair[1], "pairs[1]"),
                ))
            return {"distances": oracle.query_many(resolved)}
        if op == "k_nearest":
            v = self.resolve(op, args.get("v"), "v")
            k = args.get("k")
            if not isinstance(k, int) or isinstance(k, bool) or k < 1:
                raise ProtocolError("bad_request", f"k_nearest needs an int k >= 1, got {k!r}")
            return {"nearest": [[str(u), d] for u, d in oracle.k_nearest(v, k)]}
        if op == "ping":
            return {"pong": True}
        if op == "info":
            info = dict(self.info)
            info["uptime_s"] = time.monotonic() - info.pop("started_at")
            return info
        if op == "vertices":
            limit, offset = args.get("limit", 100), args.get("offset", 0)
            if not all(
                isinstance(x, int) and not isinstance(x, bool) and x >= 0
                for x in (limit, offset)
            ):
                raise ProtocolError(
                    "bad_request", "vertices needs non-negative int 'limit'/'offset'"
                )
            verts = oracle.csr.verts
            return {"n": len(verts), "vertices": [str(v) for v in verts[offset : offset + limit]]}
        if op == "shutdown":
            self.ctl.send(("shutdown",))
            self.watch_ctl()
            return {"stopping": True}
        raise ProtocolError("bad_request", f"op {op!r} is not served here")

    # -- the control socket ------------------------------------------------
    def watch_ctl(self) -> None:
        self.sel.modify(self.ctl.sock, self.ctl.events(), self.ctl)

    def control(self, mask: int) -> None:
        if mask & _WRITE:
            self.ctl.flush()
        messages = self.ctl.recv() if mask & _READ else []
        if messages is None:  # the supervisor closed its end, or died
            self.stopping = True
            return
        for message in messages:
            if message[0] == "part":
                self.count("serve.worker.requests")
                merged = MetricsRegistry()
                merged.merge(self.registry.snapshot())
                merged.merge(self.oracle.metrics.snapshot())
                self.ctl.send(("part", message[1], {
                    "worker": self.worker_id,
                    "snapshot": merged.snapshot(),
                    "cache": self.oracle.cache_info(),
                }))
            elif message[0] == "answer":
                client = self.waiting.pop(message[1], None)
                if client is not None:
                    client.waiting = None
                    self.add_inflight(-1)
                    self.reply(client, message[2])
                    self.flush(client)
        self.watch_ctl()

    def drain(self) -> None:
        """Stop: answer everything held ``shutting_down``, flush for up
        to :data:`DRAIN_TIMEOUT`."""
        if self.deferred is None:
            self.sel.unregister(self.listener)
        self.sel.unregister(self.ctl.sock)
        self.listener.close()
        for client in list(self.clients.values()):
            if client.waiting is not None:
                client.waiting = None
                client.queue.appendleft((None, ProtocolError(
                    "shutting_down", "the daemon is shutting down"
                )))
            client.eof = True  # frames never parsed see the connection close
            while client.queue:
                self.reply(client, self.answer(*client.queue.popleft()))
            self.flush(client)
        deadline = time.monotonic() + DRAIN_TIMEOUT
        while self.clients and time.monotonic() < deadline:
            for key, _mask in self.sel.select(deadline - time.monotonic()):
                self.flush(key.data)


def _worker_child(worker_id: int, listener: socket.socket, loads: memoryview,
                  ctl_sock: socket.socket, shm_fd: int, warm: int, max_frame: int,
                  info: Dict[str, Any]) -> None:
    """Body of a freshly forked worker; never returns."""
    code = 1
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        _replace_inherited_fds(keep={listener.fileno(), ctl_sock.fileno(), shm_fd})
        handle = attach_fd(shm_fd)
        oracle = handle.oracle
        assert oracle is not None
        if warm > 0:
            rng = random.Random(oracle.seed * 1_000_003 + worker_id)
            verts = oracle.csr.verts
            for _ in range(warm):
                oracle.query(verts[rng.randrange(len(verts))],
                             verts[rng.randrange(len(verts))])
        ctl = _Channel(ctl_sock)
        worker = _Worker(worker_id, listener, loads, ctl, oracle, max_frame, info)
        ctl.send(("ready", worker_id, os.getpid()))
        worker.watch_ctl()
        worker.run()
        code = 0
    except Exception:  # noqa: BLE001 - the worker's boundary: report, then exit
        # a raw write: another thread of the forking process may have
        # held sys.stderr's lock at the fork, and no thread will free it
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)


def _replace_inherited_fds(keep: Set[int]) -> None:
    """Point stdin and every inherited descriptor above stdio not in
    ``keep`` at ``/dev/null``: what they held is released (a sibling's
    control end would hide the supervisor's death), while the numbers
    stay taken, so a stale object closing one cannot close a new one."""
    null = os.open(os.devnull, os.O_RDWR)
    for name in sorted(os.listdir("/proc/self/fd")):
        fd = int(name)
        if (fd == 0 or fd > 2) and fd not in keep and fd != null:
            os.dup2(null, fd, inheritable=False)
    os.close(null)


# ----------------------------------------------------------------------
# Supervisor side
# ----------------------------------------------------------------------
@dataclass
class _Proc:
    """Supervisor-side record of one worker process."""

    worker_id: int
    pid: int
    chan: _Channel
    ready: bool = False


@dataclass
class _Gather:
    """One ``stats`` fan-out waiting for worker snapshots."""

    requester: int
    token: int
    pending: Set[int]
    parts: List[Dict[str, Any]] = field(default_factory=list)
    deadline: float = field(default_factory=lambda: time.monotonic() + STATS_TIMEOUT)


class Server:
    """The serving daemon: shared-memory publish + N forked workers::

        server = Server(oracle, workers=4, port=0)
        server.start()            # publish shm, bind, fork workers
        server.serve_forever()    # blocks; request_shutdown() stops it

    ``port=0`` binds an ephemeral TCP port (see :attr:`address`);
    ``unix_path`` serves a unix-domain socket instead.  On exit, failure
    path included, workers answer what they hold ``shutting_down`` and
    are reaped, and the shared segment is unlinked.
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
        self._procs: Dict[int, _Proc] = {}
        self._gathers: Dict[int, _Gather] = {}
        self._next_gather = 0
        self._listener: Optional[socket.socket] = None
        #: open clients per worker, in anonymous memory the forks share; a
        #: dead worker's slot reads :data:`_ABSENT` until it is replaced
        self._loads = memoryview(mmap.mmap(-1, 4 * workers)).cast("i")
        self._sel: Optional[selectors.BaseSelector] = None
        self._wake_r: Optional[socket.socket] = None
        self._wake_w: Optional[socket.socket] = None
        self._stop = threading.Event()
        self._serving = False
        self._closed = False
        self._info: Dict[str, Any] = {}

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

    def _bind(self) -> socket.socket:
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
        return listener

    def _spawn(self, worker_id: int) -> None:
        assert self._share is not None and self._listener is not None
        assert self._sel is not None
        self._loads[worker_id] = 0
        parent_end, child_end = socket.socketpair()
        gc.freeze()  # the child's collector never writes to shared pages
        # the caller may have other threads (a test serving in one); the
        # child takes no lock one of them may have held at the fork (it
        # reports a crash on fd 2 directly, not through sys.stderr)
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child, out of coverage's sight
            _worker_child(worker_id, self._listener, self._loads, child_end,
                          self._share.fd, self.warm, self.max_frame, self._info)
        child_end.close()
        proc = _Proc(worker_id, pid, _Channel(parent_end))
        self._procs[worker_id] = proc
        self._sel.register(proc.chan.sock, _READ, proc)
        self.metrics.counter("serve.workers.spawned").inc()

    def start(self) -> None:
        """Publish the segment, bind the socket, fork workers, wait ready.

        The segment's ``/dev/shm`` name is removed as soon as it is
        written (workers inherit its descriptor), so no crash of any
        process can leave it behind.  Raises :class:`RuntimeError` when
        a worker dies or is not ready within ``ready_timeout``.
        """
        self._share = publish_oracle(self.oracle)
        self._share.unlink_name()
        try:
            self._listener = self._bind()
            self._sel = selectors.DefaultSelector()
            self._wake_r, self._wake_w = socket.socketpair()
            self._wake_r.setblocking(False)
            self._sel.register(self._wake_r, _READ, None)
            oracle = self.oracle
            self._info = {
                "n": oracle.csr.n, "m": oracle.csr.m,
                "landmarks": len(oracle.landmark_indices),
                "strategy": oracle.strategy, "seed": oracle.seed,
                "workers": self.workers, "payload_bytes": self._share.payload_bytes,
                "max_frame": self.max_frame, "pid": os.getpid(),
                "started_at": time.monotonic(),
            }
            for worker_id in range(self.workers):
                self._spawn(worker_id)
            deadline = time.monotonic() + self.ready_timeout
            while not all(p.ready for p in self._procs.values()):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    late = min(p.worker_id for p in self._procs.values() if not p.ready)
                    raise RuntimeError(
                        f"worker {late} not ready within {self.ready_timeout:.0f}s"
                    )
                self._pump(remaining)
            self._serving = True
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

    def serve_forever(self) -> None:
        """Supervise until :meth:`request_shutdown` (or a ``shutdown``
        op); then tear everything down, failure path included."""
        if self._sel is None:
            raise RuntimeError("serve_forever() before start()")
        try:
            while not self._stop.is_set():
                now = time.monotonic()
                timeout = min([0.5] + [g.deadline - now for g in self._gathers.values()])
                self._pump(max(0.0, timeout))
                for gather_id, gather in list(self._gathers.items()):
                    if gather.deadline <= time.monotonic():
                        self._finish_gather(gather_id)
        finally:
            self.close()

    def _pump(self, timeout: float) -> None:
        """One round of the supervisor's selector."""
        assert self._sel is not None
        for key, mask in self._sel.select(timeout):
            proc = key.data
            if proc is None:
                try:
                    assert self._wake_r is not None
                    self._wake_r.recv(4096)
                except OSError:
                    pass
                continue
            if self._procs.get(proc.worker_id) is not proc:
                continue
            if mask & _WRITE:
                proc.chan.flush()
            messages = proc.chan.recv() if mask & _READ else []
            if messages is None:
                self._worker_died(proc)
                continue
            for message in messages:
                self._handle(proc, message)
            self._watch(proc)

    def _watch(self, proc: _Proc) -> None:
        if self._procs.get(proc.worker_id) is proc:
            assert self._sel is not None
            self._sel.modify(proc.chan.sock, proc.chan.events(), proc)

    def _send(self, proc: _Proc, message: Tuple[Any, ...]) -> None:
        proc.chan.send(message)
        self._watch(proc)

    # -- worker messages -----------------------------------------------
    def _handle(self, proc: _Proc, message: Tuple[Any, ...]) -> None:
        kind = message[0]
        if kind == "ready":
            proc.ready = True
        elif kind == "shutdown":
            self.request_shutdown()
        elif kind == "crash_worker":
            self._crash_worker(proc, message[1], message[2])
        elif kind == "stats":
            self._next_gather += 1
            gather = _Gather(proc.worker_id, message[1], set(self._procs))
            self._gathers[self._next_gather] = gather
            for other in list(self._procs.values()):
                self._send(other, ("part", self._next_gather))
        elif kind == "part":
            gather = self._gathers.get(message[1])
            if gather is not None and proc.worker_id in gather.pending:
                gather.pending.discard(proc.worker_id)
                gather.parts.append(message[2])
                if not gather.pending:
                    self._finish_gather(message[1])

    def _finish_gather(self, gather_id: int) -> None:
        gather = self._gathers.pop(gather_id)
        requester = self._procs.get(gather.requester)
        if requester is None:
            return  # it died, and its client with it
        merged = MetricsRegistry()
        merged.merge(self.metrics.snapshot())
        caches = []
        for part in sorted(gather.parts, key=lambda p: p["worker"]):
            merged.merge(part["snapshot"])
            caches.append({"worker": part["worker"], "cache": part["cache"]})
        self._send(requester, ("answer", gather.token, protocol.ok_response({
            "workers": len(gather.parts),
            "snapshot": merged.snapshot(),
            "caches": caches,
        })))

    def _crash_worker(self, proc: _Proc, token: int, args: Dict[str, Any]) -> None:
        """Kill one worker (test/ops endpoint exercising crash isolation):
        ``worker``, or else the lowest-numbered one but the asking one.
        A worker that kills itself may die before it relays the answer."""
        wanted = args.get("worker")
        if wanted is None:
            others = [w for w in sorted(self._procs) if w != proc.worker_id]
            target = self._procs[others[0] if others else proc.worker_id]
        else:
            found = self._procs.get(wanted) if isinstance(wanted, int) else None
            if found is None:
                self._send(proc, ("answer", token, protocol.error_response(
                    "bad_request", f"no live worker {wanted!r}"
                )))
                return
            target = found
        self._send(proc, ("answer", token, protocol.ok_response(
            {"killed": target.worker_id, "pid": target.pid}
        )))
        os.kill(target.pid, signal.SIGKILL)

    def _worker_died(self, proc: _Proc) -> None:
        assert self._sel is not None
        self._procs.pop(proc.worker_id, None)
        self._loads[proc.worker_id] = _ABSENT
        self._sel.unregister(proc.chan.sock)
        proc.chan.sock.close()
        _reap(proc.pid, grace=1.0)
        if not self._serving and not self._stop.is_set():
            raise RuntimeError(f"worker {proc.worker_id} died during startup")
        for gather_id, gather in list(self._gathers.items()):
            gather.pending.discard(proc.worker_id)
            if not gather.pending:
                self._finish_gather(gather_id)
        if self._stop.is_set():
            return
        self.metrics.counter("serve.workers.crashed").inc()
        if self.respawn:
            self._spawn(proc.worker_id)
            self.metrics.counter("serve.workers.respawned").inc()

    # -- teardown ------------------------------------------------------
    def close(self) -> None:
        """Tear everything down (idempotent; runs on the failure path too).
        Closing a worker's control end is its signal to drain and exit."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        for proc in self._procs.values():
            proc.chan.sock.close()
        for proc in self._procs.values():
            _reap(proc.pid, grace=5.0)
        self._procs.clear()
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        if self.unix_path is not None:
            try:
                os.unlink(self.unix_path)
            except OSError:
                pass
        for wake in (self._wake_r, self._wake_w):
            if wake is not None:
                wake.close()
        self._wake_r = self._wake_w = None
        if self._sel is not None:
            self._sel.close()
            self._sel = None
        if self._share is not None:
            self._share.unlink()
            self._share = None


def _reap(pid: int, grace: float) -> None:
    """Wait ``grace`` seconds for a worker to exit, then kill and reap it."""
    deadline = time.monotonic() + grace
    while os.waitpid(pid, os.WNOHANG)[0] == 0:
        if time.monotonic() >= deadline:  # pragma: no cover - stuck worker
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return
        time.sleep(0.005)
