"""The ``serve-*`` workloads: a fresh daemon over the §5 light spanner.

Set-up generates the ``spanner-er`` profile's ER(2000, 0.01) graph at
the profile seed, builds its light spanner and starts ``python -m repro
serve`` on it (one worker, 16 far landmarks, oracle seed 0) up to its
READY line; the daemon builds its oracle before READY.  It runs
:data:`SETUP_REPEATS` times, half before the load and half after it,
so that the median set-up spans the run rather than its first seconds
(a shared virtual machine's speed drifts over tens of seconds).  The last daemon
started before the load serves; every other one is stopped at once.
Writing the structure file for the daemon and certifying the spanner
(once) are not timed.  The served structure is the same for every
workload seed; the seed drives the traffic.

Load comes from this process: :data:`CONNECTIONS` threads, one
connection each, every request with a client-side deadline.

``serve-cold``
    Closed loop over uniform pairs that never repeat (cache bypassed).
``serve-hot``
    64 pairs, sent once untimed to warm the cache, then only those.

After :data:`WARMUP_S` of untimed load, ``qps`` and the latency
percentiles cover the requests completed in the timed ``seconds``.
The daemon is then stopped (SIGTERM, then SIGKILL), and every served
answer is checked against a private in-process oracle built the same
way.  A request that fails or passes its deadline, and a ``stats``
request the daemon does not answer, count as failed.
"""

from __future__ import annotations

import os
import random
import selectors
import signal
import statistics
import subprocess
import sys
import threading
import time
from multiprocessing import resource_tracker
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from common import (OUT_DIR, ROOT, FingerprintStore, Result, edge_fingerprint, host_ticks,
                    percentile, steal_share)
from layers import certification_metrics, layer_totals, span_metrics
from repro.graphs import WeightedGraph
from repro.harness.profiles import get_profile
from repro.harness.runner import ALGORITHMS
from repro.io import write_json
from repro.obs import trace as obs_trace
from repro.oracle import DistanceOracle
from repro.serve import ServeClient, attach_oracle, protocol, publish_oracle

PROFILE = "spanner-er"
TIER = "stress"
OVERRIDES = {"n": 2000, "p": 0.01}
LANDMARKS = 16
ORACLE_SEED = 0
CACHE_SIZE = 4096

SETUP_REPEATS = 4
CONNECTIONS = 2
#: a request not answered within this many seconds has failed.
DEADLINE_S = 2.0
#: untimed load before the timed seconds (its answers are still checked).
WARMUP_S = 1.0
HOT_PAIRS = 64
READY_TIMEOUT_S = 60.0
#: requests replayed through the attached in-process oracle (traced runs).
ATTACHED_SAMPLE = 3000

Pair = Tuple[str, str]
#: (done offset s, latency s, pair, served distance or None on failure)
Record = Tuple[float, float, Pair, Optional[float]]


# ----------------------------------------------------------------------
# Daemon processes
# ----------------------------------------------------------------------
def _descendants(pid: int) -> List[int]:
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        try:
            tasks = sorted(os.listdir(f"/proc/{parent}/task"))
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{parent}/task/{task}/children") as fh:
                    kids = [int(k) for k in fh.read().split()]
            except OSError:
                continue
            found.extend(kids)
            frontier.extend(kids)
    return found


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def _cpu_s(pid: int) -> float:
    """User plus system CPU seconds of ``pid`` (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _pss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Daemon:
    """One ``repro serve`` process group, started and waited READY.

    :meth:`stop` sends SIGTERM (the daemon's graceful path), then
    SIGKILL to the whole group, and waits for every process of it.
    """

    def __init__(self, structure_path: str, src: str) -> None:
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--structure", structure_path, "--workers", "1",
             "--landmarks", str(LANDMARKS), "--strategy", "far",
             "--seed", str(ORACLE_SEED), "--cache-size", str(CACHE_SIZE),
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, cwd=ROOT,
            env={**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": "1"},
            start_new_session=True,
        )
        self.pids: Set[int] = {self.proc.pid}
        try:
            fields = self._await_ready()
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - t0
        host, port = fields["address"].rsplit(":", 1)
        self.address = (host, int(port))
        self.payload_bytes = int(fields["payload_bytes"])
        self.pids.update(_descendants(self.proc.pid))
        self.workers = [p for p in self.pids if p != self.proc.pid and not self._is_tracker(p)]

    def _await_ready(self) -> Dict[str, str]:
        assert self.proc.stdout is not None
        deadline = time.monotonic() + READY_TIMEOUT_S
        buf = b""
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise RuntimeError(f"daemon not READY in {READY_TIMEOUT_S:.0f}s: {buf!r}")
                if not sel.select(remaining):
                    continue
                chunk = os.read(self.proc.stdout.fileno(), 65536)
                if not chunk:
                    raise RuntimeError(f"daemon exited before READY: {buf!r}")
                buf += chunk
                for line in buf.decode("utf-8", "replace").splitlines():
                    if line.startswith("READY "):
                        return dict(p.split("=", 1) for p in line.split()[1:] if "=" in p)

    @staticmethod
    def _is_tracker(pid: int) -> bool:
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                return b"resource_tracker" in fh.read()
        except OSError:
            return False

    def cpu_s(self) -> Tuple[float, float]:
        """(parent, workers) CPU seconds so far."""
        return _cpu_s(self.proc.pid), sum(_cpu_s(p) for p in self.workers)

    def pss_mb(self) -> float:
        """Proportional set size of every process of the daemon."""
        return sum(_pss_mb(p) for p in self.pids | set(_descendants(self.proc.pid)))

    def stop(self) -> None:
        self.pids.update(_descendants(self.proc.pid))
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                pass
        deadline = time.monotonic() + 10.0
        while any(_alive(p) for p in self.pids) and time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except OSError:
                pass
            for pid in self.pids:
                if _alive(pid):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
            if self.proc.poll() is None:
                try:
                    self.proc.wait(timeout=1.0)
                except subprocess.TimeoutExpired:
                    pass
            time.sleep(0.05)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------
def _distinct_pairs(rng: random.Random, labels: List[str], taken: Set[frozenset]) -> Iterator[Pair]:
    """Uniform pairs of distinct labels, never one seen in ``taken``."""
    while True:
        u, v = rng.sample(labels, 2)
        key = frozenset((u, v))
        if key not in taken:
            taken.add(key)
            yield u, v


class _Connection:
    """One client connection that reopens after a failed request."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self.address = address
        self.client: Optional[ServeClient] = None

    def query(self, pair: Pair) -> Optional[float]:
        """The served distance, or None when the request failed or passed
        its deadline."""
        try:
            if self.client is None:
                self.client = ServeClient.open(self.address, timeout=DEADLINE_S)
            return self.client.query(*pair)
        except (protocol.ProtocolError, protocol.ConnectionClosed, OSError, KeyError, TypeError):
            self.close()
            return None

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None


def _drive(address: Tuple[str, int], next_pair: Callable[[int], Pair], until: float
           ) -> Tuple[List[Record], float]:
    """Closed loop: :data:`CONNECTIONS` threads send back-to-back for
    ``until`` seconds.  Returns the records and this process's CPU
    seconds."""
    out: List[List[Record]] = [[] for _ in range(CONNECTIONS)]
    errors: List[BaseException] = []
    start = time.perf_counter()
    stop = start + until

    def body(slot: int) -> None:
        conn = _Connection(address)
        clock = time.perf_counter
        try:
            while True:
                t0 = clock()
                if t0 >= stop:
                    return
                pair = next_pair(slot)
                answer = conn.query(pair)
                done = clock()
                out[slot].append((done - start, done - t0, pair, answer))
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)
        finally:
            conn.close()

    cpu0 = time.process_time()
    threads = [threading.Thread(target=body, args=(i,)) for i in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return [r for rs in out for r in rs], time.process_time() - cpu0


def _traffic(workload: str, seed: int, labels: List[str]) -> Tuple[List[Pair], Callable[[int], Pair]]:
    """(hot pairs, the next pair a connection sends)."""
    taken: Set[frozenset] = set()
    pairs = _distinct_pairs(random.Random(f"{seed}:hot"), labels, taken)
    hot = [next(pairs) for _ in range(HOT_PAIRS)]
    if workload == "serve-hot":
        rngs = [random.Random(f"{seed}:pick:{i}") for i in range(CONNECTIONS)]
        return hot, lambda slot: rngs[slot].choice(hot)
    fresh = _distinct_pairs(random.Random(f"{seed}:fresh"), labels, taken)
    lock = threading.Lock()

    def next_fresh(slot: int) -> Pair:
        with lock:
            return next(fresh)

    return hot, next_fresh


# ----------------------------------------------------------------------
# Reference answers and floors
# ----------------------------------------------------------------------
def _replay(oracle: DistanceOracle, by_name: Dict[str, Any], pairs: List[Pair]
            ) -> Tuple[List[float], List[float]]:
    """Each pair's distance from ``oracle`` and its time in seconds."""
    clock = time.perf_counter
    answers, times = [], []
    for u, v in pairs:
        t0 = clock()
        answers.append(oracle.query(by_name[u], by_name[v]))
        times.append(clock() - t0)
    return answers, times


def _same(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= 1e-9


def _attached_us(oracle: DistanceOracle, by_name: Dict[str, Any], sample: List[Pair],
                 expected: List[float]) -> Tuple[float, bool]:
    """p50 µs of ``sample`` through an attached shared-memory copy of
    ``oracle``, and whether every answer matched ``expected``."""
    share = publish_oracle(oracle)
    try:
        handle = attach_oracle(share.name)
        try:
            answers, times = _replay(handle.oracle, by_name, sample)
        finally:
            handle.close()
    finally:
        share.unlink()
        _stop_tracker()
    return percentile(times, 0.5) * 1e6, all(map(_same, answers, expected))


def _codec_us() -> float:
    """Median µs, over 3 rounds of 5000, for one query request and its
    response through the frame codec."""
    request = {"op": "query", "u": "1234", "v": "567"}
    response = protocol.ok_response({"distance": 123.456789012345})
    rounds = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(5000):
            protocol.decode_body(protocol.encode_frame(request)[4:])
            protocol.decode_body(protocol.encode_frame(response)[4:])
        rounds.append((time.perf_counter() - t0) / 5000 * 1e6)
    return statistics.median(rounds)


def _stop_tracker() -> None:
    """Stop this process's shared-memory resource tracker, if it started."""
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def _certify(graph: WeightedGraph, spanner_result: Any) -> Any:
    """Certify the served spanner the way its profile does."""
    profile = get_profile(PROFILE)
    certify = ALGORITHMS[profile.algorithm][1]
    return certify(graph, spanner_result, profile.algo_params(TIER))


def _setup(src: str, path: str) -> Tuple[WeightedGraph, Any, Daemon, Dict[str, float]]:
    """Generate, build and serve the structure; the structure file is
    written outside the timed set-up."""
    profile = get_profile(PROFILE)
    build = ALGORITHMS[profile.algorithm][0]
    t0 = time.perf_counter()
    with obs_trace.span("graphs.generate", profile=profile.name):
        graph = profile.build_graph(TIER, **OVERRIDES)
    t1 = time.perf_counter()
    built = build(graph, profile.algo_params(TIER), random.Random(profile.seed))
    t2 = time.perf_counter()
    write_json(built[0].spanner, path)
    daemon = Daemon(path, src)
    times = {
        "setup_s": (t2 - t0) + daemon.start_s,
        "generate_s": t1 - t0,
        "build_s": t2 - t1,
        "start_s": daemon.start_s,
    }
    return graph, built, daemon, times


def run(workload: str, seed: int, seconds: float, traced: bool, store: FingerprintStore) -> Result:
    src = os.path.join(ROOT, "src")
    path = os.path.join(OUT_DIR, "structure.json")
    shm_before = set(os.listdir("/dev/shm"))
    result = Result()
    layers: Dict[str, float] = {}
    daemon: Optional[Daemon] = None
    stats: Optional[Dict[str, Any]] = None
    try:
        setups: List[Dict[str, float]] = []
        roots = []

        def set_up() -> Tuple[WeightedGraph, Any, Daemon]:
            with obs_trace.span("bench.setup", rep=len(setups)) as root:
                graph, built, daemon, times = _setup(src, path)
            setups.append(times)
            roots.append(getattr(root, "span_id", 0))
            if not store.check(f"serve/{PROFILE}", edge_fingerprint(built[0].spanner, built[1])):
                result.errors.append("served spanner: fingerprint changed")
            return graph, built, daemon

        for _ in range(SETUP_REPEATS // 2):
            if daemon is not None:
                daemon.stop()
            graph, built, daemon = set_up()
        structure = built[0].spanner
        assert daemon is not None
        report = _certify(graph, built[0])
        if not report.ok:
            result.errors.append("served spanner: certificate not ok")

        by_name = {str(v): v for v in structure.vertices()}
        hot, next_pair = _traffic(workload, seed, sorted(by_name, key=int))
        warm_sent, warm = 0, 0
        if workload == "serve-hot":
            conn = _Connection(daemon.address)
            warm_sent = len(hot)
            warm = sum(1 for pair in hot if conn.query(pair) is not None)
            conn.close()
            result.attempted += warm_sent
            result.failed += warm_sent - warm

        pss = [daemon.pss_mb()]
        parent0, worker0 = daemon.cpu_s()
        host0 = host_ticks()
        with obs_trace.span("bench.load", workload=workload):
            records, client_cpu = _drive(daemon.address, next_pair, WARMUP_S + seconds)
        host1 = host_ticks()
        parent1, worker1 = daemon.cpu_s()
        pss.append(daemon.pss_mb())
        result.attempted += 1  # the stats request
        try:
            with ServeClient.open(daemon.address, timeout=10.0) as client:
                stats = client.stats()
        except (protocol.ProtocolError, protocol.ConnectionClosed, OSError, AssertionError):
            result.failed += 1
        payload_bytes = daemon.payload_bytes
        daemon.stop()
        daemon = None
        while len(setups) < SETUP_REPEATS:
            daemon = set_up()[2]
            daemon.stop()
            daemon = None

        # every answer against a private oracle built the same way
        with obs_trace.span("bench.verify"):
            t0 = time.perf_counter()
            oracle = DistanceOracle.build(structure, landmarks=LANDMARKS, strategy="far",
                                          seed=ORACLE_SEED, cache_size=CACHE_SIZE)
            oracle_build_s = time.perf_counter() - t0
            pairs = [r[2] for r in records]
            expected, private_times = _replay(oracle, by_name, pairs)
        good = [r[3] is not None and _same(r[3], e) for r, e in zip(records, expected)]
        answered = sum(1 for r in records if r[3] is not None)
        wrong = sum(1 for r, ok in zip(records, good) if r[3] is not None and not ok)
        if wrong:
            result.errors.append(f"{wrong} served answers differ from the in-process oracle")
        result.attempted += len(records)
        result.failed += good.count(False)

        if traced:
            with obs_trace.span("bench.floors"):
                attached_us, same = _attached_us(
                    oracle, by_name, pairs[:ATTACHED_SAMPLE], expected
                )
                if not same:
                    result.errors.append("attached oracle answers differ from the private oracle")
                layers["protocol.codec_us"] = _codec_us()
            layers["oracle.attached_query_us"] = attached_us
            layers["oracle.query_us"] = percentile(private_times, 0.5) * 1e6
            layers["oracle.build_s"] = oracle_build_s
    finally:
        if daemon is not None:
            daemon.stop()

    leaked = set(os.listdir("/dev/shm")) - shm_before
    if leaked:
        result.errors.append(f"segments left in /dev/shm: {sorted(leaked)}")
        result.failed += 1

    # the timed seconds; a failed request misses every latency limit
    latencies = [
        record[1] if ok else max(record[1], DEADLINE_S)
        for record, ok in zip(records, good)
        if WARMUP_S <= record[0] < WARMUP_S + seconds
    ]
    result.e2e = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "build_s": statistics.median(s["build_s"] for s in setups),
        "peak_rss_mb": max(pss),
        "qps": len(latencies) / seconds,
        "p50_ms": percentile(latencies, 0.50) * 1e3,
        "p99_ms": percentile(latencies, 0.99) * 1e3,
        "failed_ratio": result.failed / result.attempted,
    }
    result.notes = {
        "requests": len(records),
        "latency_samples": len(latencies),
        "setups_s": [s["setup_s"] for s in setups],
        "host_steal_share": steal_share(host0, host1),
    }

    hit_ratio, worker_requests = 0.0, 0
    cache: Dict[str, Any] = {}
    snapshot: Dict[str, Any] = {}
    if stats is not None:
        cache = stats["caches"][0]["cache"]
        snapshot = stats["snapshot"]
        lookups = cache["hits"] + cache["misses"]
        hit_ratio = cache["hits"] / lookups if lookups else 0.0
        worker_requests = snapshot.get("serve.worker.requests", {}).get("value", 0)
        # the worker counts every request it answered, the final stats
        # request too; one that failed on the way may never have reached it
        least, most = answered + warm + 1, len(records) + warm_sent + 1
        if not least <= worker_requests <= most:
            result.invalid.append(
                f"worker counted {worker_requests} requests, expected {least} to {most}"
            )
        if workload == "serve-cold" and hit_ratio > 0.01:
            result.invalid.append(f"serve-cold hit ratio {hit_ratio:.4f} > 0.01")
        if workload == "serve-hot" and hit_ratio < 0.99:
            result.invalid.append(f"serve-hot hit ratio {hit_ratio:.4f} < 0.99")

    if traced:
        tracer = obs_trace.current()
        assert tracer is not None
        layers.update(span_metrics(layer_totals(tracer.spans, r) for r in roots))
        layers.update(certification_metrics([report.certification]))
        done = max(1, len(records))
        layers.update({
            "graphs.generate_s": statistics.median(s["generate_s"] for s in setups),
            "oracle.cache.hit_ratio": hit_ratio,
            "oracle.query.searched": cache.get("searches", 0),
            "oracle.query.pinched": cache.get("pinched", 0),
            "serve.start_s": statistics.median(s["start_s"] for s in setups),
            "serve.payload_bytes": payload_bytes,
            "serve.parent_cpu_us": (parent1 - parent0) / done * 1e6,
            "serve.worker_cpu_us": (worker1 - worker0) / done * 1e6,
            "serve.relay_us": result.e2e["p50_ms"] * 1e3 - layers["oracle.attached_query_us"],
            "serve.errors": sum(
                m["value"] for name, m in snapshot.items()
                if name.startswith("serve.errors.") or name == "serve.worker.errors"
            ),
            "serve.worker.requests": worker_requests,
            "loadgen.client_cpu_us": client_cpu / done * 1e6,
        })
        for name in ("qps", "p50_ms", "p99_ms"):
            layers[f"loadgen.{name}"] = result.e2e[name]
        result.layers = layers
    return result
