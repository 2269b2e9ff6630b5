"""Load-generator suite: schedules, drivers, and the schema-v6 gate.

The open-loop schedule is the determinism anchor — a pure function of
``(pairs, rate, duration, seed)`` whose JSON encoding is byte-identical
across processes and ``PYTHONHASHSEED`` values.  The drivers run
against a real in-process daemon; the ``load`` block they produce must
round-trip the report schema, gate regressions (qps drops, failure-rate
rises) under ``compare_reports``, and stay silent against pre-v6
baselines that predate the block.
"""

from __future__ import annotations

import hashlib
import json
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.graphs import erdos_renyi_graph
from repro.harness import (
    ARRIVALS,
    compare_reports,
    load_report,
    make_report,
    write_report,
)
from repro.harness.loadgen import (
    BURSTY_ON_FRACTION,
    bursty_schedule,
    drive_load,
    launch_daemon,
    poisson_schedule,
    request_schedule,
    run_closed_level,
    run_open_level,
    schedule_bytes,
    schedule_digest,
    stop_daemon,
)
from repro.harness.runner import ProfileRecord
from repro.oracle import build_oracle
from repro.serve import Server

REPO_SRC = Path(__file__).resolve().parent.parent / "src"

GRAPH = erdos_renyi_graph(120, 0.07, seed=11)
ORACLE = build_oracle(GRAPH, landmarks=4, seed=2)
PAIRS = [(str(u), str(v)) for u, v in
         [(0, 5), (1, 50), (2, 99), (3, 40), (4, 110), (7, 7), (9, 60)]]


@pytest.fixture(scope="module")
def served():
    server = Server(ORACLE, workers=2, port=0)
    server.start()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.request_shutdown()
    thread.join(timeout=30)
    assert not thread.is_alive()


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------
class TestSchedules:
    def test_poisson_is_sorted_in_window_and_cycles_pairs(self):
        sched = poisson_schedule(PAIRS, rate=200.0, duration=1.0, seed=4)
        assert sched, "200 qps over 1 s must yield arrivals"
        times = [t for t, _, _ in sched]
        assert times == sorted(times)
        assert all(0.0 < t < 1.0 for t in times)
        for i, (_, u, v) in enumerate(sched):
            assert (u, v) == PAIRS[i % len(PAIRS)]

    def test_poisson_rate_is_roughly_honoured(self):
        sched = poisson_schedule(PAIRS, rate=500.0, duration=4.0, seed=0)
        assert 1400 <= len(sched) <= 2600  # 2000 expected, generous band

    def test_poisson_is_a_pure_function_of_the_seed(self):
        a = poisson_schedule(PAIRS, rate=100.0, duration=2.0, seed=7)
        b = poisson_schedule(PAIRS, rate=100.0, duration=2.0, seed=7)
        c = poisson_schedule(PAIRS, rate=100.0, duration=2.0, seed=8)
        assert a == b
        assert a != c

    def test_poisson_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            poisson_schedule(PAIRS, rate=0.0, duration=1.0, seed=0)
        with pytest.raises(ValueError):
            poisson_schedule(PAIRS, rate=10.0, duration=-1.0, seed=0)

    def test_bursty_averages_the_requested_rate(self):
        sched = bursty_schedule(PAIRS, rate=500.0, duration=8.0, seed=3)
        times = [t for t, _, _ in sched]
        assert times == sorted(times)
        assert all(0.0 <= t < 8.0 for t in times)
        # long-run average is rate; on/off burstiness adds variance
        assert 2000 <= len(sched) <= 6000  # 4000 expected

    def test_bursty_is_actually_bursty(self):
        sched = bursty_schedule(PAIRS, rate=200.0, duration=4.0, seed=1)
        gaps = [b - a for a, b in zip(
            (t for t, _, _ in sched), (t for t, _, _ in sched[1:])
        )]
        burst_gap = 1.0 / (200.0 / BURSTY_ON_FRACTION)
        # most gaps are burst-scale, but off phases leave long silences
        assert sum(1 for g in gaps if g < 4 * burst_gap) > len(gaps) * 0.8
        assert max(gaps) > 20 * burst_gap

    def test_request_schedule_dispatch(self):
        for arrivals in ARRIVALS:
            sched = request_schedule(
                PAIRS, arrivals, rate=100.0, duration=1.0, seed=5
            )
            assert sched
        with pytest.raises(ValueError):
            request_schedule(PAIRS, "uniform", rate=100.0, duration=1.0, seed=5)

    def test_schedule_bytes_round_trip_and_digest(self):
        sched = poisson_schedule(PAIRS, rate=50.0, duration=1.0, seed=9)
        blob = schedule_bytes(sched)
        decoded = [(t, u, v) for t, u, v in json.loads(blob)]
        assert decoded == sched
        assert schedule_digest(sched) == hashlib.sha256(blob).hexdigest()

    def test_schedule_bytes_identical_across_hash_seeds(self, tmp_path):
        """The cross-process determinism gate: two interpreters with
        different PYTHONHASHSEED values print the same sha256."""
        script = tmp_path / "digest_probe.py"
        script.write_text(
            "from repro.harness.loadgen import request_schedule, schedule_digest\n"
            f"pairs = {PAIRS!r}\n"
            "for arrivals in ('poisson', 'bursty'):\n"
            "    sched = request_schedule(pairs, arrivals, rate=150.0,"
            " duration=2.0, seed=13)\n"
            "    print(arrivals, schedule_digest(sched))\n"
        )
        outputs = []
        for hash_seed in ("0", "31337"):
            out = subprocess.run(
                [sys.executable, str(script)],
                capture_output=True, text=True, timeout=120,
                env={
                    "PYTHONPATH": str(REPO_SRC),
                    "PYTHONHASHSEED": hash_seed,
                    "PATH": "/usr/bin:/bin",
                },
            )
            assert out.returncode == 0, out.stderr
            outputs.append(out.stdout)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 2


# ---------------------------------------------------------------------------
# drivers against a live daemon
# ---------------------------------------------------------------------------
class TestDrivers:
    def test_closed_level_counts_and_answers(self, served):
        result, answers = run_closed_level(
            served.address, PAIRS, concurrency=2, repeats=3,
            collect_answers=True,
        )
        assert result.mode == "closed"
        assert result.level == 2
        assert result.key() == "c2"
        assert result.requests == len(PAIRS) * 3
        assert result.failures == 0
        assert result.failure_rate == 0.0
        assert "errors" not in result.to_dict()
        assert result.qps > 0
        assert result.p999_ms >= result.p99_ms >= result.p50_ms > 0
        assert len(answers) == result.requests
        want = {
            (u, v): d
            for (u, v), d in zip(PAIRS, ORACLE.query_many(
                [(int(u), int(v)) for u, v in PAIRS]
            ))
        }
        for u, v, d in answers:
            assert d == pytest.approx(want[(u, v)], abs=1e-9)

    def test_connection_lost_mid_request_counts_as_worker_crashed(self):
        """A peer that reads each request and hangs up is what a dying
        worker looks like; every such request fails under
        ``worker_crashed`` and the driver reconnects for the next."""
        listener = socket.create_server(("127.0.0.1", 0))

        def accept_read_and_hang_up():
            for _ in PAIRS:  # one connection per request
                conn, _ = listener.accept()
                with conn:
                    conn.recv(4096)

        peer = threading.Thread(target=accept_read_and_hang_up, daemon=True)
        peer.start()
        try:
            result, _ = run_closed_level(
                listener.getsockname(), PAIRS, concurrency=1, timeout=10
            )
        finally:
            peer.join(timeout=10)
            listener.close()
        assert result.failures == len(PAIRS)
        assert result.errors == {"worker_crashed": len(PAIRS)}
        assert result.to_dict()["errors"] == {"worker_crashed": len(PAIRS)}

    def test_closed_level_partition_covers_every_pair(self, served):
        # concurrency above the pair count still issues every pair once
        result, answers = run_closed_level(
            served.address, PAIRS, concurrency=len(PAIRS) + 3,
            collect_answers=True,
        )
        assert result.requests == len(PAIRS)
        assert sorted((u, v) for u, v, _ in answers) == sorted(PAIRS)

    def test_open_level_replays_a_schedule(self, served):
        sched = poisson_schedule(PAIRS, rate=200.0, duration=1.0, seed=6)
        result = run_open_level(served.address, sched, clients=4)
        assert result.mode == "open"
        assert result.requests == len(sched)
        assert result.failures == 0
        assert result.digest == schedule_digest(sched)
        assert result.offered_rate == pytest.approx(
            len(sched) / sched[-1][0], rel=0.01
        )
        assert result.duration_s >= sched[-1][0] * 0.9

    def test_open_level_rejects_empty_schedule(self, served):
        with pytest.raises(ValueError):
            run_open_level(served.address, [])

    def test_drive_load_closed_block(self, served):
        block = drive_load(
            served.address, PAIRS, "closed", [1, 2], repeats=2, workers=2
        )
        assert block["mode"] == "closed"
        assert block["pairs"] == len(PAIRS)
        assert block["repeats"] == 2
        assert block["workers"] == 2
        keys = [lv["key"] for lv in block["levels"]]
        assert keys == ["c1", "c2"]
        for lv in block["levels"]:
            assert lv["requests"] == len(PAIRS) * 2
            assert lv["failure_rate"] == 0.0

    def test_drive_load_open_block_keys_by_requested_rate(self, served):
        block = drive_load(
            served.address, PAIRS, "open", [100], arrivals="bursty",
            duration=1.0, clients=4, seed=5,
        )
        assert block["mode"] == "open"
        assert block["arrivals"] == "bursty"
        assert block["duration_s"] == 1.0
        (level,) = block["levels"]
        # keyed by the *requested* rate even though the sampled offered
        # rate wobbles with the seed
        assert level["key"] == "r100"
        assert level["schedule_sha256"]

    def test_drive_load_validates_inputs(self, served):
        with pytest.raises(ValueError):
            drive_load(served.address, PAIRS, "pipelined", [1])
        with pytest.raises(ValueError):
            drive_load(served.address, PAIRS, "closed", [])


# ---------------------------------------------------------------------------
# schema v6: round-trip and gating
# ---------------------------------------------------------------------------
def _load_record(load):
    return ProfileRecord(
        profile="slt-er", tier="smoke", family="er", algorithm="slt",
        section="§3", seed=0, params={}, n=GRAPH.n, m=GRAPH.m,
        generation_seconds=0.1, construction_seconds=0.2,
        certification_seconds=0.0, peak_memory_bytes=None, rounds=None,
        metrics={}, ok=True, load=load,
    )


def _level(key="c2", qps=5000.0, failure_rate=0.0, requests=100):
    mode = "closed" if key.startswith("c") else "open"
    return {
        "mode": mode, "level": float(key[1:]), "key": key,
        "requests": requests, "failures": int(failure_rate * requests),
        "failure_rate": failure_rate, "duration_s": requests / qps,
        "p50_ms": 0.4, "p99_ms": 1.5, "p999_ms": 3.0, "qps": qps,
    }


def _report(load):
    return make_report([_load_record(load)], suite="load")


class TestSchemaV6:
    def test_load_block_round_trips(self, served, tmp_path):
        block = drive_load(served.address, PAIRS, "closed", [2], workers=2)
        record = _load_record(block)
        thawed = ProfileRecord.from_dict(record.to_dict())
        assert thawed.load == record.load
        report = make_report([record], suite="load")
        assert report["schema_version"] == 6
        path = tmp_path / "load.json"
        write_report(report, path)
        loaded = load_report(path)
        assert loaded["records"][0]["load"] == block

    def test_identical_load_blocks_self_compare_clean(self):
        load = {"mode": "closed", "pairs": 7, "seed": 0, "repeats": 1,
                "levels": [_level("c1"), _level("c2")]}
        comparison = compare_reports(_report(load), _report(load))
        assert comparison.ok
        load_deltas = [d for d in comparison.deltas
                       if d.quantity.startswith("load_")]
        assert {d.quantity for d in load_deltas} >= {
            "load_c1_qps", "load_c2_qps", "load_c1_p99_ms",
            "load_c1_failure_rate", "load_c1_requests",
        }
        assert all(d.status == "ok" for d in load_deltas)

    def test_qps_collapse_is_a_regression(self):
        base = {"mode": "closed", "pairs": 7, "seed": 0, "repeats": 1,
                "levels": [_level("c2", qps=6000.0)]}
        cand = {"mode": "closed", "pairs": 7, "seed": 0, "repeats": 1,
                "levels": [_level("c2", qps=2000.0)]}
        comparison = compare_reports(_report(base), _report(cand))
        assert not comparison.ok
        (delta,) = [d for d in comparison.deltas
                    if d.quantity == "load_c2_qps"]
        assert delta.status == "regression"
        # qps gates on *drops*: the improvement direction never fails
        assert compare_reports(_report(cand), _report(base)).ok

    def test_failure_rate_rise_gates_but_the_floor_absorbs_noise(self):
        base = {"mode": "closed", "pairs": 7, "seed": 0, "repeats": 1,
                "levels": [_level("c2", failure_rate=0.0)]}
        noisy = {"mode": "closed", "pairs": 7, "seed": 0, "repeats": 1,
                 "levels": [_level("c2", failure_rate=0.005)]}
        broken = {"mode": "closed", "pairs": 7, "seed": 0, "repeats": 1,
                  "levels": [_level("c2", failure_rate=0.05)]}
        assert compare_reports(_report(base), _report(noisy)).ok
        comparison = compare_reports(_report(base), _report(broken))
        assert not comparison.ok
        (delta,) = [d for d in comparison.deltas
                    if d.quantity == "load_c2_failure_rate"]
        assert delta.status == "regression"

    def test_pre_v6_baseline_never_gates_on_load(self, tmp_path):
        """A v5 report (no ``load`` key at all) compares cleanly against
        a current report that has one — absent, not regressed."""
        current = _report({"mode": "closed", "pairs": 7, "seed": 0,
                           "repeats": 1, "levels": [_level("c2")]})
        v5 = make_report([_load_record(None)], suite="load")
        v5["schema_version"] = 5
        for rec in v5["records"]:
            rec.pop("load", None)
        path = tmp_path / "v5.json"
        write_report(v5, path)
        baseline = load_report(path)
        assert baseline["records"][0].get("load") is None
        comparison = compare_reports(baseline, current)
        assert comparison.ok
        absent = [d for d in comparison.deltas if d.status == "absent"]
        assert {d.quantity for d in absent} >= {
            "load_c2_qps", "load_c2_failure_rate", "load_c2_p99_ms",
        }

    def test_disjoint_level_sets_compare_as_absent(self):
        base = {"mode": "closed", "pairs": 7, "seed": 0, "repeats": 1,
                "levels": [_level("c1")]}
        cand = {"mode": "closed", "pairs": 7, "seed": 0, "repeats": 1,
                "levels": [_level("c4")]}
        comparison = compare_reports(_report(base), _report(cand))
        assert comparison.ok
        statuses = {d.quantity: d.status for d in comparison.deltas
                    if d.quantity.startswith("load_")}
        assert statuses["load_c1_qps"] == "absent"
        assert statuses["load_c4_qps"] == "absent"


# ---------------------------------------------------------------------------
# daemon launch/stop round trip (the CI smoke path, in miniature)
# ---------------------------------------------------------------------------
class TestDaemonLifecycle:
    def test_launch_query_stop(self):
        proc, address = launch_daemon(
            ["--profile", "slt-er", "--tier", "smoke",
             "--workers", "1", "--port", "0"],
        )
        try:
            result, answers = run_closed_level(
                address,
                [("0", "1"), ("0", "2")],
                concurrency=1,
                collect_answers=True,
            )
            assert result.failures == 0
            assert len(answers) == 2
        finally:
            rc = stop_daemon(proc)
        assert rc == 0
