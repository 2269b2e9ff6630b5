"""Bulk numpy paths of the seeded graph generators, byte-identical.

:func:`repro.graphs.generators.erdos_renyi_graph` and
:func:`~repro.graphs.generators.ring_chords_graph` build every
``G(n, p)`` and ring-chords workload the harness runs.  Their
pure-Python loops pay one interpreted ``rng.random()`` per vertex pair,
or one splitmix64 hash per edge.  This module does the same arithmetic
on whole chunks of draws or vertices and hands back only the edges,
which the generators then insert in their original order.  The result
is the *same graph*: the same adjacency order, bit-equal weights, and
the same RNG state after the edge phase.

ER draws come from the caller's own :class:`random.Random`, never from
a second generator.  ``getrandbits(64 * m)`` emits the same 32-bit
Mersenne Twister words that ``m`` calls of ``random()`` consume two at
a time, least significant word first.  So the pair of words ``(a, b)``
yields ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``, which is exactly
``random()``'s value (:func:`random_doubles`).

The loop consumes draws as a stream: the test of pair ``t``, then,
when the test accepts, the weight of that edge.  A draw ``j`` is a
weight slot exactly when draw ``j - 1`` was an accepted test, so a
rejecting draw is always followed by a test.  Within each run of
consecutive draws below ``p`` the tests and weight slots alternate,
starting with a test: the accepted tests are the even-ranked members
of each run.  A chunk never holds more draws than the loop still has
to make, so the stream stops exactly where the loop's would.

Each function returns ``None`` when numpy is absent; the generators
then run their pure-Python loops.  ``tests/test_generator_parity.py``
holds both paths to byte equality.
"""

from __future__ import annotations

import random
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.graphs.generators import _MASK64, _RC_MIX1, _RC_MIX2, _RC_U, _RC_V
from repro.kernels.dispatch import numpy_or_none

#: most doubles drawn per ER chunk (~1 MB of random bits)
ER_CHUNK_DRAWS = 1 << 17

#: vertices hashed per ring-chords chunk
RC_CHUNK_VERTICES = 1 << 14

#: one chunk of edges: endpoint indices into the vertex list, and one
#: float per edge (the raw weight draw for ER, the weight for ring-chords)
EdgeChunk = Tuple[List[int], List[int], List[float]]


def random_doubles(np: Any, rng: random.Random, m: int) -> Any:
    """``m`` doubles equal to ``[rng.random() for _ in range(m)]``.

    Leaves ``rng`` in the state those ``m`` calls would leave it in.
    """
    words = np.frombuffer(rng.getrandbits(64 * m).to_bytes(8 * m, "little"), dtype="<u4")
    a = (words[0::2] >> 5).astype(np.float64)
    b = (words[1::2] >> 6).astype(np.float64)
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)


def er_edge_draws(rng: random.Random, n: int, p: float) -> Optional[Iterator[EdgeChunk]]:
    """The accepted pairs of the ``G(n, p)`` edge loop, in loop order.

    Replays ``for u < v: if rng.random() < p: weight(rng.random())``
    and yields ``(us, vs, draws)`` chunks: each accepted pair ``(u, v)``
    with the draw its weight is computed from.  ``None`` without numpy.
    """
    np = numpy_or_none()
    if np is None:
        return None
    return _er_chunks(np, rng, n, p)


def _er_chunks(np: Any, rng: random.Random, n: int, p: float) -> Iterator[EdgeChunk]:
    total = n * (n - 1) // 2
    # row u's pairs (u, u+1..n-1) are tests row_first[u] .. row_first[u+1]-1
    rows = np.arange(n, dtype=np.int64)
    row_first = rows * (2 * n - rows - 1) // 2
    tests = 0  # tests consumed so far
    pending: Optional[Tuple[int, int]] = None  # accepted; its weight slot is the next draw
    while tests < total or pending is not None:
        draws = random_doubles(np, rng, min(ER_CHUNK_DRAWS, total - tests + (pending is not None)))
        if pending is not None:
            yield [pending[0]], [pending[1]], [float(draws[0])]
            pending = None
            draws = draws[1:]
        hits = np.flatnonzero(draws < p)
        rank = np.arange(len(hits))
        run_start = np.ones(len(hits), dtype=bool)
        run_start[1:] = np.diff(hits) != 1
        # a hit's rank within its run of consecutive hits: even ranks are tests
        accepted = hits[(rank - np.maximum.accumulate(np.where(run_start, rank, 0))) % 2 == 0]
        # the k-th accepted test follows k weight slots within this chunk
        t = tests + accepted - np.arange(len(accepted))
        u = np.searchsorted(row_first, t, side="right") - 1
        v = t - row_first[u] + u + 1
        tests += len(draws) - len(accepted)
        if len(accepted) and accepted[-1] + 1 == len(draws):
            pending = (int(u[-1]), int(v[-1]))  # weight slot opens the next chunk
            tests += 1  # that slot was counted as a test above
            u, v, accepted = u[:-1], v[:-1], accepted[:-1]
        yield u.tolist(), v.tolist(), draws[accepted + 1].tolist()


def ring_chord_weights(np: Any, seed: int, us: Any, vs: Any) -> Any:
    """:func:`~repro.graphs.generators.ring_chord_weight` over broadcast
    uint64 endpoint arrays, bit-identical (wrapping uint64 splitmix64)."""
    u64 = np.uint64
    a = np.minimum(us, vs)
    b = np.maximum(us, vs)
    z = u64(seed & _MASK64) ^ (a * u64(_RC_U) + b * u64(_RC_V))
    z = (z ^ (z >> u64(30))) * u64(_RC_MIX1)
    z = (z ^ (z >> u64(27))) * u64(_RC_MIX2)
    z = z ^ (z >> u64(31))
    return np.float64(1.0) + z.astype(np.float64) / (np.float64(2.0) ** np.float64(64))


def ring_chord_edges(n: int, offsets: Sequence[int], seed: int) -> Optional[Iterator[EdgeChunk]]:
    """The ring-chords edges ``u < (u + o) % n`` with their weights, in
    the generator's ``(u, offset)`` order.  ``None`` without numpy."""
    np = numpy_or_none()
    if np is None:
        return None
    return _ring_chord_chunks(np, n, offsets, seed)


def _ring_chord_chunks(np: Any, n: int, offsets: Sequence[int], seed: int) -> Iterator[EdgeChunk]:
    offs = np.asarray(offsets, dtype=np.uint64)
    for lo in range(0, n, RC_CHUNK_VERTICES):
        us = np.arange(lo, min(lo + RC_CHUNK_VERTICES, n), dtype=np.uint64)[:, None]
        vs = (us + offs) % np.uint64(n)
        keep = us < vs  # row-major boolean indexing keeps the loop order
        yield (
            np.broadcast_to(us, vs.shape)[keep].tolist(),
            vs[keep].tolist(),
            ring_chord_weights(np, seed, us, vs)[keep].tolist(),
        )
