"""Shared-memory publication of a built oracle for multi-worker serving.

The daemon's workers must not hold N pickled oracle copies: the frozen
CSR arrays, landmark potentials and component labels are the oracle's
entire bulk, and they are read-only after construction.
:func:`publish_oracle` lays a built :class:`DistanceOracle` out in one
file on the ``/dev/shm`` tmpfs (created ``O_EXCL``, mode 0600);
:func:`attach_oracle` and :func:`attach_fd` map it read-only and
rebuild a fully functional oracle whose array sections are zero-copy
``memoryview`` casts over the mapping (the same idiom the ``.rpg``
mmap loader uses in :mod:`repro.kernels.binfmt`).  Linux tmpfs is the
supported platform.  Nothing registers the segment with
multiprocessing's resource tracker, so no extra process is started to
watch it.

Segment layout (all offsets 8-byte aligned)::

    [0:8)    magic  b"RPSHM01\\0"
    [8:16)   !Q  meta offset
    [16:24)  !Q  meta length
    [24:32)  !Q  total payload bytes
    [32:..)  array sections: indptr 'q', indices 'i', weights 'd',
             components 'i', potentials 'd' (L rows of n, one section)
    [meta)   pickled dict: verts, landmark_indices, strategy, seed,
             cache_size, n/m2/L, and the section offset table

Only the label list and a handful of scalars travel through pickle —
every O(n + m) array is shared.  Worker-side private memory growth on
attach is therefore bounded by the vertex-label list and the index
dict, which the memory-footprint test gates against the payload size.

Lifetime: the publisher owns the segment's name, its descriptor and
its own mapping.  The daemon hands the descriptor to its workers and
removes the name at once (:meth:`OracleShare.unlink_name`), so the
kernel frees the pages when the last process holding the descriptor
or a mapping exits, however it exits.  :meth:`OracleShare.unlink`
removes the name (if still there), unmaps and closes the descriptor.
Attached oracles hold live memoryviews into the mapping, so
:meth:`AttachedOracle.close` drops the oracle and releases every
exported view before unmapping; workers call it on their way out.
"""

from __future__ import annotations

import array
import mmap
import os
import pickle
import secrets
import struct
from typing import Any, Dict, List, Tuple

from repro.graphs.csr import CSRGraph
from repro.oracle.oracle import DistanceOracle

MAGIC = b"RPSHM01\x00"
_HEADER = struct.Struct("!QQQ")
_HEADER_END = len(MAGIC) + _HEADER.size
_SHM_DIR = "/dev/shm"


def _align(offset: int) -> int:
    return (offset + 7) & ~7


def _path(name: str) -> str:
    return os.path.join(_SHM_DIR, name.lstrip("/"))


class OracleShare:
    """Publisher-side handle: owns the segment's name, descriptor and
    the publisher's mapping."""

    def __init__(
        self,
        name: str,
        fd: int,
        buf: mmap.mmap,
        payload_bytes: int,
        n: int,
        m2: int,
        landmarks: int,
    ) -> None:
        self.name = name
        self.fd = fd
        self._buf = buf
        self.payload_bytes = payload_bytes
        self.n = n
        self.m2 = m2
        self.landmarks = landmarks

    def unlink_name(self) -> None:
        """Remove the ``/dev/shm`` name; the descriptor and every mapping
        stay valid, and the pages go with the last of them."""
        try:
            os.unlink(_path(self.name))
        except FileNotFoundError:
            pass

    def unlink(self) -> None:
        """Remove the name, unmap, and close the publisher's descriptor."""
        self.unlink_name()
        self._buf.close()
        if self.fd >= 0:
            os.close(self.fd)
            self.fd = -1


class AttachedOracle:
    """Worker-side handle pairing the rebuilt oracle with its mapping.

    The oracle's array sections are memoryviews into the mapping;
    :meth:`close` drops the oracle reference and releases them all
    before unmapping (it never unlinks — the publisher owns that).
    """

    def __init__(
        self,
        oracle: DistanceOracle,
        seg: mmap.mmap,
        views: List[memoryview],
        payload_bytes: int,
    ) -> None:
        self.oracle: "DistanceOracle | None" = oracle
        self._seg = seg
        self._views = views
        self.payload_bytes = payload_bytes

    def close(self) -> None:
        """Release the oracle and every exported view, then unmap."""
        self.oracle = None
        for view in self._views:
            view.release()
        self._views.clear()
        self._seg.close()


def publish_oracle(oracle: DistanceOracle) -> OracleShare:
    """Lay ``oracle`` out in a fresh shared-memory segment.

    Returns the publisher handle; hand its ``name`` to worker processes
    for :func:`attach_oracle`.  The oracle itself is unchanged.
    """
    csr = oracle.csr
    n = csr.n
    m2 = len(csr.indices)
    flat_pots = array.array("d")
    for pot in oracle.potentials:
        flat_pots.extend(pot)
    raw_sections: List[Tuple[str, str, bytes]] = [
        ("indptr", "q", array.array("q", csr.indptr).tobytes()),
        ("indices", "i", array.array("i", csr.indices).tobytes()),
        ("weights", "d", memoryview(csr.weights).tobytes()),
        ("components", "i", array.array("i", oracle.components).tobytes()),
        ("potentials", "d", flat_pots.tobytes()),
    ]
    sections: Dict[str, Tuple[int, int, str]] = {}
    offset = _HEADER_END
    for sec_name, code, raw in raw_sections:
        offset = _align(offset)
        sections[sec_name] = (offset, len(raw), code)
        offset += len(raw)
    meta_offset = _align(offset)
    meta = pickle.dumps(
        {
            "verts": list(csr.verts),
            "landmark_indices": list(oracle.landmark_indices),
            "strategy": oracle.strategy,
            "seed": oracle.seed,
            "cache_size": oracle.cache_size,
            "n": n,
            "m2": m2,
            "landmarks": len(oracle.potentials),
            "sections": sections,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    total = meta_offset + len(meta)
    name = f"rpshm_{secrets.token_hex(8)}"
    fd = os.open(_path(name), os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o600)
    try:
        os.ftruncate(fd, total)
        buf = mmap.mmap(fd, total)
    except BaseException:
        os.close(fd)
        os.unlink(_path(name))
        raise
    buf[: len(MAGIC)] = MAGIC
    _HEADER.pack_into(buf, len(MAGIC), meta_offset, len(meta), total)
    for sec_name, _code, raw in raw_sections:
        off, length, _ = sections[sec_name]
        buf[off : off + length] = raw
    buf[meta_offset : meta_offset + len(meta)] = meta
    return OracleShare(
        name, fd, buf, payload_bytes=total, n=n, m2=m2, landmarks=len(oracle.potentials)
    )


def attach_oracle(name: str) -> AttachedOracle:
    """Rebuild a servable oracle over the published segment ``name``.

    Raises
    ------
    ValueError
        When the segment does not carry the expected magic.
    """
    fd = os.open(_path(name), os.O_RDONLY)
    try:
        return attach_fd(fd)
    finally:
        os.close(fd)


def attach_fd(fd: int) -> AttachedOracle:
    """Rebuild a servable oracle over the segment open on ``fd``.

    The CSR arrays, potentials and components of the returned oracle are
    zero-copy views into a read-only mapping; only the vertex labels and
    the label-index dict are private to the attaching process.  The
    mapping holds its own reference, so the caller may close ``fd``.

    Raises
    ------
    ValueError
        When the segment does not carry the expected magic.
    """
    seg = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
    if seg[: len(MAGIC)] != MAGIC:
        seg.close()
        raise ValueError(f"shared segment lacks the {MAGIC!r} magic")
    meta_offset, meta_len, total = _HEADER.unpack_from(seg, len(MAGIC))
    meta: Dict[str, Any] = pickle.loads(seg[meta_offset : meta_offset + meta_len])
    sections: Dict[str, Tuple[int, int, str]] = meta["sections"]
    views: List[memoryview] = []

    def section(sec_name: str) -> memoryview:
        off, length, code = sections[sec_name]
        view = memoryview(seg)[off : off + length].cast(code)
        views.append(view)
        return view

    n = int(meta["n"])
    landmarks = int(meta["landmarks"])
    indptr = section("indptr")
    indices = section("indices")
    weights = section("weights")
    components = section("components")
    flat_pots = section("potentials")
    potentials = [flat_pots[i * n : (i + 1) * n] for i in range(landmarks)]
    views.extend(potentials)
    csr = CSRGraph(indptr, indices, weights, list(meta["verts"]))  # type: ignore[arg-type]
    oracle = DistanceOracle(
        csr,
        list(meta["landmark_indices"]),
        potentials,  # type: ignore[arg-type]
        components,  # type: ignore[arg-type]
        str(meta["strategy"]),
        int(meta["seed"]),
        cache_size=int(meta["cache_size"]),
        copy=False,
    )
    return AttachedOracle(oracle, seg, views, payload_bytes=int(total))
