"""Persistence for the public index (PADS / KPADS / PageRank).

The public index is the only expensive artifact in PPKWS — built once
per public graph, shared by every user — so it is kept on disk, in a form
that loads faster than it rebuilds: one flat little-endian binary layout
(format v3), written and read with the standard library only::

    "PPKWSIDX" | version u32 | section count u32 | u64 length per section
    meta             JSON: k, kpads_per_center, num_vertices, graph_sha256,
                     "vertices" (id -> vertex), "labels" (id -> keyword)
    pagerank.ids i   pagerank.scores d
    pads.owners i    pads.indptr i     pads.centers i   pads.dists d
    kpads.indptr i   kpads.centers i   kpads.dists d    kpads.witnesses i
    cand.indptr i    cand.dists d      cand.vertices i
    sha-256, 32 raw bytes, over every preceding byte

``i`` sections are int32 vertex ids and row pointers, ``d`` float64.  A
vertex is written once, in the vertex table, and as its id elsewhere, so
``int`` and ``str`` vertices (the only persistable types) keep their
type and a distance is the same ``float`` bit for bit.  ``pads.indptr``
slices centers/dists per owner, ``kpads.indptr`` per keyword,
``cand.indptr`` per (keyword, center) candidate list.

**Entry order is data.**  ``estimate_with_witness``, ``top_candidates``
and ``build_kpads`` break distance ties by first-seen, so every map is
written in iteration order and rebuilt in it: a loaded index answers
exactly as the built one.  ``save_index`` is a pure function of the
index (equal indexes, byte-identical files) and writes through
:func:`repro.ioutil.atomic_write`: a crash mid-save leaves the previous
file intact, never a torn hybrid.

``load_index`` checks, in order: the magic (an empty file, a text index
of a previous release); the trailing sha-256 on the raw buffer, before
any section is decoded (truncation, a torn trailer, a bit flip
anywhere); then version, length table, item sizes, id ranges and row
pointers (damage older than the checksum).  Each failure raises
:class:`~repro.exceptions.IndexCorruptError` and the service quarantines
the file.  A *stale* file — sound, but for another graph by
``num_vertices`` or ``graph_sha256`` (:meth:`FrozenGraph.digest
<repro.graph.frozen.FrozenGraph.digest>`) — raises the base
:class:`~repro.exceptions.IndexBuildError`: callers rebuild.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import struct
import sys
from array import array
from itertools import accumulate, chain, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterable, List, Union

from repro import faults
from repro.core.framework import PublicIndex
from repro.exceptions import IndexBuildError, IndexCorruptError
from repro.faults import points
from repro.graph.frozen import freeze
from repro.ioutil import atomic_write
from repro.sketches.base import DistanceSketch
from repro.sketches.kpads import KeywordSketch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.protocol import GraphLike

__all__ = ["save_index", "load_index"]

PathLike = Union[str, "os.PathLike[str]"]

_MAGIC = b"PPKWSIDX"
_FORMAT_VERSION = 3
_DIGEST_BYTES = 32  # sha-256
#: array typecode of every section after the JSON meta, in file order
_SECTIONS = {
    "pagerank.ids": "i", "pagerank.scores": "d",
    "pads.owners": "i", "pads.indptr": "i", "pads.centers": "i", "pads.dists": "d",
    "kpads.indptr": "i", "kpads.centers": "i", "kpads.dists": "d",
    "kpads.witnesses": "i",
    "cand.indptr": "i", "cand.dists": "d", "cand.vertices": "i",
}
#: magic, version, section count, byte length of the meta and of each section
_HEADER = struct.Struct(f"<8sII{len(_SECTIONS) + 1}Q")


def _sections(index: PublicIndex) -> List[bytes]:
    """The file's sections (meta first), every map in iteration order."""
    pads, kpads, scores = index.pads.entries, index.kpads, index.pagerank_scores
    vertex_ids = {v: i for i, v in enumerate(index.graph.vertices())}
    for v in chain(vertex_ids, kpads.entries):
        if isinstance(v, bool) or not isinstance(v, (int, str)):
            raise IndexBuildError(
                f"only int and str vertices can be persisted, got {type(v).__name__}"
            )
    vid = vertex_ids.__getitem__
    merged = list(kpads.entries.values())
    witnesses: List[Iterable[Any]] = []
    lists: List[Any] = []
    for t, centers in kpads.entries.items():
        witnesses.append(map(kpads.witnesses[t].__getitem__, centers))
        lists.extend(map(kpads.candidates.get(t, {}).get, centers, repeat(())))
    pairs = list(chain.from_iterable(lists))
    columns: List[Iterable[Any]] = [
        map(vid, scores), scores.values(),
        map(vid, pads), accumulate(map(len, pads.values()), initial=0),
        map(vid, chain.from_iterable(pads.values())),
        chain.from_iterable(s.values() for s in pads.values()),
        accumulate(map(len, merged), initial=0),
        map(vid, chain.from_iterable(merged)),
        chain.from_iterable(m.values() for m in merged),
        map(vid, chain.from_iterable(witnesses)),
        accumulate(map(len, lists), initial=0),
        map(itemgetter(0), pairs), map(vid, map(itemgetter(1), pairs)),
    ]
    out = [json.dumps({
        "k": index.pads.k,
        "kpads_per_center": kpads.per_center,
        "num_vertices": len(vertex_ids),
        "graph_sha256": freeze(index.graph).digest(),
        "vertices": list(vertex_ids),
        "labels": list(kpads.entries),
    }).encode("utf-8")]
    try:
        for code, column in zip(_SECTIONS.values(), columns):
            section = array(code, column)
            if sys.byteorder == "big":  # pragma: no cover - platform
                section.byteswap()
            out.append(section.tobytes())
    except (KeyError, TypeError, OverflowError) as exc:
        raise IndexBuildError(f"index cannot be flattened: {exc!r}") from exc
    return out


def save_index(index: PublicIndex, path: PathLike) -> None:
    """Write a :class:`PublicIndex` to ``path`` atomically (binary v3).

    The new file becomes visible at ``path`` only after it is complete
    and fsynced; a crash at any instant leaves the previous contents of
    ``path`` (or no file) — never a torn write.
    """
    sections = _sections(index)
    head = _HEADER.pack(_MAGIC, _FORMAT_VERSION, len(sections), *map(len, sections))
    digest = hashlib.sha256()
    with atomic_write(
        os.fspath(path), points.PERSIST_SAVE_WRITE, points.PERSIST_SAVE_FSYNC,
        points.PERSIST_SAVE_RENAME, binary=True,
    ) as fh:
        for block in (head, *sections):
            digest.update(block)
            fh.write(block)
        fh.write(digest.digest())


def _verified_sections(path: PathLike, raw: bytes) -> List[memoryview]:
    """Integrity-check the raw file; return its sections, undecoded."""
    if not raw:
        raise IndexCorruptError(path, "empty index file")
    if raw[: len(_MAGIC)] != _MAGIC:
        raise IndexCorruptError(path, "unsupported index format (no v3 magic)")
    view = memoryview(raw)
    body = len(raw) - _DIGEST_BYTES
    if body < _HEADER.size or hashlib.sha256(view[:body]).digest() != view[body:]:
        raise IndexCorruptError(path, "checksum mismatch (torn write or bit flip?)")
    _, version, count, *lengths = _HEADER.unpack_from(raw)
    if version != _FORMAT_VERSION:
        raise IndexCorruptError(path, f"unsupported index format version {version}")
    bounds = list(accumulate(lengths, initial=_HEADER.size))
    if count != len(lengths) or bounds[-1] != body:
        reason = f"section table: {count} sections end at byte {bounds[-1]} of {body}"
        raise IndexCorruptError(path, reason)
    return [view[a:b] for a, b in zip(bounds, bounds[1:])]


def load_index(graph: "GraphLike", path: PathLike) -> PublicIndex:
    """Read a :class:`PublicIndex` previously written by :func:`save_index`.

    ``graph`` must be the public graph the index was built over, in
    either backend.  Raises :class:`~repro.exceptions.IndexCorruptError`
    when the file fails an integrity check and plain
    :class:`~repro.exceptions.IndexBuildError` when it is merely stale
    for ``graph``.  The cyclic GC is paused while the maps are rebuilt —
    a million containers, none of them garbage, otherwise trigger full
    collections costing a third of the load — and one collection at the
    end promotes them here, not inside the first requests served.
    """
    faults.fire(points.PERSIST_LOAD_READ)
    with open(path, "rb") as fh:
        raw = fh.read()
    sections = _verified_sections(path, raw)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _decode(graph, sections)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        # Checksum fine but undecodable: damaged before it was computed.
        raise IndexCorruptError(path, f"undecodable index: {exc!r}") from exc
    finally:
        if gc_was_enabled:
            gc.collect()
            gc.enable()


def _decode(graph: "GraphLike", sections: List[memoryview]) -> PublicIndex:
    meta, views = json.loads(bytes(sections[0])), dict(zip(_SECTIONS, sections[1:]))
    vertices, labels, k = meta["vertices"], meta["labels"], meta["k"]
    if (
        meta["num_vertices"] != graph.num_vertices
        or meta["graph_sha256"] != freeze(graph).digest()
    ):  # stale, not corrupt: callers rebuild silently
        raise IndexBuildError(
            f"index is for another graph (of {meta['num_vertices']} vertices)"
        )

    def column(name: str) -> List[Any]:
        section = array(_SECTIONS[name])
        section.frombytes(views[name])  # ValueError unless whole items
        if sys.byteorder == "big":  # pragma: no cover - platform
            section.byteswap()
        return section.tolist()

    def vertex_column(name: str) -> List[Any]:
        ids = column(name)
        if ids and not 0 <= min(ids) <= max(ids) < len(vertices):
            raise ValueError(f"{name}: vertex id out of range")
        return list(map(vertices.__getitem__, ids))

    def indptr(name: str, rows: int, *columns: List[Any]) -> List[int]:
        """Row pointer ``name``: ``rows`` slices of equally long ``columns``."""
        ptr = column(name)
        shaped = len(ptr) == rows + 1 and ptr[0] == 0 and ptr == sorted(ptr)
        if not shaped or any(len(c) != ptr[-1] for c in columns):
            raise ValueError(f"{name}: does not slice its columns")
        return ptr

    ids, scores = vertex_column("pagerank.ids"), column("pagerank.scores")
    if len(ids) != len(scores):
        raise ValueError("pagerank: ids and scores differ in length")
    owners = vertex_column("pads.owners")
    centers, dists = vertex_column("pads.centers"), column("pads.dists")
    ptr = indptr("pads.indptr", len(owners), centers, dists)
    pads = {
        v: dict(zip(centers[a:b], dists[a:b]))
        for v, a, b in zip(owners, ptr, ptr[1:])
    }
    centers, dists = vertex_column("kpads.centers"), column("kpads.dists")
    witnesses = vertex_column("kpads.witnesses")
    cand_dists, cand_vertices = column("cand.dists"), vertex_column("cand.vertices")
    ptr = indptr("cand.indptr", len(centers), cand_dists, cand_vertices)
    pairs = list(zip(cand_dists, cand_vertices))
    lists = [pairs[a:b] for a, b in zip(ptr, ptr[1:])]
    ptr = indptr("kpads.indptr", len(labels), centers, dists, witnesses, lists)
    entries, wit, cand = {}, {}, {}
    for t, a, b in zip(labels, ptr, ptr[1:]):
        entries[t] = dict(zip(centers[a:b], dists[a:b]))
        wit[t] = dict(zip(centers[a:b], witnesses[a:b]))
        cand[t] = dict(zip(centers[a:b], lists[a:b]))
    sketch = DistanceSketch(pads, k, kind="PADS")
    kpads = KeywordSketch(entries, wit, k, cand, meta["kpads_per_center"])
    return PublicIndex(graph, sketch, kpads, dict(zip(ids, scores)))
