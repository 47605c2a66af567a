"""Persistence for the public index (PADS / KPADS / PageRank).

The public index is the only expensive artifact in PPKWS — built once
per public graph, shared by every user — so it is kept on disk, in a form
that a restart serves from instead of rebuilding: one flat little-endian
binary layout (format v3), written with the standard library and read as
zero-copy ``numpy`` views of the file::

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

**Entry order is data.**  ``estimate_with_witness``, ``reach`` and
``build_kpads`` break distance ties by first-seen, so every map is
written in iteration order and rebuilt in it: a loaded index answers
exactly as the built one.

**``load_index`` verifies and wraps; it decodes no sketch row.**  The
loaded :class:`~repro.sketches.base.DistanceSketch` and
:class:`~repro.sketches.kpads.KeywordSketch` start with no rows and a
*row source* over the verified sections, which are also their flat
``arrays`` (batched probes read those, undecoded).  A probe's miss
decodes one PADS row (a vertex) or one KPADS ``(entries, witnesses,
candidates)`` triple (a keyword) with the same ``dict(zip(...))`` over
its slice, in the saved order; a hit is the plain ``dict.get`` of a
built sketch.  Row sources
pickle as their sections, so a loaded index replicates to shard workers
undecoded.  Reading ``entries`` (whole-index views, ``save_index``)
decodes every remaining row, in file order: a loaded index saves back to
the bytes it was loaded from, touched or not.

``save_index`` is a pure function of the index (equal indexes,
byte-identical files) and writes through
:func:`repro.ioutil.atomic_write`: a crash mid-save leaves the previous
file intact, never a torn hybrid.

``load_index`` checks, in order: the magic (an empty file, a text index
of a previous release); the trailing sha-256 on the raw buffer, before
any section is decoded (truncation, a torn trailer, a bit flip
anywhere); then version, length table, item sizes, every id's range and
every row pointer (damage older than the checksum).  The checks are
whole-section array operations, so they stay eager: damage in a row no
probe has touched yet still fails the load, never a later probe.  Each
failure raises :class:`~repro.exceptions.IndexCorruptError` and the
service quarantines the file.  A *stale* file — sound, but for another graph by
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
from typing import (
    TYPE_CHECKING, Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union,
)

import numpy as np

from repro import faults
from repro.core.framework import PublicIndex
from repro.exceptions import IndexBuildError, IndexCorruptError
from repro.faults import points
from repro.graph.frozen import freeze
from repro.ioutil import atomic_write
from repro.sketches.base import DistanceSketch, PadsArrays
from repro.sketches.kpads import KeywordArrays, KeywordSketch

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
#: the loader's view of each typecode: little-endian whatever the platform
_DTYPES = {"i": np.dtype("<i4"), "d": np.dtype("<f8")}
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
        "graph_sha256": index.graph.digest(),
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


class _KpadsRows(KeywordArrays):
    """KPADS ``(entries, witnesses, candidates)`` rows per keyword, straight
    from the ``kpads.*`` and ``cand.*`` sections (a sketch's source)."""

    __slots__ = ("cand_indptr", "cand_dists", "cand_vertices")

    def __init__(self, vertices: List[Any], labels: List[Any], *columns: Any) -> None:
        super().__init__(
            vertices, {t: row for row, t in enumerate(labels)}, *columns[:4])
        self.cand_indptr, self.cand_dists, self.cand_vertices = columns[4:]

    def __iter__(self) -> Iterator[Any]:
        return iter(self.row_of)

    def __call__(self, keyword: Any) -> Optional[Tuple[Dict[Any, Any], ...]]:
        row = self.row_of.get(keyword)
        if row is None:
            return None
        vertex = self.vertices.__getitem__
        a, b = self.indptr[row : row + 2].tolist()
        centers = list(map(vertex, self.centers[a:b].tolist()))
        ptr = self.cand_indptr[a : b + 1].tolist()
        lo, hi = ptr[0], ptr[-1]
        pairs = list(zip(
            self.cand_dists[lo:hi].tolist(),
            map(vertex, self.cand_vertices[lo:hi].tolist()),
        ))
        lists = [pairs[i - lo : j - lo] for i, j in zip(ptr, ptr[1:])]
        return (
            dict(zip(centers, self.dists[a:b].tolist())),
            dict(zip(centers, map(vertex, self.witnesses[a:b].tolist()))),
            dict(zip(centers, lists)),
        )


def load_index(graph: "GraphLike", path: PathLike) -> PublicIndex:
    """Read a :class:`PublicIndex` previously written by :func:`save_index`.

    ``graph`` must be the public graph the index was built over; it is
    frozen first, as :meth:`PublicIndex.build` does, and the returned
    index serves that :class:`~repro.graph.frozen.FrozenGraph`.  Raises
    :class:`~repro.exceptions.IndexCorruptError` when the file fails an
    integrity check and plain
    :class:`~repro.exceptions.IndexBuildError` when it is merely stale
    for ``graph``.  Every check runs here; the sketches then decode each
    row from the verified sections on its first lookup.

    The cyclic GC is not paused: the load builds a vertex list and two
    row tables, not the million containers that once made a pause pay.
    The closing ``gc.collect()`` stays.  It promotes what the caller has
    just built (the public graph) here rather than inside the first
    attach, which it halves (18.4 -> 9.2 ms on the bench graph, at no
    measurable ``setup_s`` cost; EXPERIMENTS.md, "Sketch rows decoded on
    first touch").
    """
    faults.fire(points.PERSIST_LOAD_READ)
    with open(path, "rb") as fh:
        raw = fh.read()
    sections = _verified_sections(path, raw)
    try:
        index = _decode(graph, sections)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        # Checksum fine but undecodable: damaged before it was computed.
        raise IndexCorruptError(path, f"undecodable index: {exc!r}") from exc
    gc.collect()
    return index


def _decode(graph: "GraphLike", sections: List[memoryview]) -> PublicIndex:
    meta, views = json.loads(bytes(sections[0])), dict(zip(_SECTIONS, sections[1:]))
    vertices, labels, k = meta["vertices"], meta["labels"], meta["k"]
    graph = freeze(graph)
    if (
        meta["num_vertices"] != graph.num_vertices
        or meta["graph_sha256"] != graph.digest()
    ):  # stale, not corrupt: callers rebuild silently
        raise IndexBuildError(
            f"index is for another graph (of {meta['num_vertices']} vertices)"
        )

    def column(name: str) -> Any:
        """Section ``name`` as a read-only little-endian view, no copy."""
        dtype = _DTYPES[_SECTIONS[name]]
        if len(views[name]) % dtype.itemsize:
            raise ValueError(f"{name}: length is not a multiple of the item size")
        return np.frombuffer(views[name], dtype=dtype)

    def vertex_column(name: str) -> Any:
        ids = column(name)
        if ids.size and not 0 <= ids.min() <= ids.max() < len(vertices):
            raise ValueError(f"{name}: vertex id out of range")
        return ids

    def indptr(name: str, rows: int, *columns: Any) -> Any:
        """Row pointer ``name``: ``rows`` slices of equally long ``columns``."""
        ptr = column(name)
        shaped = len(ptr) == rows + 1 and ptr[0] == 0 and (ptr[1:] >= ptr[:-1]).all()
        if not shaped or any(len(c) != ptr[-1] for c in columns):
            raise ValueError(f"{name}: does not slice its columns")
        return ptr

    ids, scores = vertex_column("pagerank.ids"), column("pagerank.scores")
    if len(ids) != len(scores):
        raise ValueError("pagerank: ids and scores differ in length")
    owners = vertex_column("pads.owners")
    centers, dists = vertex_column("pads.centers"), column("pads.dists")
    pads = PadsArrays(
        vertices, {vertices[i]: row for row, i in enumerate(owners.tolist())},
        indptr("pads.indptr", len(owners), centers, dists), centers, dists,
    )
    centers, dists = vertex_column("kpads.centers"), column("kpads.dists")
    witnesses = vertex_column("kpads.witnesses")
    cand_dists, cand_vertices = column("cand.dists"), vertex_column("cand.vertices")
    cand_ptr = indptr("cand.indptr", len(centers), cand_dists, cand_vertices)
    kpads = _KpadsRows(
        vertices, labels,
        indptr("kpads.indptr", len(labels), centers, dists, witnesses),
        centers, dists, witnesses, cand_ptr, cand_dists, cand_vertices,
    )
    per_center = meta["kpads_per_center"]
    return PublicIndex(
        graph,
        DistanceSketch({}, k, kind="PADS", source=pads, arrays=pads),
        KeywordSketch({}, {}, k, {}, per_center, source=kpads, arrays=kpads),
        dict(zip(map(vertices.__getitem__, ids.tolist()), scores.tolist())),
    )
