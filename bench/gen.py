"""Inputs of the benchmark: one public graph, 16 tenants, four streams.

Everything here is plain data (lists, dicts, strings, numbers) made with
the standard library's ``random``, and nothing is imported from ``repro``:
an edit to ``repro.datasets`` or ``repro.bench`` cannot move the inputs.
The recipe follows ``repro.datasets.yago_like`` (sparse high-diameter
ring, thin hub overlay, Zipf labels, private graphs carved around a public
neighbourhood) at the sizes ``README.md`` states.

The *population* (graph, tenants, the key pools of the cached workloads
and which key has which Zipf rank) comes from the constant
``POPULATION_SEED``; ``--seed`` draws the request streams from it.  Runs
on ten seeds must agree within the bounds of ``BENCHMARK.json``, and a
seeded population alone moved ``answers_mean`` by a quarter (one hot key
takes a seventh of a Zipf(1.1) stream) and ``attach_p50_ms`` by a third.

Vertices are strings (``p17`` public, ``user3:v5`` private-only) so every
request is valid JSON as it stands.
"""

from __future__ import annotations

import hashlib
import json
import random
from array import array
from bisect import bisect
from itertools import accumulate
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

NETWORK = "pub"
POPULATION_SEED = 20200420
PUBLIC_VERTICES = 20_000
RING_DEGREE = 4
REWIRE_P = 0.02
HUB_SHARE = 0.004
HUB_EDGES = 10
LABELS = 200
LABELS_PER_VERTEX = 3.8
TENANTS = 16
PRIVATE_VERTICES = 120
PORTALS = 18
PRIVATE_CHORDS = 60
BALL_HOPS = 3

TAU = 5
KEYWORD_K = 5
KNK_K = 64
KEYWORD_OPS = ("blinks", "banks", "rclique")
WARMUP_REQUESTS = 40
ZIPF_S = 1.1
ATTACH_EVERY = 500

#: timed requests per workload; a run stops at its deadline or when the
#: stream ends, whichever comes first
COUNTS = {
    "cold_keyword": 1_280,
    "cold_knk": 30_000,
    "hot_cached": 400_000,
    "mixed_attach": 80_000,
}
#: the hot pool's split: keyword keys cost ~35 ms each to prime, knk ~1.5 ms
HOT_KEYWORD_KEYS = 128
HOT_KNK_KEYS = 384
MIXED_POOL = 256

Request = Dict[str, Any]
Edge = List[str]


class Dataset:
    """The public graph and the tenants' private graphs, in wire form."""

    def __init__(self, scale: float = 1.0):
        rng = random.Random(POPULATION_SEED)
        vocabulary = [f"t{i}" for i in range(LABELS)]
        label_cum = list(accumulate(1.0 / (r + 1) for r in range(LABELS)))
        n = max(200, int(PUBLIC_VERTICES * scale))
        self.public_edges = _public_edges(rng, n)
        names = [f"p{i}" for i in range(n)]
        self.public_labels = {
            v: _zipf_labels(rng, vocabulary, label_cum) for v in names
        }
        adjacency: Dict[str, List[str]] = {v: [] for v in names}
        for u, v in self.public_edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        self.public_adjacency = adjacency
        self.owners = [f"user{i}" for i in range(TENANTS)]
        self.private_edges: Dict[str, List[Edge]] = {}
        self.private_labels: Dict[str, Dict[str, List[str]]] = {}
        for owner in self.owners:
            vertices, edges = _private_graph(rng, names, adjacency, owner)
            self.private_edges[owner] = edges
            self.private_labels[owner] = {
                v: _zipf_labels(rng, vocabulary, label_cum) for v in vertices
            }
        self.public_frequency = _frequencies(self.public_labels)

    def create_request(self, index_path: str = "") -> Request:
        request: Request = {
            "op": "create_network",
            "network": NETWORK,
            "public_edges": self.public_edges,
            "public_labels": self.public_labels,
        }
        if index_path:
            request["index_path"] = index_path
        return request

    def attach_request(self, owner: str) -> Request:
        return {
            "op": "attach",
            "network": NETWORK,
            "owner": owner,
            "private_edges": self.private_edges[owner],
            "private_labels": self.private_labels[owner],
        }

    def setup_requests(self, index_path: str = "") -> List[Request]:
        """``create_network`` then one ``attach`` per tenant."""
        return [self.create_request(index_path)] + [
            self.attach_request(owner) for owner in self.owners
        ]


def _public_edges(rng: random.Random, n: int) -> List[Edge]:
    """Degree-4 ring, each edge rewired with ``REWIRE_P``, plus hub edges."""
    half = RING_DEGREE // 2
    edges: Set[Tuple[int, int]] = set()
    for v in range(n):
        for j in range(1, half + 1):
            edges.add(_key(v, (v + j) % n))
    for v in range(n):
        for j in range(1, half + 1):
            old = _key(v, (v + j) % n)
            if rng.random() < REWIRE_P and old in edges:
                w = rng.randrange(n)
                if w != v and _key(v, w) not in edges:
                    edges.remove(old)
                    edges.add(_key(v, w))
    for hub in rng.sample(range(n), max(1, int(n * HUB_SHARE))):
        for _ in range(HUB_EDGES):
            w = rng.randrange(n)
            if w != hub:
                edges.add(_key(hub, w))
    return [[f"p{u}", f"p{v}"] for u, v in sorted(edges)]


def _key(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _zipf_labels(
    rng: random.Random, vocabulary: Sequence[str], cum: Sequence[float]
) -> List[str]:
    """3 or 4 distinct labels (mean 3.8), popularity ~ 1/rank."""
    count = int(LABELS_PER_VERTEX)
    if rng.random() < LABELS_PER_VERTEX - count:
        count += 1
    chosen: List[str] = []
    while len(chosen) < count:
        label = vocabulary[bisect(cum, rng.random() * cum[-1])]
        if label not in chosen:
            chosen.append(label)
    return chosen


def _private_graph(
    rng: random.Random,
    names: Sequence[str],
    adjacency: Dict[str, List[str]],
    owner: str,
) -> Tuple[List[str], List[Edge]]:
    """18 portals from a public BFS ball + 102 private-only vertices.

    The ball has ``BALL_HOPS`` hops, or as many more as it takes to hold
    ``PORTALS`` vertices (a bare degree-4 ring reaches only 13 in three).
    """
    seed_vertex = names[rng.randrange(len(names))]
    ball = [seed_vertex]
    seen = {seed_vertex}
    frontier = [seed_vertex]
    hops = 0
    while frontier and (hops < BALL_HOPS or len(ball) < PORTALS):
        nxt = []
        for u in frontier:
            for w in adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        ball.extend(nxt)
        frontier = nxt
        hops += 1
    portals = rng.sample(ball, PORTALS)
    vertices = portals + [
        f"{owner}:v{i}" for i in range(PRIVATE_VERTICES - PORTALS)
    ]
    edges: Set[Tuple[str, str]] = set()
    for i in range(1, len(vertices)):
        edges.add(_skey(vertices[rng.randrange(i)], vertices[i]))
    for _ in range(PRIVATE_CHORDS):
        u, v = rng.sample(vertices, 2)
        edges.add(_skey(u, v))
    return vertices, [list(e) for e in sorted(edges)]


def _skey(u: str, v: str) -> Tuple[str, str]:
    return (u, v) if u < v else (v, u)


def _frequencies(labels: Dict[str, List[str]]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for ls in labels.values():
        for label in ls:
            out[label] = out.get(label, 0) + 1
    return out


# ----------------------------------------------------------------------
# request streams
# ----------------------------------------------------------------------
class _Picker:
    """Frequency-weighted label choice over one alphabet."""

    def __init__(self, frequency: Dict[str, int]):
        self.labels = sorted(frequency)
        self.cum = list(accumulate(frequency[t] for t in self.labels))

    def pick(self, rng: random.Random) -> str:
        return self.labels[bisect(self.cum, rng.random() * self.cum[-1])]


class _QuerySource:
    """Draws distinct query requests; every key is handed out once."""

    def __init__(
        self, dataset: Dataset, rng: random.Random,
        seen: Optional[Set[Tuple[Any, ...]]] = None,
    ):
        self.rng = rng
        self.owners = dataset.owners
        self.public = _Picker(dataset.public_frequency)
        self.private = {}
        self.union = {}
        self.sources = {}
        for owner in dataset.owners:
            private = _frequencies(dataset.private_labels[owner])
            self.private[owner] = _Picker(private)
            union = dict(dataset.public_frequency)
            for label, count in private.items():
                union[label] = union.get(label, 0) + count
            self.union[owner] = _Picker(union)
            self.sources[owner] = sorted(dataset.private_labels[owner])
        self.seen: Set[Tuple[Any, ...]] = set() if seen is None else seen
        self.keyword_count = 0
        self.knk_count = 0

    def _fresh(self, key: Tuple[Any, ...]) -> bool:
        if key in self.seen:
            return False
        self.seen.add(key)
        return True

    def keyword(self) -> Request:
        """3 keywords: one private-alphabet, one public-alphabet, one either."""
        i = self.keyword_count
        self.keyword_count += 1
        op = KEYWORD_OPS[i % len(KEYWORD_OPS)]
        owner = self.owners[i % len(self.owners)]
        rng = self.rng
        while True:
            words = [self.private[owner].pick(rng)]
            while len(words) < 3:
                picker = self.public if len(words) == 1 else self.union[owner]
                word = picker.pick(rng)
                if word not in words:
                    words.append(word)
            rng.shuffle(words)
            if self._fresh((op, owner, tuple(words))):
                return {
                    "op": op, "network": NETWORK, "owner": owner,
                    "keywords": words, "tau": TAU, "k": KEYWORD_K,
                }

    def knk(self) -> Request:
        """``knk`` three times in four, else two-keyword ``knk_multi``."""
        i = self.knk_count
        self.knk_count += 1
        owner = self.owners[i % len(self.owners)]
        rng = self.rng
        union = self.union[owner]
        while True:
            source = rng.choice(self.sources[owner])
            if i % 4 != 3:
                word = union.pick(rng)
                if self._fresh(("knk", owner, source, word)):
                    return {
                        "op": "knk", "network": NETWORK, "owner": owner,
                        "source": source, "keyword": word, "k": KNK_K,
                    }
            else:
                first, second = union.pick(rng), union.pick(rng)
                if first != second and self._fresh(
                    ("knk_multi", owner, source, first, second)
                ):
                    return {
                        "op": "knk_multi", "network": NETWORK, "owner": owner,
                        "source": source, "keywords": [first, second],
                        "k": KNK_K,
                    }


class Stream:
    """One workload's requests: untimed ``warmup`` then ``timed``."""

    def __init__(self, warmup: List[Request], timed: List[Request]):
        self.warmup = warmup
        self.timed = timed


def _zipf_draws(rng: random.Random, pool: int, count: int) -> List[int]:
    cum = list(accumulate(1.0 / (r + 1) ** ZIPF_S for r in range(pool)))
    return rng.choices(range(pool), cum_weights=cum, k=count)


def stream(dataset: Dataset, workload: str, seed: int, scale: float = 1.0) -> Stream:
    """The request stream ``seed`` draws for ``workload``.

    ``scale`` shrinks its length.  The cached workloads' key pools are
    part of the population; the warm-up keys are never in them.
    """
    if workload not in COUNTS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    count = max(12, int(COUNTS[workload] * scale))
    fixed = _QuerySource(dataset, random.Random(f"{workload}:{POPULATION_SEED}"))
    if workload == "hot_cached":
        pool = [fixed.keyword() for _ in range(HOT_KEYWORD_KEYS)]
        pool += [fixed.knk() for _ in range(HOT_KNK_KEYS)]
    elif workload == "mixed_attach":
        pool = [fixed.knk() for _ in range(MIXED_POOL)]
    else:
        pool = []
    fixed.rng.shuffle(pool)  # position = Zipf rank
    source = _QuerySource(dataset, rng, fixed.seen)
    if workload == "cold_keyword":
        warmup = [source.keyword() for _ in range(WARMUP_REQUESTS)]
        return Stream(warmup, [source.keyword() for _ in range(count)])
    warmup = [
        source.knk() if i % 2 else source.keyword()
        for i in range(WARMUP_REQUESTS)
    ]
    if workload == "cold_knk":
        return Stream(warmup, [source.knk() for _ in range(count)])
    if workload == "hot_cached":
        # each key once untimed, so every timed request is a hit
        timed = [pool[i] for i in _zipf_draws(rng, len(pool), count)]
        return Stream(warmup + pool, timed)
    timed = []
    # long enough for one detach + attach even when scaled down
    draws = _zipf_draws(rng, len(pool), max(count, ATTACH_EVERY + 100))
    for i, draw in enumerate(draws):
        if i and i % ATTACH_EVERY == 0:
            owner = dataset.owners[(i // ATTACH_EVERY) % TENANTS]
            timed.append({"op": "detach", "network": NETWORK, "owner": owner})
            timed.append(dataset.attach_request(owner))
        timed.append(pool[draw])
    return Stream(warmup, timed)


def inputs_sha256(dataset: Dataset, requests: Stream) -> str:
    """Digest of everything the program is given, in canonical JSON.

    A request object sent many times (the pools, the repeated attaches) is
    digested once and then by its position, which keeps this off the
    400,000-draw stream's critical path.
    """
    digest = hashlib.sha256()
    for part in (
        dataset.public_edges, dataset.public_labels,
        dataset.private_edges, dataset.private_labels,
    ):
        digest.update(json.dumps(part, sort_keys=True).encode())
    position: Dict[int, int] = {}
    order = array("l")
    for request in requests.warmup + requests.timed:
        index = position.get(id(request))
        if index is None:
            index = position[id(request)] = len(position)
            digest.update(json.dumps(
                {k: v for k, v in request.items() if not k.startswith("private_")},
                sort_keys=True,
            ).encode())
        order.append(index)
    digest.update(order.tobytes())
    return digest.hexdigest()


def unit_requests(dataset: Dataset) -> Tuple[List[Request], Request]:
    """Keyword requests to try, and one ``knk`` request, for the unit costs.

    The same for every seed: a unit cost is a property of the population.
    """
    source = _QuerySource(dataset, random.Random(f"unit:{POPULATION_SEED}"))
    knk = source.knk()
    while knk["op"] != "knk":
        knk = source.knk()
    return [source.keyword() for _ in range(16)], knk
