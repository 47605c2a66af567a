"""The benchmark's own oracle: breadth-first search on the union graph.

Nothing is imported from ``repro``.  The union of the public graph and
one tenant's private graph is searched directly from the generated edge
lists (all weights are 1, so BFS depth is the exact distance), and every
sampled response is held to what any correct answer must satisfy:

* rooted answers (``blinks`` / ``banks`` / ``rclique``): every requested
  keyword is matched, the match vertex carries it in its public or
  private labels, ``exact <= reported <= tau``, and the matches touch
  both the private and the public graph;
* k-nk answers (``knk`` / ``knk_multi``): at most ``k`` matches, no vertex
  twice, distances non-decreasing, every match carries the keyword(s),
  and the i-th reported distance is at least the exact i-th nearest.

Reported distances may exceed exact ones (the sketches are upper bounds);
their ratio feeds ``dist_ratio_mean``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Sequence, Set, Tuple

from bench import gen

EPS = 1e-9


class Oracle:
    """Checks responses against exact distances on ``G + G'``."""

    def __init__(self, dataset: gen.Dataset):
        self.dataset = dataset
        self.private_adjacency: Dict[str, Dict[str, List[str]]] = {}
        for owner, edges in dataset.private_edges.items():
            adjacency: Dict[str, List[str]] = {}
            for u, v in edges:
                adjacency.setdefault(u, []).append(v)
                adjacency.setdefault(v, []).append(u)
            self.private_adjacency[owner] = adjacency
        self.ratio_sum = 0.0
        self.ratio_count = 0
        self.checked = 0
        self.problems: List[str] = []

    # -- the union graph ------------------------------------------------
    def _labels(self, owner: str, vertex: str) -> Set[str]:
        labels = set(self.dataset.public_labels.get(vertex, ()))
        labels.update(self.dataset.private_labels[owner].get(vertex, ()))
        return labels

    def _bfs(self, owner: str, source: str) -> Iterator[Tuple[str, int]]:
        """``(vertex, distance)`` in non-decreasing distance from ``source``."""
        public = self.dataset.public_adjacency
        private = self.private_adjacency[owner]
        seen = {source}
        frontier = [source]
        depth = 0
        while frontier:
            nxt = []
            for u in frontier:
                yield u, depth
                for w in public.get(u, ()):
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
                for w in private.get(u, ()):
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
            depth += 1

    def _ratio(self, reported: float, exact: float) -> None:
        if exact > 0:
            self.ratio_sum += reported / exact
            self.ratio_count += 1
        elif reported == 0:
            self.ratio_sum += 1.0
            self.ratio_count += 1

    # -- checks -----------------------------------------------------------
    def check(self, request: Dict[str, Any], response: Dict[str, Any]) -> bool:
        """True when ``response`` is an acceptable answer to ``request``."""
        before = len(self.problems)
        self.checked += 1
        if "keyword" in request or "source" in request:
            self._check_knk(request, response)
        else:
            self._check_rooted(request, response)
        return len(self.problems) == before

    def _fail(self, request: Dict[str, Any], problem: str) -> None:
        brief = {k: v for k, v in request.items() if not k.startswith("private_")}
        self.problems.append(f"{brief}: {problem}")

    def _check_rooted(self, request: Dict[str, Any], response: Dict[str, Any]) -> None:
        owner = request["owner"]
        tau = request["tau"]
        private_vertices = self.dataset.private_labels[owner]
        public_vertices = self.dataset.public_labels
        answers = response.get("answers")
        if not isinstance(answers, list) or len(answers) > request["k"]:
            self._fail(request, f"expected at most k answers, got {answers!r}")
            return
        for answer in answers:
            root = answer["root"]
            matches = answer["matches"]
            if sorted(matches) != sorted(request["keywords"]):
                self._fail(request, f"root {root}: matched {sorted(matches)}")
                continue
            wanted = {m["vertex"] for m in matches.values()}
            exact: Dict[str, int] = {}
            for vertex, depth in self._bfs(owner, root):
                if depth > tau or len(exact) == len(wanted):
                    break
                if vertex in wanted:
                    exact[vertex] = depth
            for keyword, match in matches.items():
                vertex, reported = match["vertex"], match["distance"]
                if keyword not in self._labels(owner, vertex):
                    self._fail(request, f"{vertex} does not carry {keyword}")
                if reported > tau + EPS:
                    self._fail(request, f"{vertex} at {reported} exceeds tau")
                if vertex not in exact:
                    self._fail(request, f"{vertex} is not within tau of {root}")
                elif reported < exact[vertex] - EPS:
                    self._fail(
                        request,
                        f"d({root}, {vertex}) = {reported} is below the exact "
                        f"{exact[vertex]}",
                    )
                else:
                    self._ratio(reported, exact[vertex])
            if not (
                any(v in private_vertices for v in wanted)
                and any(v in public_vertices for v in wanted)
            ):
                self._fail(request, f"root {root}: answer is not public-private")

    def _check_knk(self, request: Dict[str, Any], response: Dict[str, Any]) -> None:
        owner = request["owner"]
        k = request["k"]
        keywords: Sequence[str] = request.get("keywords") or [request["keyword"]]
        answer = response.get("answer")
        if not isinstance(answer, dict) or answer.get("source") != request["source"]:
            self._fail(request, f"bad answer {answer!r}")
            return
        matches = answer["matches"]
        if len(matches) > k:
            self._fail(request, f"{len(matches)} matches for k = {k}")
        vertices = [m["vertex"] for m in matches]
        if len(set(vertices)) != len(vertices):
            self._fail(request, "a vertex is matched twice")
        wanted = set(keywords)
        nearest: List[int] = []
        for vertex, depth in self._bfs(owner, request["source"]):
            if wanted <= self._labels(owner, vertex):
                nearest.append(depth)
                if len(nearest) == len(matches):
                    break
        if len(nearest) < len(matches):
            self._fail(request, "more matches than the graph holds")
            return
        previous = 0.0
        for i, match in enumerate(matches):
            vertex, reported = match["vertex"], match["distance"]
            if not wanted <= self._labels(owner, vertex):
                self._fail(request, f"{vertex} does not carry {sorted(wanted)}")
            if reported < previous - EPS:
                self._fail(request, "matches are not sorted by distance")
            previous = reported
            if reported < nearest[i] - EPS:
                self._fail(
                    request,
                    f"match {i} at {reported} is nearer than the exact "
                    f"{i}-th nearest ({nearest[i]})",
                )
            else:
                self._ratio(reported, nearest[i])

    @property
    def dist_ratio_mean(self) -> float:
        return self.ratio_sum / self.ratio_count if self.ratio_count else 1.0
