"""The one closed-loop client both the untraced and the traced run use.

It sends wire dicts to ``PPKWSService.execute``, waits for each reply,
times it, counts what failed and keeps a thin sample of responses for the
oracle.  The load model is a closed loop of one in-process client: an
embedding caller waits for its reply, and on a 2-core box a single
generator thread measures the program and not the scheduler.
"""

from __future__ import annotations

import hashlib
import json
import math
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from bench.yardstick import Yardstick

ADMIN_OPS = ("create_network", "attach", "detach")
#: fields that differ between a computed answer and its cached copy
UNSTABLE_FIELDS = ("breakdown", "cached", "warnings")
SAMPLE_CAP = 512
SLICE_S = 0.5

Request = Dict[str, Any]
Response = Dict[str, Any]


def answer_count(response: Response) -> Optional[int]:
    """Answers (rooted) or matches (k-nk) in a query response."""
    answers = response.get("answers")
    if answers is not None:
        return len(answers)
    answer = response.get("answer")
    if answer is not None:
        return len(answer["matches"])
    return None


def stable(response: Response) -> Response:
    return {k: v for k, v in response.items() if k not in UNSTABLE_FIELDS}


def answers_sha256(responses: List[Response]) -> str:
    digest = hashlib.sha256()
    for response in responses:
        digest.update(json.dumps(stable(response), sort_keys=True).encode())
    return digest.hexdigest()


class Phases:
    """Wall seconds of a run's phases, for the budget of 3420 s."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self._mark = perf_counter()

    def done(self, name: str) -> None:
        now = perf_counter()
        self.seconds[name] = round(now - self._mark, 3)
        self._mark = now


class Timed:
    """What one timed loop recorded.

    ``latency`` and ``rates`` are at reference speed (see ``yardstick.py``):
    every slice of ``SLICE_S`` seconds starts with a yardstick reading and
    its times are scaled by it.  ``raw_latency`` and ``wall`` are as the
    clock gave them.
    """

    def __init__(self) -> None:
        self.latency: Dict[str, List[float]] = {}
        self.raw_latency: Dict[str, List[float]] = {}
        #: per slice: ok responses per reference-speed second
        self.rates: List[float] = []
        self.scales: List[float] = []
        self.wall = 0.0
        self.sent = 0
        self.ok = 0
        self.ok_queries = 0
        self.answers = 0
        self.prefix: List[Response] = []
        self.samples: List[Tuple[Request, Response]] = []

    def queries(self, raw: bool = False) -> List[float]:
        """Latencies of the query operations, admin operations left out."""
        latency = self.raw_latency if raw else self.latency
        return [
            t for op, ts in latency.items() if op not in ADMIN_OPS for t in ts
        ]


class Client:
    """Sends requests one at a time and counts attempts and failures."""

    def __init__(self, service: Any, yardstick: Yardstick):
        # ``execute`` is looked up per loop, not bound here: the traced
        # run patches it on the class while this client is alive
        self.service = service
        self.yardstick = yardstick
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, request: Request, response: Response) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(
                f"{request.get('op')} -> {response.get('status')}: "
                f"{response.get('error')}"
            )

    def send(self, request: Request) -> Tuple[Response, float]:
        """One request outside the timed loop; not ``ok`` is a failure."""
        self.attempted += 1
        start = perf_counter()
        try:
            response = self.service.execute(request)
        except Exception as exc:  # an escaped exception is a failed operation
            response = {"status": "escaped", "error": repr(exc)}
        elapsed = perf_counter() - start
        if response.get("status") != "ok":
            self.fail(request, response)
        return response, elapsed

    def set_up(self, dataset: Any, index_path: str = "") -> Tuple[float, List[float]]:
        """``create_network`` and 16 ``attach``: their wall, attach latencies.

        At reference speed: a yardstick reading before and after each of
        the two parts scales it.
        """
        create, *attaches = dataset.setup_requests(index_path)
        readings = [self.yardstick.scale()]
        _, wall = self.send(create)
        readings.append(self.yardstick.scale())
        attach = [self.send(request)[1] for request in attaches]
        readings.append(self.yardstick.scale())
        scale = (readings[1] + readings[2]) / 2
        attach = [t * scale for t in attach]
        return wall * (readings[0] + readings[1]) / 2 + sum(attach), attach

    def timed_loop(
        self, requests: List[Request], start_at: int = 0,
        seconds: Optional[float] = None, prefix: int = 0,
        sample_cap: Optional[int] = SAMPLE_CAP,
    ) -> Timed:
        """Send ``requests[start_at:]`` in order until ``seconds`` have passed.

        The stream is cut into slices of ``SLICE_S`` seconds, each opened by
        a yardstick reading (outside every measured time); a slice's rate
        and latencies are scaled by it.  Medians over slices then shrug off
        a stall or a slow second that a plain total would carry.

        Keeps the first ``prefix`` ok query responses (for the digest) and
        an even sample for the oracle: every response until there are
        ``sample_cap``, then every other one is dropped and the stride
        doubles, so a fast workload is sampled as evenly as a slow one
        (``None`` keeps them all).
        """
        out = Timed()
        execute = self.service.execute
        latency, raw_latency = out.latency, out.raw_latency
        samples = out.samples
        stride = 1
        ok_queries = answers = 0
        i = start_at
        end = len(requests)
        began = perf_counter()
        deadline = began + seconds if seconds is not None else math.inf
        while i < end and perf_counter() < deadline:
            scale = self.yardstick.scale()
            ok = 0
            slice_began = perf_counter()
            slice_end = min(deadline, slice_began + SLICE_S)
            while i < end:
                request = requests[i]
                start = perf_counter()
                if start >= slice_end:
                    break
                try:
                    response = execute(request)
                except Exception as exc:  # an escaped exception is a failed operation
                    response = {"status": "escaped", "error": repr(exc)}
                elapsed = perf_counter() - start
                op = request["op"]
                if op not in latency:
                    latency[op], raw_latency[op] = [], []
                latency[op].append(elapsed * scale)
                raw_latency[op].append(elapsed)
                if response.get("status") == "ok":
                    ok += 1
                    count = answer_count(response)
                    if count is not None:
                        if ok_queries < prefix:
                            out.prefix.append(response)
                        if ok_queries % stride == 0:
                            samples.append((request, response))
                            if len(samples) == sample_cap:
                                del samples[1::2]
                                stride *= 2
                        ok_queries += 1
                        answers += count
                else:
                    self.fail(request, response)
                i += 1
            out.ok += ok
            out.scales.append(scale)
            if ok:
                out.rates.append(ok / ((perf_counter() - slice_began) * scale))
        out.wall = perf_counter() - began
        out.sent = i - start_at
        out.ok_queries, out.answers = ok_queries, answers
        self.attempted += out.sent
        return out

    def check(self, oracle: Any, samples: List[Tuple[Request, Response]]) -> None:
        """Hold sampled responses to the oracle; a rejection is a failure.

        A key that repeats (the cached workloads) is checked once; its
        later responses must equal the checked one.
        """
        verified: Dict[int, Response] = {}  # a repeated key is one object
        for request, response in samples:
            answer = stable(response)
            if id(request) not in verified:
                verified[id(request)] = answer
                if not oracle.check(request, response):
                    self.failed += 1
            elif verified[id(request)] != answer:
                oracle.problems.append(f"{request}: the answer changed between sends")
                self.failed += 1
        self.problems.extend(oracle.problems[:5])
