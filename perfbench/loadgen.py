"""Open- and closed-loop load against a running daemon, from one asyncio
process over a few Unix-socket connections.

The open loop sends each request when it is due, whatever the replies
are doing, and times it from that due instant, so a stall is charged to
every request queued behind it.  Arrivals are seeded Poisson.  The
closed loop keeps one request in flight per connection.
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from common import median, percentile
from corpus import Request

#: Error codes that mean the daemon refused the work (load shedding,
#: admission), as opposed to failing it.
REFUSALS = ("overloaded", "quota-exceeded", "shutting-down")


@dataclass
class Sample:
    request: Request
    due: float
    sent: float = 0.0
    done: Optional[float] = None
    result: Optional[dict] = None
    error: Optional[dict] = None

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def refused(self) -> bool:
        return self.error is not None and self.error.get("code") in REFUSALS


@dataclass
class Leg:
    """What one load leg produced (times in seconds on the loop clock)."""

    rate: Optional[float]
    samples: List[Sample]
    wall_s: float
    lag_max_s: float = 0.0
    backlog: List[int] = field(default_factory=list)
    #: Whether sending stopped early because the p99 was already lost.
    aborted: bool = False

    def completed(self) -> List[Sample]:
        return [s for s in self.samples if s.result is not None]

    def latencies_ms(self) -> List[float]:
        return [s.latency_s * 1e3 for s in self.completed()]

    def achieved_rps(self) -> float:
        done = [s for s in self.samples if s.done is not None]
        if not done:
            return 0.0
        span = max(s.done for s in done) - min(s.due for s in self.samples)
        return len(self.completed()) / span

    def backlog_grew(self, limit_ms: float) -> bool:
        """The daemon fell behind and stayed behind: over the last eighth
        of sending, the median number of requests in flight exceeds what
        arrives within the latency limit, so a new request cannot be
        answered in time.  (A ratio to the leg's own typical backlog
        flags ordinary Poisson bursts near capacity.)"""
        if self.rate is None or len(self.backlog) < 8:
            return False
        tail = self.backlog[-len(self.backlog) // 8 :]
        return median(tail) > self.rate * limit_ms / 1e3

    def summary(self, limit_ms: float) -> Dict[str, object]:
        latencies = self.latencies_ms()
        refused = sum(1 for s in self.samples if s.refused)
        errors = sum(1 for s in self.samples if s.error is not None) - refused
        missing = sum(1 for s in self.samples if s.done is None)
        out: Dict[str, object] = {
            "rate_rps": self.rate,
            "n": len(self.samples),
            "completed": len(latencies),
            "refused": refused,
            "aborted": self.aborted,
            "errors": errors,
            "missing": missing,
            "over_limit": sum(1 for v in latencies if v > limit_ms),
            "lag_max_ms": self.lag_max_s * 1e3,
            "backlog_grew": self.backlog_grew(limit_ms),
            "achieved_rps": self.achieved_rps(),
        }
        if latencies:
            out["p50_ms"] = percentile(latencies, 50)
            out["p99_ms"] = percentile(latencies, 99)
            out["beyond_p99"] = sum(1 for v in latencies if v > out["p99_ms"])
        return out

    def meets_latency(self, limit_ms: float) -> bool:
        latencies = self.latencies_ms()
        return bool(latencies) and percentile(latencies, 99) <= limit_ms

    def meets(self, limit_ms: float) -> bool:
        """p99 within the limit, every request answered, none refused,
        and no growing backlog: the rate is sustained."""
        return (
            not self.aborted
            and all(s.result is not None for s in self.samples)
            and self.meets_latency(limit_ms)
            and not self.backlog_grew(limit_ms)
        )


class _Link:
    """One connection: writes frames, a reader task resolves replies."""

    def __init__(self, reader, writer, loop, on_done=None) -> None:
        self.reader = reader
        self.writer = writer
        self.loop = loop
        self.on_done = on_done
        self.pending: Dict[int, Sample] = {}
        self.waiters: Dict[int, asyncio.Future] = {}
        self.next_id = 0
        self.task = loop.create_task(self._pump())

    def send(self, sample: Sample) -> asyncio.Future:
        self.next_id += 1
        frame = {"id": self.next_id, "method": "check", "params": sample.request.params()}
        self.pending[self.next_id] = sample
        future = self.loop.create_future()
        self.waiters[self.next_id] = future
        sample.sent = self.loop.time()
        self.writer.write(json.dumps(frame, separators=(",", ":")).encode() + b"\n")
        return future

    async def _pump(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                return
            now = self.loop.time()
            frame = json.loads(line)
            sample = self.pending.pop(frame.get("id"), None)
            if sample is None:
                continue
            sample.done = now
            sample.result = frame.get("result")
            sample.error = frame.get("error")
            if self.on_done is not None:
                self.on_done(sample)
            future = self.waiters.pop(frame["id"])
            if not future.done():
                future.set_result(sample)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass
        self.task.cancel()
        try:
            await self.task
        except (asyncio.CancelledError, OSError, ValueError):
            pass


async def _connect(path: str, count: int, on_done=None) -> List[_Link]:
    loop = asyncio.get_running_loop()
    links = []
    for _ in range(count):
        reader, writer = await asyncio.open_unix_connection(path, limit=1 << 22)
        links.append(_Link(reader, writer, loop, on_done))
    return links


async def _open_loop(path, events, rate, seed, connections, drain_s,
                     abort_over_ms) -> Leg:
    loop = asyncio.get_running_loop()
    over = [0]

    def count_over(sample: Sample) -> None:
        if abort_over_ms is not None and sample.latency_s * 1e3 > abort_over_ms:
            over[0] += 1

    links = await _connect(path, connections, count_over)
    rng = random.Random(seed)
    requests = sum(len(group) for group in events)
    event_rate = rate * len(events) / requests
    samples: List[Sample] = []
    futures = []
    backlog: List[int] = []
    lag_max = 0.0
    outstanding = 0
    index = 0
    # More than 1 % of the planned requests over the limit: p99 is lost.
    allowed_over = requests // 100
    aborted = False
    start = loop.time() + 0.02
    due = 0.0
    try:
        for group in events:
            if over[0] > allowed_over:
                aborted = True
                break
            due += rng.expovariate(event_rate)
            target = start + due
            delay = target - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            lag_max = max(lag_max, loop.time() - target)
            for request in group:
                sample = Sample(request, target)
                samples.append(sample)
                futures.append(links[index % len(links)].send(sample))
                index += 1
            outstanding = sum(len(link.pending) for link in links)
            backlog.append(outstanding)
        # An abandoned rung's backlog is not waited for.
        await asyncio.wait(futures, timeout=1.0 if aborted else drain_s)
    finally:
        for link in links:
            await link.close()
    return Leg(rate, samples, loop.time() - start, lag_max, backlog, aborted)


async def _closed_loop(path, requests, connections, drain_s) -> Leg:
    loop = asyncio.get_running_loop()
    links = await _connect(path, connections)
    queue = list(reversed(requests))
    samples: List[Sample] = []
    lag = [0.0]

    async def worker(link: _Link) -> None:
        replied = None
        while queue:
            sample = Sample(queue.pop(), loop.time())
            samples.append(sample)
            future = link.send(sample)
            if replied is not None:  # the generator's turnaround
                lag[0] = max(lag[0], sample.sent - replied)
            await asyncio.wait_for(future, drain_s)
            replied = sample.done

    start = loop.time()
    try:
        await asyncio.gather(*(worker(link) for link in links))
    finally:
        for link in links:
            await link.close()
    return Leg(None, samples, loop.time() - start, lag[0])


def open_loop(path: str, events: Sequence[List[Request]], rate: float, seed: int,
              connections: int, drain_s: float = 30.0,
              abort_over_ms: Optional[float] = None) -> Leg:
    """Send ``events`` at ``rate`` requests/s; with ``abort_over_ms``,
    stop sending once more than 1 % of them answered slower than that."""
    return asyncio.run(_open_loop(path, events, rate, seed, connections, drain_s,
                                  abort_over_ms))


def closed_loop(path: str, requests: Sequence[Request], connections: int,
                drain_s: float = 30.0) -> Leg:
    return asyncio.run(_closed_loop(path, list(requests), connections, drain_s))
