"""Load shape, completion detection, and the statistics behind every metric.

* :func:`run_open_loop` sends a fixed schedule on the calling thread,
  independent of completions, and records how late each send was.
* :class:`CompletionWatcher` is the one other load thread: it looks each
  outstanding submission up through the service's public ``result``
  surface (a method call in-process, ``GET /v1/result`` over HTTP) and
  stamps the moment its terminal outcome became visible.
* :func:`percentile` refuses a percentile that fewer than
  :data:`MIN_BEYOND` samples lie beyond, so no reported tail rests on a
  handful of points.
* :func:`trimmed_mean` combines the figures of a run's repeated phases.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from statistics import median

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation between ranks).

    Raises:
        TooFewSamples: fewer than :data:`MIN_BEYOND` samples lie beyond
            the percentile (e.g. p90 of fewer than 100 values).
    """
    n = len(values)
    if n == 0 or n * (100.0 - q) / 100.0 < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} needs {MIN_BEYOND} samples beyond it; have {n} in all"
        )
    ordered = sorted(values)
    rank = (n - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def trimmed_mean(values) -> float:
    """Mean of ``values`` without their lowest and highest one.

    Combines the figures of a run's repeated phases.  One stalled phase
    cannot move it, and where the host flips between a fast and a slow
    state every few seconds it moves with the share of time spent in
    each, where a median would jump from one state's figure to the
    other's.  Fewer than three values give their plain mean.
    """
    ordered = sorted(values)
    if len(ordered) >= 3:
        ordered = ordered[1:-1]
    return sum(ordered) / len(ordered)


def windowed_rate(times, start: float, end: float, windows: int = 5) -> float:
    """Median over equal slices of ``[start, end]`` of events per second."""
    width = (end - start) / windows
    counts = [0] * windows
    for t in times:
        counts[min(max(int((t - start) / width), 0), windows - 1)] += 1
    return median(count / width for count in counts)


def host_ref_ms() -> float:
    """Wall time of a fixed pure-Python loop (host-speed diagnostic).

    Recorded next to every run so a slow host shows; it never scales a
    metric.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - start) * 1e3


def is_terminal(outcome: dict) -> bool:
    """A recorded verdict: ``done``/``failed`` with its model version.

    Requiring ``model_version`` skips the instant where the queue already
    reports ``done`` but the outcome itself is not yet published.
    """
    return (
        outcome.get("status") in ("done", "failed")
        and "model_version" in outcome
    )


@dataclass(eq=False)
class Submission:
    """One scheduled send and everything observed about it.

    ``prev`` is what ``result`` showed just before the send; a
    resubmitted md5 is only complete once a terminal outcome *different
    from* ``prev`` is visible (resubmissions of vetted apps come back
    ``from_cache``, so their new outcome always differs from the old).
    """

    apk: object
    lane: str
    kind: str
    due: float = 0.0  # seconds after the phase start
    due_at: float = 0.0
    sent_at: float = 0.0
    acked_at: float = 0.0
    seq: int | None = None
    prev: dict = field(default_factory=dict)
    seen_at: float | None = None
    outcome: dict | None = None
    error: str | None = None

    @property
    def md5(self) -> str:
        return self.apk.md5

    @property
    def ack_ms(self) -> float:
        return (self.acked_at - self.sent_at) * 1e3

    @property
    def verdict_ms(self) -> float:
        return (self.seen_at - self.due_at) * 1e3

    @property
    def late_ms(self) -> float:
        return (self.sent_at - self.due_at) * 1e3


def run_open_loop(schedule, send):
    """Send every item at ``phase start + item.due``, whatever happens.

    ``send(item)`` performs the request and fills ``sent_at``/``acked_at``.
    A send that overruns delays the ones after it; that delay is the
    generator's lateness, and verdict latency is timed from ``due_at``
    so it includes it.  Returns the phase start.
    """
    start = time.perf_counter()
    for item in schedule:
        item.due_at = start + item.due
        wait = item.due_at - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        send(item)
    return start


class CompletionWatcher(threading.Thread):
    """Stamps the moment each watched submission's verdict is visible.

    Sweeps the outstanding submissions in the order they were watched,
    calling ``lookup(md5)``.  A sweep stops after ``window`` submissions
    in a row are still outstanding: a backlog drains in order, so the
    rest cannot have finished, and the sweep stays short however long
    the backlog is.  ``interval`` is the pause between sweeps while
    anything is outstanding; it bounds how coarsely completions are
    timed.  With nothing outstanding the watcher sleeps until the next
    :meth:`watch`, so an idle service is not polled.
    """

    def __init__(self, lookup, interval: float = 0.0005, window: int = 16):
        super().__init__(name="servebench-watcher", daemon=True)
        self.lookup = lookup
        self.interval = interval
        self.window = window
        self._incoming: list[Submission] = []
        self._outstanding = 0
        self._halted = False
        self._changed = threading.Condition()
        self.error: BaseException | None = None

    def watch(self, item: Submission) -> None:
        with self._changed:
            self._incoming.append(item)
            self._outstanding += 1
            self._changed.notify_all()

    def run(self) -> None:
        pending: list[Submission] = []
        try:
            while True:
                with self._changed:
                    while not (pending or self._incoming or self._halted):
                        self._changed.wait()
                    if self._halted:
                        return
                    pending.extend(self._incoming)
                    self._incoming.clear()
                pending, finished = self._sweep(pending)
                if finished:
                    with self._changed:
                        self._outstanding -= finished
                        self._changed.notify_all()
                if pending:
                    time.sleep(self.interval)
        except BaseException as exc:  # reported by wait(); never silent
            with self._changed:
                self.error = exc
                self._changed.notify_all()

    def _sweep(self, pending):
        keep: list[Submission] = []
        finished = 0
        misses = 0
        for i, item in enumerate(pending):
            if misses >= self.window:
                keep.extend(pending[i:])
                break
            outcome = self.lookup(item.md5)
            if is_terminal(outcome) and outcome != item.prev:
                item.seen_at = time.perf_counter()
                item.outcome = outcome
                finished += 1
            else:
                keep.append(item)
                misses += 1
        return keep, finished

    def wait(self, timeout: float) -> bool:
        """Block until every watched submission is seen (False on timeout)."""
        deadline = time.monotonic() + timeout
        with self._changed:
            while self._outstanding and self.error is None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._changed.wait(remaining)
            done = self._outstanding == 0
        if self.error is not None:
            raise RuntimeError("completion watcher failed") from self.error
        return done

    def stop(self) -> None:
        with self._changed:
            self._halted = True
            self._changed.notify_all()
        self.join(10.0)
