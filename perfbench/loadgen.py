"""Open-loop load generator: one thread submitting on a seeded schedule.

Requests go through ``InferenceServer.submit``; each future's completion
time is stamped by a done-callback on the worker thread that answers it.
Latency is timed from the request's *due* time, not from when the
generator got round to sending it, so a stall of the generator or of the
server shows in every request that was due during it.  The generator
reports how late it ran, and whether the queue drained soon after the last
request was due (if not, the backlog was still growing and the rate was
above what the server sustains).

Pure orchestration over the server's public API; numpy only for the
schedule and the result arrays.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np


def poisson_offsets(rng: np.random.Generator, rate_rps: float, n: int) -> np.ndarray:
    """Due times (seconds after the phase starts) of ``n`` Poisson arrivals."""
    return np.cumsum(rng.exponential(1.0 / rate_rps, size=n))


def zipf_choice(rng: np.random.Generator, n_models: int, s: float, size: int) -> np.ndarray:
    """Model index of each request; model ``i`` has popularity ``(i + 1) ** -s``.

    The ranks are fixed, so every seed serves the same popularity structure
    and only the arrival times and the request order vary.
    """
    weights = 1.0 / np.arange(1, n_models + 1, dtype=np.float64) ** s
    return rng.choice(n_models, size=size, p=weights / weights.sum())


@dataclass
class Phase:
    """What one phase of traffic did, request by request."""

    name: str
    attempted: int
    latencies_ms: np.ndarray  # from due time; +inf for a failed request
    outputs: list  # served row, or None for a failed request
    late_ms_max: float = 0.0
    drained: bool = True
    seconds: float = 0.0  # first submit to last completion
    queue_waits_ms: list = field(default_factory=list)
    errors: list = field(default_factory=list)  # why requests failed

    @property
    def failed(self) -> int:
        return sum(out is None for out in self.outputs) + (0 if self.drained else 1)


def run_phase(
    server,
    name: str,
    digests: list[str],
    xs: np.ndarray,
    offsets: np.ndarray | None,
    timeout_s: float,
    drain_limit_s: float,
    batch_start=None,
) -> Phase:
    """Submit request ``i`` (``digests[i]``, ``xs[i]``) at ``offsets[i]``.

    ``offsets=None`` submits back to back (a saturating burst).  A request
    counts as failed if its future raises or is not done ``timeout_s`` after
    the last request was due.  Like a real client, the generator keeps no
    future once submitted: a done-callback records the completion time and
    the output.  ``batch_start`` (traced runs only) returns the start of the
    batch the calling worker thread is answering; with it each request's
    queue wait is recorded.
    """
    n = len(digests)
    due = np.zeros(n)
    sent = np.zeros(n)
    done = np.full(n, np.nan)
    outputs: list = [None] * n
    errors: list[str] = []
    waits: list[float] = []
    lock = threading.Lock()
    pending = [n]
    all_done = threading.Event()

    def on_done(i: int):
        def record(future) -> None:
            done[i] = time.monotonic()
            if batch_start is not None:
                waits.append(1e3 * (batch_start() - sent[i]))
            exc = future.exception()
            if exc is None:
                outputs[i] = future.result()
            else:
                errors.append(f"{type(exc).__name__}: {exc}")
            with lock:
                pending[0] -= 1
                if pending[0] == 0:
                    all_done.set()

        return record

    start = time.monotonic()
    for i in range(n):
        if offsets is not None:
            due[i] = start + offsets[i]
            delay = due[i] - time.monotonic()
            if delay > 0:
                time.sleep(delay)
        sent[i] = time.monotonic()
        if offsets is None:
            due[i] = sent[i]
        server.submit(digests[i], xs[i]).add_done_callback(on_done(i))

    last_due = float(due[-1])
    drained = all_done.wait(timeout=max(0.0, last_due + drain_limit_s - time.monotonic()))
    if not all_done.wait(timeout=max(0.0, last_due + timeout_s - time.monotonic())):
        errors.append(f"{pending[0]} requests not answered within {timeout_s}s")
    outputs = list(outputs)  # later completions no longer count
    finished = np.array([out is not None for out in outputs])
    latencies = 1e3 * (done - due)
    latencies[~finished] = np.inf
    return Phase(
        name=name,
        attempted=n,
        latencies_ms=latencies,
        outputs=outputs,
        late_ms_max=float(1e3 * np.max(sent - due)),
        drained=drained,
        seconds=float(np.max(done[finished]) - start) if finished.any() else float("inf"),
        queue_waits_ms=[w for w in waits if np.isfinite(w)],
        errors=errors,
    )
