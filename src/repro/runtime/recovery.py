"""Failure classification, retry/backoff policy, and the recovery loop.

The runtime's fault-tolerance contract: infrastructure failures are
**retryable** — a dead pool worker (``BrokenProcessPool``), a deadline
blown by a straggler (:class:`DeadlineExceeded`), a broken pipe — and are
retried with exponential backoff (rebuilding the broken resource in
between) before falling back to **serial re-execution**, which always
completes and is *bit-identical* to the faulted attempt because every
shard re-derives its sampler state from its own plan seed. Payload
failures are **fatal** — a malformed request, a shape mismatch, a
:class:`PoisonedPayload` — and surface immediately to the caller with
the original traceback chained (``raise ... from exc``), because
retrying a request that cannot execute only burns the queue.

:func:`run_with_recovery` is the one loop every recovering execution
path shares (the shard-parallel scheduler, the serving daemon); it
returns the result together with a :class:`RecoveryLog` describing what
it took, which surfaces as
:attr:`repro.api.results.InferenceResult.recovery` and in the
:class:`~repro.runtime.daemon.DaemonStats` counters.
"""

from __future__ import annotations

import queue
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.runtime.env import env_bool, env_float, env_int


class DeadlineExceeded(TimeoutError):
    """A request ran past its deadline (stragglers are abandoned and
    the work re-executes serially)."""


class QueueFull(queue.Full):
    """The daemon rejected a request because its queue is at capacity
    (``admission="reject"``, or a blocking ``submit`` timed out).

    Subclasses :class:`queue.Full` so pre-existing callers that caught
    the stdlib type keep working.
    """


class PoisonedPayload(ValueError):
    """A request payload that deterministically cannot execute —
    the canonical *fatal* (never retried) failure."""


class RequestError(RuntimeError):
    """An infrastructure failure that outlived every recovery attempt.

    Carries ``kind`` (``"retryable"`` / ``"fatal"``) and chains the
    original failure as ``__cause__`` so the future a caller holds has
    an actionable traceback.
    """

    def __init__(self, message: str, *, kind: str = "retryable") -> None:
        super().__init__(message)
        self.kind = kind


#: Exception types the runtime will retry. OSError covers the pipe
#: breakage a dying worker leaves behind; TimeoutError
#: covers both stdlib timeouts and DeadlineExceeded.
_RETRYABLE = (BrokenProcessPool, TimeoutError, ConnectionError, EOFError, OSError)


def classify(exc: BaseException) -> str:
    """``"retryable"`` or ``"fatal"`` for one failure.

    Infrastructure failures (worker death, broken pipes, timeouts)
    are retryable; payload/programming errors — and anything derived
    from ``BaseException`` only, like ``KeyboardInterrupt`` — are
    fatal.
    """
    if isinstance(exc, RequestError):
        return exc.kind
    if isinstance(exc, PoisonedPayload):
        return "fatal"
    if isinstance(exc, _RETRYABLE):
        return "retryable"
    return "fatal"


def classified(exc: BaseException) -> BaseException:
    """Wrap a retryable infrastructure failure in :class:`RequestError`
    (cause-chained); fatal failures pass through untouched — their own
    traceback *is* the actionable cause."""
    if isinstance(exc, RequestError):
        return exc
    if classify(exc) == "fatal":
        return exc
    try:
        raise RequestError(
            f"request failed after recovery: {type(exc).__name__}: {exc}",
            kind="retryable",
        ) from exc
    except RequestError as wrapped:
        return wrapped


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """How hard the runtime fights before giving up on an attempt.

    ``max_retries`` bounds re-submissions after the first attempt;
    backoff grows exponentially (``backoff_base_s * factor**retry``),
    capped at ``max_backoff_s``. ``deadline_s`` is the default
    per-request deadline (``None`` = none); ``serial_fallback`` enables
    the bit-identical in-process re-execution after retries are
    exhausted (or when the deadline leaves no room to retry).
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 1.0
    deadline_s: Optional[float] = None
    serial_fallback: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base_s < 0:
            raise ValueError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}"
            )
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {self.deadline_s}")

    def backoff(self, retry: int) -> float:
        """Sleep before the ``retry``-th re-submission (0-based)."""
        return min(
            self.backoff_base_s * self.backoff_factor**retry, self.max_backoff_s
        )

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        """Policy from ``REPRO_MAX_RETRIES`` / ``REPRO_RETRY_BACKOFF_S``
        / ``REPRO_REQUEST_DEADLINE_S`` / ``REPRO_SERIAL_FALLBACK``
        (each optional; defaults otherwise)."""
        kwargs = {}
        retries = env_int("REPRO_MAX_RETRIES")
        if retries is not None:
            kwargs["max_retries"] = retries
        backoff = env_float("REPRO_RETRY_BACKOFF_S", minimum=0.0)
        if backoff is not None:
            kwargs["backoff_base_s"] = backoff
        deadline = env_float("REPRO_REQUEST_DEADLINE_S", minimum=0.0)
        if deadline is not None and deadline > 0:
            kwargs["deadline_s"] = deadline
        fallback = env_bool("REPRO_SERIAL_FALLBACK")
        if fallback is not None:
            kwargs["serial_fallback"] = fallback
        return cls(**kwargs)


@dataclass
class RecoveryLog:
    """What one recovering execution went through.

    ``attempts`` counts executions (1 = clean first try); ``retries``
    records each retried failure (error type, classification, and the
    corrective action taken); ``fallback`` names the terminal rescue
    path (``"serial"``) when the attempts never succeeded;
    ``recovered`` is True when the result came from anything but a
    clean first attempt.
    """

    attempts: int = 0
    retries: List[dict] = field(default_factory=list)
    fallback: Optional[str] = None
    recovered: bool = False

    @property
    def clean(self) -> bool:
        return not self.retries and self.fallback is None

    def as_dict(self) -> dict:
        return {
            "attempts": self.attempts,
            "retries": [dict(r) for r in self.retries],
            "fallback": self.fallback,
            "recovered": self.recovered,
        }


def run_with_recovery(
    attempt: Callable[[Optional[float]], object],
    *,
    policy: RetryPolicy,
    deadline_s: Optional[float] = None,
    fallback: Optional[Callable[[], object]] = None,
    on_retry: Optional[Callable[[BaseException], Optional[str]]] = None,
    sleep: Callable[[float], None] = time.sleep,
):
    """Execute ``attempt`` under ``policy``; returns ``(result, log)``.

    ``attempt`` receives the remaining deadline budget in seconds
    (``None`` when no deadline applies) and must honor it. Retryable
    failures trigger ``on_retry(exc)`` (resource repair, e.g. rebuild
    a pool; it may return a short label for the log),
    a backoff sleep, and a re-execution, up to ``policy.max_retries``
    times while deadline budget remains. When attempts are exhausted —
    or the deadline has left no room to retry — ``fallback`` (the
    bit-identical serial re-execution) rescues the request; without a
    fallback the last failure is re-raised. Fatal failures propagate
    immediately, untouched.
    """
    effective = deadline_s if deadline_s is not None else policy.deadline_s
    deadline = None if effective is None else time.monotonic() + effective
    log = RecoveryLog()
    retry = 0
    while True:
        remaining = None if deadline is None else deadline - time.monotonic()
        if remaining is not None and remaining <= 0 and log.attempts > 0:
            # Deadline gone mid-recovery: go straight to the rescue path.
            exc: BaseException = DeadlineExceeded(
                f"deadline of {effective:.3f}s exhausted during recovery"
            )
        else:
            log.attempts += 1
            try:
                result = attempt(remaining)
                log.recovered = not log.clean
                return result, log
            except Exception as caught:
                exc = caught
                if classify(exc) == "fatal":
                    raise
        budget_left = deadline is None or (deadline - time.monotonic()) > 0
        if retry < policy.max_retries and budget_left:
            action = on_retry(exc) if on_retry is not None else None
            log.retries.append(
                {
                    "error": type(exc).__name__,
                    "kind": "retryable",
                    "action": action or "retry",
                }
            )
            pause = policy.backoff(retry)
            if pause:
                sleep(pause)
            retry += 1
            continue
        if fallback is not None:
            log.retries.append(
                {
                    "error": type(exc).__name__,
                    "kind": "retryable",
                    "action": "serial-fallback",
                }
            )
            result = fallback()
            log.fallback = "serial"
            log.recovered = True
            return result, log
        raise classified(exc)
