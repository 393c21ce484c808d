"""One shard's replica set: read balancing, failover, write fan-out.

A :class:`ShardTarget` owns an ordered list of protocol bindings for
the *same* shard — index 0 is the primary (it owns the shard's
durable journal), the rest are read replicas fed from the same
snapshot + WAL directory.  Reads rotate across replicas whose circuit
breaker admits them and fail over on transport faults; writes go to
the primary first (its failure fails the request) and are then fanned
to every secondary so in-memory replicas track the live corpus — a
secondary that misses a write is marked *stale* and ejected from the
read rotation until something heals it (the supervisor, after a
process restart that replays the shared journal).

Deadline-bounded calls are placed through a guard thread pool so a
hung wire costs a bounded thread, not the caller's lifetime.  While
budget remains and other candidates exist, a call is *hedged* — given
half the remaining budget — so one hung replica still leaves room to
fail over within the deadline.

Failure classification matters for byte-identity: transport faults
(``OSError``, ``ProtocolError``) and the retryable service codes
(``internal``/``saturated``/``unavailable``) trigger failover and
charge the breaker; every other ``ServiceError`` is an application
answer (``unknown_session``, ``bad_cursor``, ...) that all replicas
would agree on, and is relayed verbatim.  ``unknown_session`` alone
is *soft*: a replica that is still restoring legitimately disagrees,
so the read fails over without charging the breaker, and only relays
the error once every replica said the same thing.
"""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from typing import Callable, Dict, List, Optional

from repro.resilience.breaker import CircuitBreaker
from repro.resilience.policy import Deadline, DeadlineExceeded, RetryPolicy
from repro.service import protocol as P

#: Service-error codes that mean "this replica failed", not "this is
#: the answer" — safe to retry elsewhere, charged to the breaker.
FAILOVER_CODES = frozenset({"internal", "saturated", "unavailable"})

#: Codes a lagging replica can produce that a healthy one would not;
#: fail over without charging the breaker.
SOFT_CODES = frozenset({"unknown_session"})

#: Minimum per-try socket budget, seconds.
TRY_FLOOR = 0.05


class ReplicaUnavailable(RuntimeError):
    """Every replica of a shard refused or failed the call."""

    def __init__(self, shard: int, attempts: int) -> None:
        super().__init__(
            "shard {}: no replica answered after {} attempt{}".format(
                shard, attempts, "" if attempts == 1 else "s"))
        self.shard = shard
        self.attempts = attempts


class _ReplicaTimeout(RuntimeError):
    """A hedged try timed out but the request deadline still has
    budget — fail over, don't give up."""


def is_shard_loss(error: BaseException) -> bool:
    """Did this failure mean the shard (every replica) is gone, as
    opposed to an application-level answer?"""
    if isinstance(error, (ReplicaUnavailable, DeadlineExceeded)):
        return True
    if isinstance(error, P.ServiceError):
        return error.code in FAILOVER_CODES
    return isinstance(error, (OSError, P.ProtocolError))


class ShardTarget:
    """The coordinator's handle on one shard's replicas."""

    def __init__(self, shard: int, replicas: List,
                 retry: Optional[RetryPolicy] = None,
                 breaker_factory: Optional[
                     Callable[[], CircuitBreaker]] = None,
                 executor: Optional[ThreadPoolExecutor] = None) -> None:
        if not replicas:
            raise ValueError("a shard needs at least one replica")
        self.shard = shard
        self.replicas = list(replicas)
        self.retry = retry or RetryPolicy()
        factory = breaker_factory or CircuitBreaker
        self.breakers = [factory() for _ in self.replicas]
        self.stale = [False] * len(self.replicas)
        self._rr = itertools.count()
        self._lock = threading.Lock()
        self._executor = executor
        self._own_executor = False

    @property
    def primary(self):
        return self.replicas[0]

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _guard(self) -> ThreadPoolExecutor:
        """The pool deadline-bounded calls run on (lazily owned when
        the coordinator did not supply a shared one)."""
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=max(4, 2 * len(self.replicas)),
                    thread_name_prefix="repro-replica-guard")
                self._own_executor = True
            return self._executor

    def _invoke(self, index: int, command,
                deadline: Optional[Deadline], hedge: bool = False):
        """One call to one replica, deadline-bounded when asked.

        ``hedge`` grants only half the remaining budget so a hung
        replica leaves room to fail over; a hedged timeout raises
        :class:`_ReplicaTimeout`, a true expiry
        :class:`DeadlineExceeded`.
        """
        backend = self.replicas[index]
        if deadline is None:
            return backend.call(command)
        remaining = deadline.remaining()
        if remaining <= 0:
            raise DeadlineExceeded(
                "shard {} deadline expired before the call"
                .format(self.shard))
        budget = remaining
        if hedge:
            budget = max(remaining * 0.5, min(TRY_FLOOR, remaining))
        stamped = command.with_deadline(max(1, int(budget * 1000)))
        future = self._guard().submit(backend.call, stamped)
        try:
            return future.result(timeout=budget)
        except FuturesTimeout:
            future.cancel()
            if deadline.expired:
                raise DeadlineExceeded(
                    "shard {} missed its deadline".format(
                        self.shard)) from None
            raise _ReplicaTimeout(
                "shard {} replica {} timed out after {:.0f}ms".format(
                    self.shard, index, budget * 1000)) from None

    def _rotation(self) -> List[int]:
        count = len(self.replicas)
        start = next(self._rr) % count
        return [(start + step) % count for step in range(count)]

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------
    def call_read(self, command, deadline: Optional[Deadline] = None):
        """Load-balanced, failing-over, breaker-guarded read."""
        relay: Optional[P.ServiceError] = None
        attempts = 0
        for round_index in range(self.retry.attempts):
            if round_index:
                self.retry.sleep(round_index, deadline)
            if deadline is not None and deadline.expired:
                raise DeadlineExceeded(
                    "shard {} deadline expired".format(self.shard))
            allowed = [index for index in self._rotation()
                       if not self.stale[index]
                       and self.breakers[index].allow()]
            if not allowed:
                allowed = [0]  # last resort: force the primary
            for position, index in enumerate(allowed):
                attempts += 1
                hedge = position < len(allowed) - 1 \
                    or round_index < self.retry.attempts - 1
                try:
                    result = self._invoke(index, command, deadline,
                                          hedge=hedge)
                except DeadlineExceeded:
                    self.breakers[index].record_failure()
                    raise
                except _ReplicaTimeout:
                    self.breakers[index].record_failure()
                    continue
                except P.ServiceError as error:
                    if error.code in FAILOVER_CODES:
                        self.breakers[index].record_failure()
                        relay = error
                        continue
                    if error.code in SOFT_CODES:
                        relay = error
                        continue
                    raise
                except (OSError, P.ProtocolError):
                    self.breakers[index].record_failure()
                    continue
                self.breakers[index].record_success()
                return result
        if relay is not None:
            raise relay
        raise ReplicaUnavailable(self.shard, attempts)

    def call_write(self, command, deadline: Optional[Deadline] = None):
        """Primary-first write, fanned to every live secondary.

        The primary's failure fails the request (it owns the
        journal).  A secondary that cannot apply the write is marked
        stale and leaves the read rotation until healed — after a
        restart it replays the shared journal and catches up.
        """
        result = self.call_primary(command, deadline)
        for index in range(1, len(self.replicas)):
            if self.stale[index]:
                continue
            try:
                self._invoke(index, command, deadline)
            except (OSError, P.ProtocolError, P.ServiceError,
                    _ReplicaTimeout, DeadlineExceeded):
                self.stale[index] = True
                self.breakers[index].record_failure()
        return result

    def call_primary(self, command,
                     deadline: Optional[Deadline] = None):
        """Primary only — checkpoints; standbys never own the log.

        A transport failure (a dropped connection, garbled bytes, a
        hedged timeout) raises :class:`ReplicaUnavailable`, chained to
        it: the primary cannot be replaced, so the request answers
        ``unavailable``.
        """
        try:
            return self._invoke(0, command, deadline)
        except (OSError, P.ProtocolError, _ReplicaTimeout) as error:
            raise ReplicaUnavailable(self.shard, 1) from error

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    def heal(self, index: int) -> None:
        """Re-admit a replica (it restarted and replayed the log)."""
        self.stale[index] = False
        self.breakers[index].reset()

    def report(self) -> List[Dict[str, object]]:
        entries = []
        for index, breaker in enumerate(self.breakers):
            entry = {"shard": self.shard, "replica": index,
                     "stale": self.stale[index]}
            entry.update(breaker.snapshot())
            entries.append(entry)
        return entries

    def close(self) -> None:
        with self._lock:
            if self._own_executor and self._executor is not None:
                self._executor.shutdown(wait=False)
                self._executor = None

    def __repr__(self) -> str:
        return "ShardTarget(shard={}, replicas={})".format(
            self.shard, len(self.replicas))
