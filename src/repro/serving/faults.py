"""Deterministic, seeded fault injection for the sharded serving stack.

Chaos that cannot be replayed cannot be debugged.  The
:class:`FaultInjector` therefore draws its whole schedule up front from a
seeded RNG: given the same spec and seed, fault *k* always fires on the
*k*-th scheduled dispatch (a global batch counter incremented on every
shard dispatch), so a failing chaos run reproduces exactly.

Fault kinds (spec syntax ``"kind:count,kind:count"``):

* ``kill`` — SIGKILL a process shard's worker just before the batch is
  sent (the dispatch then fails with
  :class:`~repro.serving.procshard.WorkerDiedError`); on a thread shard,
  raise :class:`InjectedFault` instead (threads cannot be killed).
* ``hang`` — sleep ``hang_seconds`` inside the dispatch while the
  in-flight marker is set, so the supervisor's liveness monitor sees a
  stuck batch and runs its hung-worker recovery.
* ``corrupt`` — arm the process shard to truncate the next plans frame
  after it leaves the pipe
  (:class:`~repro.serving.procshard.FrameCorruptionError`, worker
  terminated for restart); :class:`InjectedFault` on a thread shard.
* ``slow`` — sleep ``slow_seconds`` before the batch (degrades
  throughput; nothing to recover).

Worker-side fault config rides the spawn spec (``worker_faults=`` on
:func:`~repro.serving.procshard.export_source_spec`); the only knob today
is ``ignore_stop`` — a worker that ignores STOP frames and SIGTERM, used
by the ``close()`` terminate→kill escalation regression test.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from typing import Dict, Optional, Union

import numpy as np

from repro.serving.shard import ShardBase, ShardFailure

__all__ = ["FAULT_KINDS", "FaultInjector", "InjectedFault", "parse_fault_spec"]

FAULT_KINDS = ("kill", "hang", "corrupt", "slow")


class InjectedFault(ShardFailure):
    """A deterministic chaos event standing in for a worker failure."""


def parse_fault_spec(spec: str) -> Dict[str, int]:
    """Parse ``"kill:3,hang:1"`` into ``{"kill": 3, "hang": 1}``."""
    counts: Dict[str, int] = {}
    for part in str(spec).split(","):
        part = part.strip()
        if not part:
            continue
        kind, _, count_text = part.partition(":")
        kind = kind.strip().lower()
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
            )
        try:
            count = int(count_text) if count_text else 1
        except ValueError:
            raise ValueError(
                f"fault count for {kind!r} must be an integer, got {count_text!r}"
            ) from None
        if count < 0:
            raise ValueError(f"fault count for {kind!r} must be non-negative")
        counts[kind] = counts.get(kind, 0) + count
    if not counts:
        raise ValueError(f"empty fault spec {spec!r}")
    return counts


class FaultInjector:
    """Seeded chaos source shared by every shard of one frontend.

    The schedule maps global dispatch ordinals to fault kinds: ``total``
    events are placed on distinct ordinals drawn uniformly from
    ``[warmup, warmup + horizon)`` and the kind order is a seeded shuffle.
    Two runs with the same spec/seed/horizon fire the same kinds at the
    same dispatch ordinals — which shard each ordinal lands on depends on
    thread interleaving, but the *number and kind* of injected faults is
    exact, which is what the equivalence and recovery assertions need.
    """

    def __init__(
        self,
        spec: Union[str, Dict[str, int]],
        seed: int = 0,
        horizon: Optional[int] = None,
        warmup: int = 2,
        hang_seconds: float = 1.0,
        slow_seconds: float = 0.02,
    ):
        self.spec = parse_fault_spec(spec) if isinstance(spec, str) else {
            kind: int(count) for kind, count in spec.items()
        }
        for kind in self.spec:
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
                )
        self.seed = int(seed)
        self.warmup = max(0, int(warmup))
        total = sum(self.spec.values())
        self.horizon = max(int(horizon) if horizon is not None else 8 * total, total)
        self.hang_seconds = float(hang_seconds)
        self.slow_seconds = float(slow_seconds)
        rng = np.random.default_rng(self.seed)
        ordinals = rng.choice(self.horizon, size=total, replace=False) + self.warmup
        kinds = [kind for kind, count in sorted(self.spec.items()) for _ in range(count)]
        rng.shuffle(kinds)
        self._schedule: Dict[int, str] = {
            int(ordinal): kind for ordinal, kind in zip(sorted(ordinals), kinds)
        }
        self._lock = threading.Lock()
        self._dispatches = 0
        self.injected: Dict[str, int] = {kind: 0 for kind in self.spec}

    @property
    def remaining(self) -> int:
        with self._lock:
            return len(self._schedule)

    def schedule(self) -> Dict[int, str]:
        """The (remaining) ordinal → kind map; deterministic for a seed."""
        with self._lock:
            return dict(self._schedule)

    def before_batch(self, shard: ShardBase) -> None:
        """Shard dispatch hook: fire the fault scheduled for this ordinal."""
        with self._lock:
            ordinal = self._dispatches
            self._dispatches += 1
            kind = self._schedule.pop(ordinal, None)
            if kind is not None:
                self.injected[kind] = self.injected.get(kind, 0) + 1
        if kind is not None:
            self._apply(kind, shard)

    def _apply(self, kind: str, shard: ShardBase) -> None:
        if kind == "slow":
            time.sleep(self.slow_seconds)
            return
        if kind == "hang":
            # The in-flight marker is already set (before_batch runs inside
            # _dispatch), so the supervisor's monitor sees a stuck batch.
            time.sleep(self.hang_seconds)
            return
        if shard.backend == "process":
            if kind == "corrupt":
                shard._corrupt_next_reply = True
                return
            pid = shard.worker_pid
            if pid is not None and pid != os.getpid():
                try:
                    os.kill(pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError, OSError):
                    pass
                return
            # No live worker to kill yet: simulate the death instead.
        raise InjectedFault(f"injected {kind} fault on shard {shard.index}")

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "seed": self.seed,
                "spec": dict(self.spec),
                "injected": dict(self.injected),
                "remaining": len(self._schedule),
                "dispatches": self._dispatches,
            }
