"""Composable fallback policies for routing plan requests to models.

Historically :meth:`AdsalaRuntime.plan` hard-coded one branch: if the
requested precision of a routine was not installed, silently try the other
precision.  The serving layer replaces that branch with an explicit chain of
:class:`FallbackPolicy` objects evaluated in order; the first one that
resolves the request wins, and the resolution records *which* policy served
it so the substitution is visible on the resulting
:class:`~repro.core.runtime.ExecutionPlan` (``fallback_from`` / ``policy``).

Built-in policies:

* :class:`InstalledPrecisionPolicy` — serve the routine exactly as
  requested, if installed.
* :class:`CrossPrecisionPolicy` — serve ``sgemm`` with the ``dgemm`` model
  (and vice versa): the runtime-vs-threads structure of the two precisions
  is close enough for a sensible plan, and refusing the call would be worse.
* :class:`MaxThreadsPolicy` — last resort for routines with no trained
  model at all: fall back to the platform's maximum thread count (the
  vendor-BLAS default the paper benchmarks against).  No prediction is
  involved, so the plan's predicted time equals its baseline time.

Two ready-made chains are provided: :func:`default_runtime_chain` (the
facade's historical behaviour — raises for fully unknown routines) and
:func:`default_serving_chain` (adds the max-threads last resort so a serving
engine never rejects a syntactically valid request).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.blas.api import parse_routine

__all__ = [
    "RoutineResolution",
    "UnservableRoutineError",
    "FallbackPolicy",
    "InstalledPrecisionPolicy",
    "CrossPrecisionPolicy",
    "MaxThreadsPolicy",
    "FallbackChain",
    "default_runtime_chain",
    "default_serving_chain",
]


class UnservableRoutineError(KeyError):
    """No policy in the fallback chain could serve the requested routine."""


@dataclass(frozen=True)
class RoutineResolution:
    """Outcome of routing one request through the fallback chain.

    Attributes
    ----------
    requested:
        The normalized requested routine key (e.g. ``"sgemm"``).
    key:
        The installed routine key that actually serves the request — equal
        to ``requested`` unless a substitution happened.
    policy:
        Name of the policy that resolved the request.
    heuristic:
        True when no trained model backs the resolution (max-threads path).
    """

    requested: str
    key: str
    policy: str
    heuristic: bool = False

    @property
    def fallback_from(self) -> Optional[str]:
        """The requested key when a substitution happened, else ``None``."""
        return self.requested if self.key != self.requested else None


class FallbackPolicy:
    """One link in the fallback chain.

    Subclasses implement :meth:`resolve`, returning a
    :class:`RoutineResolution` when they can serve the request and ``None``
    to pass it on to the next policy.  ``source`` is anything exposing the
    bundle protocol (``routines`` mapping, ``platform``) — an
    :class:`~repro.core.install.InstallationBundle` or a registry
    :class:`~repro.serving.registry.BundleHandle`.
    """

    name = "abstract"

    def resolve(self, requested: str, source) -> Optional[RoutineResolution]:
        raise NotImplementedError


class InstalledPrecisionPolicy(FallbackPolicy):
    """Serve the routine exactly as requested when its model is installed."""

    name = "installed"

    def resolve(self, requested: str, source) -> Optional[RoutineResolution]:
        if requested in source.routines:
            return RoutineResolution(requested=requested, key=requested, policy=self.name)
        return None


class CrossPrecisionPolicy(FallbackPolicy):
    """Serve one precision with the other precision's model."""

    name = "cross-precision"

    def resolve(self, requested: str, source) -> Optional[RoutineResolution]:
        prefix, base = requested[0], requested[1:]
        if prefix not in ("s", "d"):
            return None
        other = ("d" if prefix == "s" else "s") + base
        if other in source.routines:
            return RoutineResolution(requested=requested, key=other, policy=self.name)
        return None


class MaxThreadsPolicy(FallbackPolicy):
    """Serve any valid routine with the platform's maximum thread count."""

    name = "max-threads"

    def resolve(self, requested: str, source) -> Optional[RoutineResolution]:
        return RoutineResolution(
            requested=requested, key=requested, policy=self.name, heuristic=True
        )


class FallbackChain:
    """Ordered list of policies; the first resolution wins."""

    def __init__(self, policies: Sequence[FallbackPolicy]):
        if not policies:
            raise ValueError("FallbackChain needs at least one policy")
        self.policies: List[FallbackPolicy] = list(policies)

    def resolve(self, routine: str, source) -> RoutineResolution:
        """Normalize ``routine`` and route it through the chain.

        Raises :class:`UnservableRoutineError` (a :class:`KeyError`) when no
        policy resolves the request.
        """
        prefix, base, _ = parse_routine(routine)
        return self.route(prefix + base, source)

    def route(self, requested: str, source) -> RoutineResolution:
        """:meth:`resolve` for a key intake already normalised (``"sgemm"``,
        never ``"SGEMM"`` or ``"gemm"``): the policies alone, no parse."""
        for policy in self.policies:
            resolution = policy.resolve(requested, source)
            if resolution is not None:
                return resolution
        from repro.routines.catalog import get_catalog

        raise UnservableRoutineError(
            f"Routine {requested!r} was not installed and no fallback policy "
            f"({[p.name for p in self.policies]}) could serve it; installed: "
            f"{sorted(source.routines)}; registered routine keys: "
            f"{sorted(get_catalog().keys())}"
        )

    def describe(self) -> str:
        return " -> ".join(policy.name for policy in self.policies)


def default_runtime_chain() -> FallbackChain:
    """The facade's historical behaviour: installed, then cross-precision."""
    return FallbackChain([InstalledPrecisionPolicy(), CrossPrecisionPolicy()])


def default_serving_chain() -> FallbackChain:
    """Serving default: never reject a valid request (max-threads last resort)."""
    return FallbackChain(
        [InstalledPrecisionPolicy(), CrossPrecisionPolicy(), MaxThreadsPolicy()]
    )
