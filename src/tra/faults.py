"""Deterministic crash injection.

Crashes are placed at coordinator-relative protocol points. A fault either
targets the coordinator (raised as a CoordinatorCrash signal that the caller
turns into coordinator.crash()) or a resource manager (crashed in place; the
commit protocol then observes ResourceCrashed from it). Endpoint misbehavior
is scripted on the endpoint simulators themselves, not injected here.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import ScenarioError

COORDINATOR_TARGET = "coordinator"


class CrashPoint(Enum):
    BEFORE_PREPARE = "before_prepare"
    AFTER_VOTE = "after_vote_before_decision"
    AFTER_COMMIT_RECORD = "after_commit_record_before_phase2"
    MID_PHASE2 = "mid_phase2_one_committed"
    AFTER_PHASE2 = "after_phase2_before_end"


ALL_POINTS = tuple(CrashPoint)


class CoordinatorCrash(Exception):
    """Control-flow signal: the coordinator just lost power mid-protocol.

    Deliberately not a TraError; handlers for runtime errors must not
    swallow it.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One injected crash: who dies, at which protocol point, and in which
    transaction (by id; None for the first one to reach the point)."""

    target: str
    point: CrashPoint
    txn: int | None = None

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse the CLI form `<target>@<point>`; a target name may hold `@`."""
        if "@" not in text:
            raise ScenarioError(f"fault {text!r}: expected <target>@<point>")
        target, _, point_raw = text.rpartition("@")
        if not target:
            raise ScenarioError(f"fault {text!r}: empty target")
        try:
            point = CrashPoint(point_raw)
        except ValueError:
            names = ", ".join(p.value for p in ALL_POINTS)
            raise ScenarioError(
                f"fault {text!r}: unknown point {point_raw!r} (one of: {names})"
            ) from None
        return cls(target, point)

    def __str__(self) -> str:
        return f"{self.target}@{self.point.value}"


class FaultInjector:
    """Fires configured faults when the coordinator passes their points.

    Each fault fires at most once, and only in its own transaction when it
    names one. Resource targets only fire for a transaction they are
    enlisted in (otherwise the fault waits for one).
    """

    def __init__(self, faults: list[FaultSpec] | None = None) -> None:
        self.faults = list(faults or ())
        self.fired: list[FaultSpec] = []

    def fire(self, point: CrashPoint, ctx, registry: dict) -> None:
        for spec in self.faults:
            if spec in self.fired or spec.point is not point or spec.txn not in (None, ctx.id):
                continue
            if spec.target == COORDINATOR_TARGET:
                self.fired.append(spec)
                raise CoordinatorCrash(str(spec))
            if spec.target not in ctx.enlisted:
                continue
            self.fired.append(spec)
            registry[spec.target].crash()

    def any_fired(self) -> bool:
        return bool(self.fired)
