"""Fault plans: scripted failure schedules.

A :class:`FaultPlan` is an ordered list of faults, each matching a
``(kind, site, token)`` triple by :func:`fnmatch` patterns and firing a
bounded number of times.  Plans are pure data: building one never arms
anything — :func:`repro.faults.install` (or the :func:`repro.faults.inject`
context manager) activates a plan for the current process.

Fault kinds
-----------

``fail``
    Raise an exception when the site triggers — a crashed training
    epoch, a failed matrix cell, a poisoned journal append.
``stall``
    A *virtual* stall, reported through
    :func:`repro.faults.stall_seconds` so retry deadlines can be
    exercised without real waiting.
``corrupt``
    Damage a just-published file (byte flip or truncation) — a torn
    write the checksum layer must catch.
``torn``
    Tear the next matching journal append: the record is half-written
    with no trailing newline and the append raises, leaving exactly the
    truncated-tail state a crash mid-``write`` produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch

__all__ = ["FaultPlan"]


def _default_exception() -> type[Exception]:
    # Imported lazily: repro.faults sits below repro.resilience in the
    # layering, and a module-level import would recreate the cycle that
    # moving the subsystem out of resilience was meant to break.
    from ..resilience.errors import FaultInjectedError

    return FaultInjectedError


@dataclass
class _Fault:
    kind: str  # "fail" | "corrupt" | "stall" | "torn"
    site: str
    pattern: str
    times: int  # remaining firings; < 0 means unlimited
    exc: type[Exception] | None = None  # None = FaultInjectedError
    seconds: float = 0.0
    mode: str = "flip"  # corrupt mode: "flip" | "truncate"
    fired: int = 0

    def matches(self, kind: str, site: str, token: str) -> bool:
        return (
            self.kind == kind
            and self.times != 0
            and fnmatch(site, self.site)
            and fnmatch(token, self.pattern)
        )

    def consume(self) -> None:
        self.fired += 1
        if self.times > 0:
            self.times -= 1

    def exception(self) -> type[Exception]:
        return self.exc if self.exc is not None else _default_exception()


@dataclass
class FaultPlan:
    """A scripted set of faults; builder methods chain."""

    faults: list[_Fault] = field(default_factory=list)

    def fail(
        self,
        site: str,
        match: str = "*",
        times: int = 1,
        exc: type[Exception] | None = None,
    ) -> "FaultPlan":
        """Raise ``exc`` the next ``times`` times ``site``/``match`` triggers.

        ``exc=None`` raises :class:`~repro.resilience.FaultInjectedError`.
        """
        self.faults.append(_Fault("fail", site, match, times, exc=exc))
        return self

    def corrupt(
        self, match: str = "*", times: int = 1, mode: str = "flip"
    ) -> "FaultPlan":
        """Damage files matching ``match`` right after an atomic publish.

        ``mode="flip"`` inverts a byte run mid-file (checksum-level
        corruption); ``mode="truncate"`` chops the tail (zip-level).
        """
        if mode not in ("flip", "truncate"):
            raise ValueError(f"corrupt mode must be flip/truncate, got {mode!r}")
        self.faults.append(_Fault("corrupt", "save", match, times, mode=mode))
        return self

    def stall(
        self, site: str, seconds: float, match: str = "*", times: int = 1
    ) -> "FaultPlan":
        """Report a virtual stall of ``seconds`` at ``site``.

        Stalls are reported through :func:`repro.faults.stall_seconds` —
        the retry executor adds them to its measured attempt time so
        deadline logic can be tested without waiting.
        """
        self.faults.append(_Fault("stall", site, match, times, seconds=seconds))
        return self

    def torn(self, match: str = "*", times: int = 1) -> "FaultPlan":
        """Tear the next matching journal append mid-write.

        The journal writes roughly half the record with no trailing
        newline, fsyncs, and raises — the exact on-disk state a process
        crash between ``write`` and the newline leaves behind.
        """
        self.faults.append(_Fault("torn", "journal_append", match, times))
        return self

    def fired(self) -> int:
        """Total fault firings so far (did the plan actually trigger?)."""
        return sum(fault.fired for fault in self.faults)

    def _consume(self, kind: str, site: str, token: str) -> _Fault | None:
        for fault in self.faults:
            if fault.matches(kind, site, token):
                fault.consume()
                return fault
        return None
