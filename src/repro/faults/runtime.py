"""Per-process fault-plan activation and the instrumented hook points.

Production code calls the module-level hooks (:func:`trigger`,
:func:`corrupt_file`, :func:`stall_seconds`, :func:`torn_append`) at
well-known *sites*; with no plan installed every hook is a near-free
early return.  Tests and the ``repro chaos`` driver install a
:class:`~repro.faults.FaultPlan` (usually via the :func:`inject`
context manager) to prove each recovery path.

Instrumented sites
------------------

===================  ====================================================
site                 token
===================  ====================================================
``train_epoch``      epoch index
``matrix_cell``      ``dataset/model/strategy``
``journal_append``   event name of the record being appended
any retry label      attempt index (via :func:`stall_seconds`)
``save``             every path published through ``atomic_write``
===================  ====================================================
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from .plan import FaultPlan

__all__ = [
    "install",
    "clear",
    "active_plan",
    "inject",
    "trigger",
    "corrupt_file",
    "stall_seconds",
    "torn_append",
]

_ACTIVE: FaultPlan | None = None


def install(plan: FaultPlan) -> None:
    """Activate a plan for this process (see :func:`inject` for scoping)."""
    global _ACTIVE
    _ACTIVE = plan


def clear() -> None:
    """Deactivate any installed plan."""
    global _ACTIVE
    _ACTIVE = None


def active_plan() -> FaultPlan | None:
    return _ACTIVE


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` for the duration of a ``with`` block."""
    install(plan)
    try:
        yield plan
    finally:
        clear()


def trigger(site: str, token: str = "") -> None:
    """Raise any scheduled ``fail`` fault at this point."""
    if _ACTIVE is None:
        return
    fault = _ACTIVE._consume("fail", site, str(token))
    if fault is not None:
        raise fault.exception()(f"injected fault at {site}:{token}")


def corrupt_file(path: Path | str) -> bool:
    """Damage ``path`` if the active plan scheduled save corruption."""
    if _ACTIVE is None:
        return False
    fault = _ACTIVE._consume("corrupt", "save", str(path))
    if fault is None:
        return False
    path = Path(path)
    data = bytearray(path.read_bytes())
    if fault.mode == "truncate":
        damaged = bytes(data[: max(len(data) // 3, 1)])
    else:
        middle = len(data) // 2
        for offset in range(middle, min(middle + 32, len(data))):
            data[offset] ^= 0xFF
        damaged = bytes(data)
    path.write_bytes(damaged)
    return True


def stall_seconds(site: str, token: str = "") -> float:
    """Virtual seconds an attempt at ``site`` should appear to take."""
    if _ACTIVE is None:
        return 0.0
    fault = _ACTIVE._consume("stall", site, str(token))
    return fault.seconds if fault is not None else 0.0


def torn_append(token: str = "") -> bool:
    """Should the next journal append be torn mid-write?

    The journal implements the tearing (half a record, no newline, then
    raise); this hook only consumes the scheduled fault.
    """
    if _ACTIVE is None:
        return False
    return _ACTIVE._consume("torn", "journal_append", str(token)) is not None
