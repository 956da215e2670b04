"""First-class deterministic fault injection.

Grew out of a test-only harness in :mod:`repro.resilience`.  The
promotion buys layering: :mod:`repro.faults` sits below every other
``repro`` package, so training, the campaign runner, the journal and
atomic saves can all host fault sites without import cycles.  Tests
and the ``repro chaos`` campaign driver install a plan to prove each
recovery path in-process.

See :mod:`repro.faults.plan` for the fault kinds and
:mod:`repro.faults.runtime` for the instrumented sites.
"""

from .plan import FaultPlan
from .runtime import (
    active_plan,
    clear,
    corrupt_file,
    inject,
    install,
    stall_seconds,
    torn_append,
    trigger,
)

__all__ = [
    "FaultPlan",
    "install",
    "clear",
    "active_plan",
    "inject",
    "trigger",
    "corrupt_file",
    "stall_seconds",
    "torn_append",
]
