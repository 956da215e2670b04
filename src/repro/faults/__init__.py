"""First-class deterministic fault injection.

Grew out of a test-only harness in :mod:`repro.resilience`.  The
promotion buys two things the old home could not offer:

* **Layering** — :mod:`repro.faults` sits below every other ``repro``
  package, so the parallel fabric, the journal, and the shared-memory
  layer can all host fault sites without import cycles.
* **Process spanning** — plans serialize through the spawn boundary
  (:func:`export_to_env` / :func:`install_from_env`), so a schedule
  armed in the parent fires inside pool workers too, which is what the
  ``repro chaos`` campaign driver and the watchdog tests rely on.

See :mod:`repro.faults.plan` for the fault kinds and
:mod:`repro.faults.runtime` for the instrumented sites.
"""

from .plan import PAYLOAD_VERSION, FaultPlan
from .runtime import (
    FAULT_PLAN_ENV,
    active_plan,
    clear,
    corrupt_file,
    export_to_env,
    inject,
    install,
    install_from_env,
    stall_seconds,
    torn_append,
    trigger,
)

__all__ = [
    "FaultPlan",
    "PAYLOAD_VERSION",
    "FAULT_PLAN_ENV",
    "install",
    "clear",
    "active_plan",
    "inject",
    "trigger",
    "corrupt_file",
    "stall_seconds",
    "torn_append",
    "export_to_env",
    "install_from_env",
]
