"""Fault tolerance for training and campaign execution.

The paper's experimental matrix (sampling strategies × KGE models ×
datasets) is a long, failure-prone campaign: one diverged loss or one
truncated checkpoint silently poisons every downstream fact-discovery
number.  This package makes the stack survive those faults instead of
restarting from zero:

* :mod:`~repro.resilience.guards` — per-epoch NaN/Inf/divergence
  detection with halt / rollback / retry policies;
* :mod:`~repro.resilience.atomic` — write-temp-fsync-rename file
  publication plus content checksums, so corruption is detected at read
  time rather than producing garbage embeddings;
* :mod:`~repro.resilience.retry` — the shared backoff/deadline retry
  executor (jitter from an injected RNG, fully deterministic in tests);
* :mod:`~repro.resilience.journal` — crash-safe JSONL run journals that
  make :func:`repro.experiments.run_matrix` resumable;
* :mod:`~repro.resilience.rng` — seed-sequence spawning so retried work
  is deterministic without replaying the identical failing draw;
* :mod:`~repro.resilience.deadline` — the unified wall-clock
  :class:`Deadline` threaded from CLI flags down to retry loops and the
  scheduler watchdog.

Layering: this package sits below :mod:`repro.kge` and
:mod:`repro.experiments` (and above only :mod:`repro.faults`) and must
never import from them.
"""

from .atomic import atomic_savez, atomic_write, atomic_write_bytes, digest_arrays
from .deadline import Deadline
from .errors import (
    CheckpointCorruptError,
    DeadlineExceededError,
    FaultInjectedError,
    ResilienceError,
    RetryBudgetExceededError,
    SegmentLostError,
    TrainingDivergedError,
)
from ..faults import FaultPlan, inject
from .guards import GuardConfig, GuardEvent, GuardReport, TrainingGuard
from .journal import JournalView, RunJournal, error_fingerprint
from .retry import RetryPolicy, with_retries
from .rng import spawn_seed, spawn_stream

__all__ = [
    "ResilienceError",
    "CheckpointCorruptError",
    "TrainingDivergedError",
    "RetryBudgetExceededError",
    "DeadlineExceededError",
    "SegmentLostError",
    "FaultInjectedError",
    "Deadline",
    "atomic_write",
    "atomic_write_bytes",
    "atomic_savez",
    "digest_arrays",
    "RetryPolicy",
    "with_retries",
    "spawn_stream",
    "spawn_seed",
    "GuardConfig",
    "GuardEvent",
    "GuardReport",
    "TrainingGuard",
    "RunJournal",
    "JournalView",
    "error_fingerprint",
    "FaultPlan",
    "inject",
]
