"""Integrity and time budgets for training artefacts and queries.

* :mod:`~repro.resilience.atomic` — write-temp-fsync-rename file
  publication plus content checksums, so corruption is detected at read
  time rather than producing garbage embeddings;
* :mod:`~repro.resilience.deadline` — the wall-clock :class:`Deadline`
  behind ``serve``'s typed 504s, ``discover_facts(deadline=)`` and
  ``grid --cell-deadline``;
* :mod:`~repro.resilience.rng` — per-key RNG streams spawned from one
  seed (discovery gives every relation its own);
* :mod:`~repro.resilience.errors` — the typed failures.

Layering: this package sits below :mod:`repro.kge` and
:mod:`repro.experiments` and must never import from them.
"""

from .atomic import atomic_savez, atomic_write, atomic_write_bytes, digest_arrays
from .deadline import Deadline
from .errors import (
    CheckpointCorruptError,
    DeadlineExceededError,
    ResilienceError,
    TrainingDivergedError,
)
from .rng import spawn_stream

__all__ = [
    "ResilienceError",
    "CheckpointCorruptError",
    "TrainingDivergedError",
    "DeadlineExceededError",
    "Deadline",
    "atomic_write",
    "atomic_write_bytes",
    "atomic_savez",
    "digest_arrays",
    "spawn_stream",
]
