"""Mini package exercising re-exports, relative imports, and cycles.

It sits at ``repro.kge`` so RPR010 treats what it lists in ``__all__`` as
entry points: ``discover_facts`` only.  ``Engine`` and ``compute`` are
re-exported without being listed.
"""

from .core import Engine, compute, discover_facts

__all__ = ["discover_facts"]
