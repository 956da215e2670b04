"""Mini package exercising re-exports, relative imports, and cycles."""

from .core import Engine, compute

__all__ = ["Engine", "compute"]
