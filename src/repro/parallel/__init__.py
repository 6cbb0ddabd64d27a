"""Parallel substrate: independent work items over plain threads."""

from .pool import parallel_map

__all__ = ["parallel_map"]
