"""Sliding-window engine (one window at a time over one graph).

A sliding sweep asks the same question of many heavily overlapping
windows.  :class:`SlidingEngine` answers each one as a windowed query
over the parent graph's columnar store: ``MST_a`` by Algorithm 1 over
the window's slice of the columns, ``MST_w`` by the cold per-window
pipeline over the root's reach.

See ``docs/performance.md`` ("Sliding windows") for why windows share
no state.
"""

from __future__ import annotations

from repro.incremental.engine import SlidingEngine

__all__ = ["SlidingEngine"]
