"""Cooperative deadline / node-expansion budgets.

The ``MST_w`` path is MAX-SNP-hard and the level-``i`` greedy DST
solvers have ``O(n^i k^i)`` worst cases, so a single oversized window
or adversarial instance can hang a run indefinitely.  A :class:`Budget`
makes every expensive loop *cooperatively* interruptible: solvers call
``budget.checkpoint()`` once per node expansion, and the checkpoint
raises :class:`repro.core.errors.BudgetExceededError` as soon as the
wall-clock deadline or the expansion ceiling is hit.

Budgets are deliberately cheap: a checkpoint is one counter increment
plus (with a deadline) one ``time.monotonic()`` call.  A budget is shared
state -- the same object can be threaded through a whole fallback chain
so the deadline covers the chain end to end.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.core.errors import BudgetExceededError


class Budget:
    """A cooperative execution budget shared across one logical solve.

    Parameters
    ----------
    deadline_seconds:
        Wall-clock allowance measured from :meth:`start` (implicitly
        the first checkpoint).  ``None`` disables the deadline.
    max_expansions:
        Ceiling on the number of node expansions (checkpoint calls,
        weighted by their ``amount``).  ``None`` disables the ceiling.
    """

    __slots__ = ("deadline_seconds", "max_expansions", "expansions", "_started_at")

    def __init__(
        self,
        deadline_seconds: Optional[float] = None,
        max_expansions: Optional[int] = None,
    ) -> None:
        if deadline_seconds is not None and deadline_seconds < 0:
            raise ValueError(f"deadline_seconds must be >= 0, got {deadline_seconds}")
        if max_expansions is not None and max_expansions < 0:
            raise ValueError(f"max_expansions must be >= 0, got {max_expansions}")
        self.deadline_seconds = deadline_seconds
        self.max_expansions = max_expansions
        self.expansions = 0
        self._started_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def unlimited(cls) -> "Budget":
        """A budget that never trips (but still counts expansions)."""
        return cls()

    @classmethod
    def deadline(cls, seconds: float) -> "Budget":
        """Shorthand for a pure wall-clock budget."""
        return cls(deadline_seconds=seconds)

    @classmethod
    def per_task(cls, deadline_seconds: Optional[float]) -> Optional["Budget"]:
        """A started per-task deadline budget, or ``None`` without one.

        The shared constructor of every per-cell/per-task budget in the
        serial *and* parallel execution paths.  Budgets anchor to a
        process-local monotonic clock and are shared mutable state, so
        they must never cross a process boundary: a parallel worker
        calls this *inside* the task to start its own budget, and only
        the structured outcome (elapsed seconds, expansions, the
        tripped-rung record) travels back to the parent.
        """
        if deadline_seconds is None:
            return None
        return cls(deadline_seconds=deadline_seconds).start()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_limited(self) -> bool:
        """Whether any ceiling is configured at all."""
        return self.deadline_seconds is not None or self.max_expansions is not None

    def start(self) -> "Budget":
        """Start the wall clock if it is not already running.

        Idempotent so a budget shared across a fallback chain keeps the
        *chain's* start time even though every solver entry point calls
        ``start()``.  Use :meth:`restart` to force a reset.
        """
        if self._started_at is None:
            self._started_at = time.monotonic()
        return self

    def restart(self) -> "Budget":
        """Force-reset the wall clock and expansion counter."""
        self._started_at = time.monotonic()
        self.expansions = 0
        return self

    def elapsed_seconds(self) -> float:
        """Seconds since :meth:`start` (0 before the clock starts)."""
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    def remaining_seconds(self) -> float:
        """Deadline headroom (``inf`` without a deadline, floored at 0)."""
        if self.deadline_seconds is None:
            return float("inf")
        return max(0.0, self.deadline_seconds - self.elapsed_seconds())

    def exceeded(self) -> Optional[str]:
        """Non-raising probe: the tripped resource name, or ``None``."""
        if self.max_expansions is not None and self.expansions > self.max_expansions:
            return "expansions"
        if self.deadline_seconds is not None:
            if self._started_at is None:
                self.start()
            if self.elapsed_seconds() > self.deadline_seconds:
                return "deadline"
        return None

    # ------------------------------------------------------------------
    # The hot path
    # ------------------------------------------------------------------
    def checkpoint(self, amount: int = 1) -> None:
        """Record ``amount`` node expansions; raise if any ceiling is hit.

        Raises
        ------
        BudgetExceededError
            With ``reason`` naming the tripped resource.
        """
        self.expansions += amount
        if self.max_expansions is not None and self.expansions > self.max_expansions:
            self._trip("expansions", f"expansion budget {self.max_expansions} exhausted")
        if self.deadline_seconds is not None:
            if self._started_at is None:
                self._started_at = time.monotonic()
            elif time.monotonic() - self._started_at > self.deadline_seconds:
                self._trip(
                    "deadline", f"deadline of {self.deadline_seconds:g}s exceeded"
                )

    def _trip(self, reason: str, detail: str) -> None:
        raise BudgetExceededError(
            f"{detail} after {self.elapsed_seconds():.3f}s "
            f"and {self.expansions} expansions",
            reason=reason,
            elapsed_seconds=self.elapsed_seconds(),
            expansions=self.expansions,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        limits: List[str] = []
        if self.deadline_seconds is not None:
            limits.append(f"deadline={self.deadline_seconds:g}s")
        if self.max_expansions is not None:
            limits.append(f"max_expansions={self.max_expansions}")
        label = ", ".join(limits) if limits else "unlimited"
        return f"Budget({label}, expansions={self.expansions})"


class _NullBudget(Budget):
    """Internal no-op budget: checkpoints cost a single method call.

    Solvers substitute this when the caller passes ``budget=None`` so
    their inner loops stay branch-free.  It is shared and must never
    carry state.
    """

    __slots__ = ()

    def checkpoint(self, amount: int = 1) -> None:  # noqa: D102 - trivial
        pass


#: Shared no-op budget for the ``budget=None`` fast path.
NULL_BUDGET = _NullBudget()
