"""Exception hierarchy for the temporal-MST library.

All library-specific failures derive from :class:`ReproError` so callers
can catch a single base class while still distinguishing input-format
problems from algorithmic preconditions.
"""

from __future__ import annotations

from typing import Tuple, Type


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphFormatError(ReproError):
    """An input graph, edge list, or file violates the expected format.

    Raised, for example, when a temporal edge arrives before it starts,
    when a chronological edge list is not sorted, or when a SteinLib
    ``.stp`` file is malformed.
    """


class ZeroDurationError(ReproError):
    """Algorithm 1 was invoked on a graph containing a zero-duration edge.

    Theorem 1 of the paper only guarantees correctness of the one-pass
    streaming algorithm when ``t_s(e) != t_a(e)`` for every edge; use
    Algorithm 2 (:func:`repro.core.msta.msta_stack`) for graphs with
    zero-duration edges.
    """


class UnreachableRootError(ReproError):
    """The requested root cannot reach any other vertex in the window."""


class BudgetExceededError(ReproError):
    """A cooperative :class:`repro.resilience.Budget` ran out mid-solve.

    Raised from ``budget.checkpoint()`` inside the DST solvers and the
    ``MST_w`` pipeline when the wall-clock deadline or the node-expansion
    ceiling is hit.  Carries enough context for
    structured reporting (which resource ran out, and how far the
    computation got).

    Attributes
    ----------
    reason:
        ``"deadline"`` or ``"expansions"``.
    elapsed_seconds:
        Wall-clock time since the budget started.
    expansions:
        Node expansions counted up to the failure.
    """

    def __init__(
        self,
        message: str,
        reason: str = "deadline",
        elapsed_seconds: float = 0.0,
        expansions: int = 0,
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.elapsed_seconds = elapsed_seconds
        self.expansions = expansions

    def __reduce__(
        self,
    ) -> Tuple[Type["BudgetExceededError"], Tuple[str, str, float, int]]:
        # Exception.__reduce__ rebuilds from ``args`` alone -- one
        # positional string here -- which would silently drop the
        # structured attributes when the error crosses a worker process
        # boundary.  Rebuild with the full constructor signature.
        return (
            type(self),
            (
                str(self.args[0]) if self.args else "",
                self.reason,
                self.elapsed_seconds,
                self.expansions,
            ),
        )


class TransientError(ReproError):
    """A failure that is expected to succeed on retry.

    The base class of every *retryable* fault in the robustness layer:
    injected faults (:class:`repro.faults.InjectedFault`) derive from
    it, and the retry helpers
    (:class:`repro.resilience.retry.RetryPolicy` consumers) treat
    ``(TransientError, OSError)`` as the retryable set.  Genuine logic
    errors must not subclass this -- retrying them would mask bugs.
    """


class CheckpointFormatError(ReproError):
    """A checkpoint file has an incompatible (stale) schema.

    Raised at resume time when a checkpoint parses cleanly but carries
    a schema version this build does not understand -- unlike torn or
    corrupt files (which are quarantined and recomputed), a stale
    format is a deliberate incompatibility the user must resolve by
    deleting the file or rerunning without ``--resume``.  The message
    always names the offending file.
    """


class ExperimentInterruptedError(ReproError):
    """An experiment run stopped early with its checkpoint safely on disk.

    Raised by the checkpointing harness when a per-run cell limit is
    reached (``ExperimentContext.interrupt_after``); resuming with the
    same checkpoint directory continues from the last completed cell.
    """


class InvalidTreeError(ReproError):
    """A produced tree failed structural or time-respecting validation."""
