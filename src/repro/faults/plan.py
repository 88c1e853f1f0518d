"""Fault plans: what to break, where, and on which occurrence.

A :class:`FaultPlan` is plain, picklable data -- a tuple of
:class:`FaultSpec` entries, each naming an **injection site** (a string
constant declared by the hardened module, see :data:`SITES`), a
**fault kind**, and the 1-based **occurrence** of that site at which
the fault fires.  Plans cross process boundaries by value: the pool
engine ships the active plan to every worker through its initializer,
so a schedule built in the driver deterministically breaks workers too.

Occurrence counting is *per process*: each process that reaches a site
counts its own calls, so "crash the worker on its first task" is
expressible without knowing which worker receives which chunk.  Every
entry fires **at most once per process** -- consumed entries never
re-fire, which (together with the engine dropping crash entries after
a pool rebuild) bounds the total fault count of any run.

Kinds
-----
``worker-crash``
    ``os._exit`` inside a pool worker (never fires inline -- crashing
    the driver is not a recoverable fault).  Recovery: pool rebuild.
``task-error``
    Raise :class:`InjectedFault` at the site.  Recovery: per-task retry.
``task-stall``
    Sleep ``seconds`` inside a pool worker (never inline).  Recovery:
    per-task deadline + inline recompute.
``torn-write``
    The site receives ``"torn-write"`` back from ``fire()`` and
    truncates the bytes it is about to persist.  Recovery: checksum
    verification + quarantine on the next load.
``corrupt-read``
    The site receives ``"corrupt-read"`` back and garbles one line of
    the stream it is parsing.  Recovery: strict validation + re-read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.core.errors import TransientError

__all__ = [
    "ALL_KINDS",
    "CORRUPT_READ",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "SITES",
    "TASK_ERROR",
    "TASK_STALL",
    "TORN_WRITE",
    "WORKER_CRASH",
]

WORKER_CRASH = "worker-crash"
TASK_ERROR = "task-error"
TASK_STALL = "task-stall"
TORN_WRITE = "torn-write"
CORRUPT_READ = "corrupt-read"

#: Every fault kind, in documentation order.
ALL_KINDS: Tuple[str, ...] = (
    WORKER_CRASH,
    TASK_ERROR,
    TASK_STALL,
    TORN_WRITE,
    CORRUPT_READ,
)

#: The declared injection sites and the kinds each one honours.  The
#: hardened modules call ``repro.faults.fire(site)`` with exactly these
#: names; :meth:`FaultPlan.validated` rejects plans targeting unknown
#: sites so a typo cannot silently produce a fault-free "chaos" run.
SITES: Dict[str, Tuple[str, ...]] = {
    "parallel.task": (WORKER_CRASH, TASK_ERROR, TASK_STALL),
    "experiments.cell": (WORKER_CRASH, TASK_ERROR, TASK_STALL),
    "checkpoint.write": (TORN_WRITE,),
    "temporal.io.read": (CORRUPT_READ,),
}


class InjectedFault(TransientError):
    """The exception an injected ``task-error`` raises at its site.

    Subclasses :class:`repro.core.errors.TransientError`, so every
    retry helper in the repository treats it as retryable -- which is
    the point: an injected fault must be *survived*, not reported.
    """

    def __init__(self, site: str, occurrence: int = 1) -> None:
        super().__init__(
            f"injected fault at site {site!r} (occurrence {occurrence})"
        )
        self.site = site
        self.occurrence = occurrence

    def __reduce__(
        self,
    ) -> Tuple[Type["InjectedFault"], Tuple[str, int]]:
        # Reconstruct from (site, occurrence), not from args -- injected
        # faults cross the worker/driver pickle boundary intact.
        return (type(self), (self.site, self.occurrence))


@dataclass(frozen=True, order=True)
class FaultSpec:
    """One scheduled fault: fire ``kind`` at ``site``'s N-th occurrence.

    ``seconds`` is the stall duration for ``task-stall`` entries
    (ignored by every other kind).  Frozen and orderable so plans have
    a canonical entry order independent of construction order.
    """

    site: str
    kind: str
    occurrence: int = 1
    seconds: float = 0.25

    def __post_init__(self) -> None:
        if self.occurrence < 1:
            raise ValueError(f"occurrence must be >= 1, got {self.occurrence}")
        if self.seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {self.seconds}")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, picklable schedule of faults.

    Build one explicitly from specs, or with :meth:`seeded` for the
    randomized-but-reproducible chaos matrices.  The empty plan
    (:meth:`none`) is valid and fires nothing.
    """

    entries: Tuple[FaultSpec, ...] = field(default=())
    seed: Optional[int] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan (fires nothing; useful as a fault-free control)."""
        return cls(entries=())

    @classmethod
    def of(cls, *entries: FaultSpec) -> "FaultPlan":
        """A plan with exactly these entries (canonically sorted)."""
        return cls(entries=tuple(sorted(entries))).validated()

    @classmethod
    def seeded(
        cls,
        seed: int,
        sites: Optional[Sequence[str]] = None,
        faults: int = 2,
        max_occurrence: int = 3,
        stall_seconds: float = 0.05,
    ) -> "FaultPlan":
        """A reproducible random plan over ``sites`` (default: all).

        The same seed always yields the same plan: entries are drawn
        from a ``random.Random(seed)`` instance and canonically sorted.
        Kinds are drawn from what each chosen site honours, so seeded
        plans are always :meth:`validated`.
        """
        rng = random.Random(seed)
        chosen_sites = tuple(sites) if sites is not None else tuple(sorted(SITES))
        entries: List[FaultSpec] = []
        for _ in range(faults):
            site = rng.choice(chosen_sites)
            kind = rng.choice(SITES[site])
            entries.append(
                FaultSpec(
                    site=site,
                    kind=kind,
                    occurrence=rng.randint(1, max_occurrence),
                    seconds=stall_seconds,
                )
            )
        return cls(entries=tuple(sorted(entries)), seed=seed).validated()

    # ------------------------------------------------------------------
    # Validation and derivation
    # ------------------------------------------------------------------
    def validated(self) -> "FaultPlan":
        """Self, after checking every entry targets a declared site/kind.

        Raises
        ------
        ValueError
            For an unknown site or a kind the site does not honour.
        """
        for spec in self.entries:
            honoured = SITES.get(spec.site)
            if honoured is None:
                raise ValueError(
                    f"unknown injection site {spec.site!r}; "
                    f"declared sites: {', '.join(sorted(SITES))}"
                )
            if spec.kind not in honoured:
                raise ValueError(
                    f"site {spec.site!r} does not honour kind {spec.kind!r} "
                    f"(honours: {', '.join(honoured)})"
                )
        return self

    def drop_kind(self, kind: str) -> "FaultPlan":
        """A plan without any entry of ``kind``.

        The pool engine uses this after a crash-triggered rebuild:
        replacement workers receive the surviving plan with the
        ``worker-crash`` entries removed, so a crash schedule can never
        wedge the rebuild loop.
        """
        return replace(
            self,
            entries=tuple(s for s in self.entries if s.kind != kind),
        )

    def for_site(self, site: str) -> Tuple[FaultSpec, ...]:
        """The entries targeting one site, in canonical order."""
        return tuple(s for s in self.entries if s.site == site)

    def __bool__(self) -> bool:
        return bool(self.entries)
