"""Reading and writing temporal edge lists.

Two formats are supported:

* **KONECT-style** whitespace rows ``u v [weight] [timestamp]`` with a
  single timestamp per contact (the format of the paper's downloaded
  datasets).  Durations are applied on load (0 or 1 in the paper's
  experiments).
* the library's **native** 5-column format
  ``u v start arrival weight`` preserving full temporal edges.

Lines starting with ``%`` or ``#`` are comments.

Both readers validate rows strictly: non-numeric, nan, or infinite
weights/timestamps, negative weights, and edges arriving before they
start all raise :class:`GraphFormatError` naming the offending line.
Parsed fields go straight into columns, and the graph is built from
them (:meth:`TemporalGraph.from_columns`): no edge object is made while
loading.  Vertex labels may be ints or strings, so they go in lists;
the value columns are ``array('d')`` buffers, except a ``read_konect``
weight column whose ``default_weight`` is not a float, which keeps that
value's type in a list.
"""

from __future__ import annotations

import io
import os
from array import array
from typing import Any, Callable, Iterable, Iterator, List, TextIO, Union

from repro import faults
from repro.core.errors import GraphFormatError
from repro.resilience.retry import DEFAULT_RETRY_POLICY
from repro.temporal.graph import TemporalGraph

PathOrFile = Union[str, os.PathLike, TextIO]


def _open_for_read(source: PathOrFile):
    if isinstance(source, (str, os.PathLike)):
        return open(source, "r", encoding="utf-8"), True
    return source, False


class _ReadGuard:
    """Line-stream wrapper around the ``temporal.io.read`` injection site.

    Each line passes through :func:`repro.faults.fire`; a scheduled
    ``corrupt-read`` garbles that line's digits (so strict row
    validation catches it as a :class:`GraphFormatError`) and sets
    :attr:`corrupted`, which tells the retry loop the failure was
    injected -- genuinely malformed files fail on the first attempt
    without re-parsing.
    """

    def __init__(self, handle: Iterable[str]) -> None:
        self._handle = handle
        self.corrupted = False

    def __iter__(self) -> Iterator[str]:
        for line in self._handle:
            if faults.fire("temporal.io.read") == faults.CORRUPT_READ:
                self.corrupted = True
                line = line.translate(str.maketrans("0123456789", "xxxxxxxxxx"))
            yield line


def _read_with_recovery(
    source: PathOrFile, parse: Callable[[Iterable[str]], TemporalGraph]
) -> TemporalGraph:
    """Run ``parse`` over ``source``'s lines, re-reading on recoverable
    failures.

    OS-level errors and *injected* corruption are retried on the
    deterministic backoff schedule -- but only for path-like sources,
    which can be reopened; an already-consumed stream cannot be rewound,
    so stream sources get exactly one attempt.  Genuine format errors
    (no corruption injected on that attempt) always propagate
    immediately.
    """
    reopenable = isinstance(source, (str, os.PathLike))
    policy = DEFAULT_RETRY_POLICY
    attempts = policy.attempts if reopenable else 1
    for attempt in range(attempts):
        last = attempt == attempts - 1
        try:
            handle, should_close = _open_for_read(source)
        except OSError:
            if last:
                raise
            policy.sleep_before_retry(attempt)
            continue
        guard = _ReadGuard(handle)
        try:
            return parse(guard)
        except GraphFormatError:
            if last or not guard.corrupted:
                raise
            policy.sleep_before_retry(attempt)
        except OSError:
            if last:
                raise
            policy.sleep_before_retry(attempt)
        finally:
            if should_close:
                handle.close()
    raise AssertionError("unreachable")  # pragma: no cover


def _open_for_write(target: PathOrFile):
    if isinstance(target, (str, os.PathLike)):
        return open(target, "w", encoding="utf-8"), True
    return target, False


def _parse_vertex(token: str):
    """Vertices are kept as ints when possible, else as strings."""
    try:
        return int(token)
    except ValueError:
        return token


def _parse_float(token: str, lineno: int, column: str) -> float:
    """One finite numeric column, or GraphFormatError naming the line."""
    try:
        value = float(token)
    except ValueError:
        raise GraphFormatError(
            f"line {lineno}: {column} is not a number: {token!r}"
        ) from None
    if value != value or value in (float("inf"), float("-inf")):
        raise GraphFormatError(
            f"line {lineno}: {column} must be finite, got {token!r}"
        )
    return value


def _check_row(lineno: int, start: float, arrival: float, weight: float) -> None:
    """Semantic sanity for one edge row."""
    if arrival < start:
        raise GraphFormatError(
            f"line {lineno}: arrival {arrival:g} precedes start {start:g}"
        )
    if weight < 0:
        raise GraphFormatError(f"line {lineno}: negative weight {weight:g}")


def read_konect(
    source: PathOrFile,
    duration: float = 0.0,
    default_weight: float = 1.0,
) -> TemporalGraph:
    """Load a KONECT-style contact list.

    Each data row is ``u v``, ``u v w``, or ``u v w t``; when the
    timestamp column is missing the row index is used as the timestamp
    (KONECT files without time columns are ordered chronologically).
    Every contact becomes a temporal edge departing at ``t`` and
    arriving at ``t + duration``.
    """

    def parse(lines: Iterable[str]) -> TemporalGraph:
        sources: List[Any] = []
        targets: List[Any] = []
        starts, arrivals = array("d"), array("d")
        weights = array("d") if type(default_weight) is float else []
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or line.startswith(("%", "#")):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise GraphFormatError(
                    f"line {lineno}: expected at least 'u v', got {line!r}"
                )
            sources.append(_parse_vertex(parts[0]))
            targets.append(_parse_vertex(parts[1]))
            if len(parts) >= 3:
                weight = _parse_float(parts[2], lineno, "weight")
            else:
                weight = default_weight
            if len(parts) >= 4:
                timestamp = _parse_float(parts[3], lineno, "timestamp")
            else:
                timestamp = float(len(starts))
            _check_row(lineno, timestamp, timestamp + duration, weight)
            starts.append(timestamp)
            arrivals.append(timestamp + duration)
            weights.append(weight)
        return TemporalGraph.from_columns(sources, targets, starts, arrivals, weights)

    return _read_with_recovery(source, parse)


def read_native(source: PathOrFile) -> TemporalGraph:
    """Load the native 5-column ``u v start arrival weight`` format."""

    def parse(lines: Iterable[str]) -> TemporalGraph:
        sources: List[Any] = []
        targets: List[Any] = []
        starts, arrivals, weights = array("d"), array("d"), array("d")
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or line.startswith(("%", "#")):
                continue
            parts = line.split()
            if len(parts) != 5:
                raise GraphFormatError(
                    f"line {lineno}: expected 5 columns "
                    f"'u v start arrival weight', got {len(parts)}"
                )
            start = _parse_float(parts[2], lineno, "start")
            arrival = _parse_float(parts[3], lineno, "arrival")
            weight = _parse_float(parts[4], lineno, "weight")
            _check_row(lineno, start, arrival, weight)
            sources.append(_parse_vertex(parts[0]))
            targets.append(_parse_vertex(parts[1]))
            starts.append(start)
            arrivals.append(arrival)
            weights.append(weight)
        return TemporalGraph.from_columns(sources, targets, starts, arrivals, weights)

    return _read_with_recovery(source, parse)


def write_native(graph: TemporalGraph, target: PathOrFile) -> None:
    """Write a graph in the native 5-column format (chronological order)."""
    handle, should_close = _open_for_write(target)
    try:
        handle.write("# u v start arrival weight\n")
        for edge in graph.chronological_edges():
            handle.write(
                f"{edge.source} {edge.target} {edge.start:g} "
                f"{edge.arrival:g} {edge.weight:g}\n"
            )
    finally:
        if should_close:
            handle.close()


def from_string(text: str, fmt: str = "native", **kwargs) -> TemporalGraph:
    """Parse a graph from an in-memory string (mostly for tests/docs)."""
    buffer = io.StringIO(text)
    if fmt == "native":
        return read_native(buffer)
    if fmt == "konect":
        return read_konect(buffer, **kwargs)
    raise GraphFormatError(f"unknown format {fmt!r}; expected 'native' or 'konect'")
