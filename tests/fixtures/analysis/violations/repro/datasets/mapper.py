"""Violation fixture: the edge class handed to map() skips make_edge."""

from repro.temporal.edge import TemporalEdge


def bad_edges(sources, targets, starts, arrivals, weights):
    return list(map(TemporalEdge, sources, targets, starts, arrivals, weights))
