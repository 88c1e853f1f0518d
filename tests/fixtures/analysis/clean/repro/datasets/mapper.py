"""Clean fixture: column rows built through the validated factory."""

from repro.temporal.edge import TemporalEdge, make_edge


def good_edges(sources, targets, starts, arrivals, weights):
    edges = list(map(make_edge, sources, targets, starts, arrivals, weights))
    assert all(isinstance(edge, TemporalEdge) for edge in edges)
    return edges
