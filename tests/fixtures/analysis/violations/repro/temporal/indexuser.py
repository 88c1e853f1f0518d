"""Fixture: sorting the store's shared start order in place.

``positions_by_start`` hands out the store's cached permutation, not a
copy; every window query (``TemporalEdgeIndex.edges_in``, the
transformation's window slice) slices it, so reordering it corrupts
them all.
"""


def window_order(graph):
    order = graph.columnar().positions_by_start()
    order.sort()
    return order
