"""Violation fixture: mutating a cached adjacency outside its owning module."""


def corrupt(graph, vertex, edge):
    adjacency = graph.columnar().out_adjacency()
    adjacency[vertex].append(edge)
    return adjacency
