"""Clean fixture: reading a cached adjacency without mutating it."""


def degree(graph, vertex):
    offsets, _, _ = graph.columnar().out_adjacency()
    return offsets[vertex + 1] - offsets[vertex]
