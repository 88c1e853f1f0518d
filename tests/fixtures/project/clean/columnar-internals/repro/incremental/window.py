"""The same read through the public accessor (clean)."""


def first_start(graph):
    store = graph.columnar()
    return store.sorted_starts()[0]
