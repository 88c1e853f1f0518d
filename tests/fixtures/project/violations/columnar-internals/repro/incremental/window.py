"""A store private read through a ``graph.columnar()`` local -- REP203."""


def first_start(graph):
    store = graph.columnar()
    return store._starts_sorted[0]
