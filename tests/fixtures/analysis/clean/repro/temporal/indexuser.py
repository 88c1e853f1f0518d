"""Clean counterpart: copy the start order before sorting it."""


def window_order(graph):
    order = graph.columnar().positions_by_start().copy()
    order.sort()
    return order
