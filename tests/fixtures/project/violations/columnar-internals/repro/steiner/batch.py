"""A store private read through an annotated parameter -- REP203."""

from repro.temporal.columnar import ColumnarEdgeStore


def first_position(store: ColumnarEdgeStore):
    return store._start_order[0]
