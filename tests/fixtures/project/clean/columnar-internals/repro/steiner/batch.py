"""The same read through the public accessor (clean)."""

from repro.temporal.columnar import ColumnarEdgeStore


def first_position(store: ColumnarEdgeStore):
    return store.positions_by_start()[0]
