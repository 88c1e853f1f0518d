"""The owning module: the store may read its own private arrays."""


class ColumnarEdgeStore:
    def __init__(self, starts, order):
        self._starts_sorted = starts
        self._start_order = order

    def sorted_starts(self):
        return self._starts_sorted

    def positions_by_start(self):
        return self._start_order
