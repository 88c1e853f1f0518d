"""Clean counterpart: sort a copy of the shared value column."""


def sorted_weights(store):
    weights = store.value_column("weights")
    return sorted(weights)
