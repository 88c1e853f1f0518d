"""Fixture: sorting a store's shared value column in place.

``value_column`` hands out the store's own float64 array or kept
Python values, not a copy; reordering it corrupts every later edge the
store builds.
"""


def sorted_weights(store):
    weights = store.value_column("weights")
    weights.sort()
    return weights
