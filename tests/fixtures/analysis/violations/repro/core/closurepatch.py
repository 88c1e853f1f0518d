"""Fixture: writing into a closure's shared cost row.

``costs_from`` returns a row of the closure's distance matrix, not a
copy -- the same array every later cost and path query reads.
"""


def zero_out(closure, source):
    row = closure.costs_from(source)
    row[0] = 0.0
    return row
