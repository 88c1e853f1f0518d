"""Violation fixture: reordering a memoised terminal row in place."""


def costliest_first(prepared, source):
    costs, ids = prepared.terminal_row(source)
    ids.reverse()
    return ids
