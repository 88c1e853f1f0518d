"""Clean fixture: copying a memoised terminal row before reordering it."""


def costliest_first(prepared, source):
    costs, ids = prepared.terminal_row(source)
    return list(reversed(ids))
