"""The tests' one reader of the mode engine's store, `modes._MODE_CACHE`:
one table per (algebra, basis vector), holding one row per basis key b (the
images v(n)b, keyed on n) and the trace row at None (the trace series,
keyed on their order n).  The store counts each table, row and stored
value as one entry."""

from __future__ import annotations

from padic_voa import modes


def cached_entries() -> int:
    """The entries the store holds, counted as `modes._MODE_CACHE_ENTRIES`
    counts them."""
    return sum(1 + len(table) + sum(map(len, table.values())) for table in modes._MODE_CACHE.values())


def entries(table) -> list[tuple]:
    """The (b, n) of every value a table holds, b = None for a trace series,
    in the order they were stored per row."""
    return [(pb, n) for pb, row in table.items() for n in row]


def trace_entry(table, n: int):
    """The trace series through q^n that a table holds, None if it holds none."""
    return table.get(None, {}).get(n)
