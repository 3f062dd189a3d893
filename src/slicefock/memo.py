"""One per-process store for the tables that depend only on their
parameters, never on the function being measured: quadrature grids,
operator multipliers, multiplier images and the plane descent's whitened
basis.

:func:`memoized` wraps a private builder; the store keys each table on the
builder and its positional arguments (a grid or an operator by identity)
and keeps the most recently read tables within ``MEMO_BYTES`` bytes of
arrays, counting those of the arguments a table keeps alive.  A table
larger than that is built for its call and not kept.  Every array of a
kept table is read-only.  A builder that raises keeps nothing, so its
error is raised again on every call.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict

import numpy as np

#: Bytes of arrays the store holds at most, over every table it keeps and
#: the arguments (a grid, an operator) it keys them on.
MEMO_BYTES = 32 << 20


def _arrays(value):
    """The arrays of ``value``: itself, or those of the items of a tuple
    (NamedTuples too) or of the attributes of an object, recursively."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)
    elif hasattr(value, "__dict__"):
        for item in vars(value).values():
            yield from _arrays(item)


class _Store:
    """Tables by key, least recently read first, and the bytes they hold."""

    def __init__(self, budget: int):
        self.budget = budget
        self.tables: OrderedDict = OrderedDict()    # key -> (table, bytes)
        self.held = 0
        self.lock = threading.Lock()

    def get(self, key):
        with self.lock:
            hit = self.tables.get(key)
            if hit is not None:
                self.tables.move_to_end(key)
            return hit

    def put(self, key, table) -> None:
        arrays = list(_arrays(table))
        for a in arrays:
            a.setflags(write=False)
        size = sum(a.nbytes for a in arrays) + sum(a.nbytes for a in _arrays(key[1]))
        if size > self.budget:
            return
        with self.lock:
            if key in self.tables:
                return
            while self.held + size > self.budget:
                _, (_, dropped) = self.tables.popitem(last=False)
                self.held -= dropped
            self.tables[key] = (table, size)
            self.held += size

    def clear(self, builder=None) -> None:
        """Drop every table of ``builder``, or every table."""
        with self.lock:
            for key in [k for k in self.tables if builder is None or k[0] is builder]:
                self.held -= self.tables.pop(key)[1]


_STORE = _Store(MEMO_BYTES)


def memoized(builder):
    """``builder`` with its tables kept in the one store, keyed on its
    positional arguments; ``cache_clear()`` drops the tables it built."""
    @functools.wraps(builder)
    def kept(*args):
        key = (builder, args)
        hit = _STORE.get(key)
        if hit is not None:
            return hit[0]
        table = builder(*args)
        _STORE.put(key, table)
        return table

    kept.cache_clear = functools.partial(_STORE.clear, builder)
    return kept
