"""An SSB oracle that shares no code with the program.

It answers a :class:`ssb.Query` with plain numpy over the *decoded*
columns of a non-airified copy of the data: foreign keys hold key values
and are joined through lookup arrays indexed by key value, dimension predicates
are numpy comparisons on decoded strings, and groups are summed in int64
by sort + ``np.add.reduceat``.  There are no array index references, no
predicate vectors, no pruning and no cache.  Integer sums are exact, so
answers are compared for equality.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ssb import FOREIGN_KEYS, DIM_FK, Query

Tables = Dict[str, Dict[str, np.ndarray]]


def load_tables(directory: Path) -> Tables:
    """Read a raw copy written by :func:`save_tables`."""
    tables: Tables = {}
    for path in sorted(Path(directory).glob("*.npy")):
        table, column = path.stem.split(".", 1)
        tables.setdefault(table, {})[column] = np.load(path, allow_pickle=False)
    return tables


def save_tables(tables: Tables, directory: Path) -> None:
    """Write one ``table.column.npy`` file per column."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for table, columns in tables.items():
        for column, values in columns.items():
            np.save(directory / f"{table}.{column}.npy", values,
                    allow_pickle=False)


def key_lookup(keys: np.ndarray, values: np.ndarray, missing) -> tuple:
    """A lookup array over key values, with its offset: ``lookup[k - lo +
    1]`` is the value of the dimension row whose key is ``k``; slot 0 and
    the last slot hold *missing*, and :func:`join` clips foreign keys
    outside the table onto them (the key join's no-match case)."""
    lo, hi = int(keys.min()), int(keys.max())
    lookup = np.full(hi - lo + 3, missing, dtype=values.dtype)
    lookup[keys - lo + 1] = values
    return lookup, lo - 1


def join(table: tuple, fk: np.ndarray) -> np.ndarray:
    """Look foreign-key values up; keys outside the table miss."""
    lookup, offset = table
    return lookup.take(fk - offset, mode="clip")


def answer(tables: Tables, query: Query,
           visible: Optional[np.ndarray] = None) -> List[tuple]:
    """The rows *query* must return, in its ORDER BY order.

    *visible* restricts the fact table to the given rows (an MVCC
    snapshot as the caller models it).  An ungrouped sum over no rows is
    NULL (``None``), as in SQL.
    """
    fact = tables["lineorder"]
    n = len(fact["lo_orderkey"])
    mask = np.ones(n, dtype=bool) if visible is None else visible.copy()
    if query.fact is not None:
        mask &= query.fact(fact)
    sel = np.flatnonzero(mask)
    # semi-join every dimension the query touches, most selective first;
    # a dimension read only for grouping still drops unmatched fact rows
    needed = set(query.dims) | {table for _, table, _ in query.keys}
    passing = {}
    for dim in needed:
        rows = len(next(iter(tables[dim].values())))
        passing[dim] = (query.dims[dim](tables[dim]) if dim in query.dims
                        else np.ones(rows, dtype=bool))
    for dim in sorted(needed, key=lambda d: (passing[d].mean(), d)):
        fk = DIM_FK[dim]
        _, pk = FOREIGN_KEYS[fk]
        fks = fact[fk] if len(sel) == n else fact[fk][sel]
        sel = sel[join(key_lookup(tables[dim][pk], passing[dim], False), fks)]
    measure_name, measure = query.measure
    values = np.asarray(measure(_Selected(fact, sel)), dtype=np.int64)
    if not query.keys:
        return [(int(values.sum()) if len(sel) else None,)]
    if len(sel) == 0:
        return []
    codes = np.zeros(len(sel), dtype=np.int64)
    levels_of = []
    for _, table, column in query.keys:
        fk = DIM_FK[table]
        _, pk = FOREIGN_KEYS[fk]
        levels, inverse = np.unique(tables[table][column], return_inverse=True)
        key_codes = join(key_lookup(tables[table][pk], inverse, -1),
                         fact[fk][sel])
        codes = codes * len(levels) + key_codes
        levels_of.append(levels)
    order = np.argsort(codes, kind="stable")
    codes, values = codes[order], values[order]
    starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
    sums = np.add.reduceat(values, starts)
    group_codes = codes[starts]
    out_keys: Dict[str, list] = {}
    for (name, _, _), levels in reversed(list(zip(query.keys, levels_of))):
        out_keys[name] = [_py(levels[c]) for c in group_codes % len(levels)]
        group_codes = group_codes // len(levels)
    out_keys[measure_name] = [int(s) for s in sums]
    rows = list(zip(*(out_keys[item] for item in query.items)))
    return sort_rows(query, rows)


class _Selected(dict):
    """The selected fact rows of each column, gathered on first use."""

    def __init__(self, fact: Dict[str, np.ndarray], sel: np.ndarray):
        super().__init__()
        self._fact, self._sel = fact, sel

    def __missing__(self, name: str) -> np.ndarray:
        self[name] = self._fact[name][self._sel]
        return self[name]


def _py(value):
    return value.item() if hasattr(value, "item") else value


def order_key(query: Query, row: Sequence) -> Tuple:
    """The ORDER BY sort key of *row* (descending numbers negated)."""
    key = []
    for name, desc in query.order:
        value = row[query.items.index(name)]
        key.append(-value if desc else value)
    return tuple(key)


def sort_rows(query: Query, rows: List[tuple]) -> List[tuple]:
    """Rows in ORDER BY order; ties broken by the whole row."""
    return sorted(rows, key=lambda row: (order_key(query, row), row))


def check(query: Query, got: Sequence[Sequence], expected: List[tuple]) -> str:
    """Empty when *got* is a correct answer to *query*, else a reason.

    A correct answer holds exactly the expected rows and lists them in an
    order the ORDER BY allows (rows whose sort keys tie may come in any
    order)."""
    got = [tuple(row) for row in got]
    if sort_rows(query, got) != expected:
        missing = [r for r in expected if r not in got][:3]
        extra = [r for r in got if r not in expected][:3]
        return (f"{query.template} {query.params}: {len(got)} rows vs "
                f"{len(expected)} expected; missing {missing}, extra {extra}")
    keys = [order_key(query, row) for row in got]
    if any(a > b for a, b in zip(keys, keys[1:])):
        return f"{query.template} {query.params}: rows out of ORDER BY order"
    return ""
