"""The ``realtime`` operation stream and the oracle's model of its effects.

Each operation is one write batch followed by one snapshot read:

* a :class:`~repro.updates.WriteBatch` (one MVCC version) appending
  ``INSERT_ROWS`` new orders dated in the last year and deleting the
  ``DELETE_ROWS`` oldest live orders;
* an in-place correction of ``lo_revenue`` on ``CORRECT_ROWS`` live
  orders (``TransactionManager.update``, its own version; in-place
  updates are not versioned, by the program's design);
* a read of one SSB instance at a fresh snapshot; each round of 13
  operations reads every template once, in a seeded order;
* every ``COMPACT_EVERY`` operations, ``Database.compact("lineorder")``.

Orders are named by ``lo_orderkey``.  Live orders are always the
contiguous key range ``[oldest, next_key)``, so the stream needs no
feedback from the program and the oracle can replay it on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import ssb

INSERT_ROWS = 200
DELETE_ROWS = 200
CORRECT_ROWS = 50
COMPACT_EVERY = 26          # two rounds
NO_DELETE = np.iinfo(np.int64).max


@dataclass
class Op:
    index: int
    insert: dict                  # raw column values, foreign keys as keys
    delete_keys: np.ndarray       # orderkeys
    correct_keys: np.ndarray      # orderkeys
    correct_revenue: np.ndarray
    template: str
    params: dict
    compact: bool

    @property
    def batch_version(self) -> int:
        """The TransactionManager version the write batch commits."""
        return 2 * self.index + 1

    @property
    def read_version(self) -> int:
        """The version the read's snapshot must carry (after the correction)."""
        return 2 * self.index + 2


class OpStream:
    """Seeded operations over a table whose orderkeys are ``1..rows``."""

    def __init__(self, seed: int, tables: dict):
        self.rng = np.random.default_rng([seed, 3])
        date = tables["date"]
        self.recent_dates = date["d_datekey"][date["d_year"] == date["d_year"].max()]
        self.ncust = len(tables["customer"]["c_custkey"])
        self.npart = len(tables["part"]["p_partkey"])
        self.nsupp = len(tables["supplier"]["s_suppkey"])
        self.oldest = 1
        self.next_key = len(tables["lineorder"]["lo_orderkey"]) + 1
        self.index = 0
        self._round: list = []

    def next(self) -> Op:
        rng, n = self.rng, INSERT_ROWS
        if not self._round:
            self._round = [ssb.TEMPLATE_IDS[i] for i in
                           rng.permutation(len(ssb.TEMPLATE_IDS))]
        template = self._round.pop(0)
        params = ssb.draw(template, rng)
        extended = rng.integers(90_000, 10_000_000, n).astype(np.int64)
        discount = rng.integers(0, 11, n).astype(np.int32)
        insert = {
            "lo_orderkey": np.arange(self.next_key, self.next_key + n,
                                     dtype=np.int64),
            "lo_custkey": rng.integers(1, self.ncust + 1, n).astype(np.int64),
            "lo_partkey": rng.integers(1, self.npart + 1, n).astype(np.int64),
            "lo_suppkey": rng.integers(1, self.nsupp + 1, n).astype(np.int64),
            "lo_orderdate": rng.choice(self.recent_dates, n).astype(np.int64),
            "lo_quantity": rng.integers(1, 51, n).astype(np.int32),
            "lo_extendedprice": extended,
            "lo_discount": discount,
            "lo_revenue": (extended * (100 - discount) // 100).astype(np.int64),
            "lo_supplycost": rng.integers(10_000, 100_000, n).astype(np.int64),
            "lo_tax": rng.integers(0, 9, n).astype(np.int32),
        }
        self.next_key += n
        delete_keys = np.arange(self.oldest, self.oldest + DELETE_ROWS,
                                dtype=np.int64)
        self.oldest += DELETE_ROWS
        correct_keys = self.oldest + rng.choice(
            self.next_key - self.oldest, CORRECT_ROWS, replace=False)
        op = Op(self.index, insert, delete_keys, correct_keys.astype(np.int64),
                rng.integers(10_000, 10_000_000, CORRECT_ROWS).astype(np.int64),
                template, params,
                compact=(self.index + 1) % COMPACT_EVERY == 0)
        self.index += 1
        return op


class Model:
    """The oracle's own copy of the fact table under a list of operations.

    Row ``k - 1`` holds order ``k``.  Inserts and deletes are versioned,
    so every operation's rows and delete marks go in up front, and
    visibility at a snapshot follows from the per-row versions exactly as
    the MVCC contract states it.  Corrections are not versioned; they are
    applied in stream order with :meth:`correct`."""

    def __init__(self, tables: dict, ops: list):
        fact = dict(tables["lineorder"])
        if not np.array_equal(fact["lo_orderkey"],
                              np.arange(1, len(fact["lo_orderkey"]) + 1)):
            raise ValueError("the model needs orderkeys 1..rows")
        for name in fact:
            fact[name] = np.concatenate(
                [fact[name]] + [op.insert[name] for op in ops])
        self.inserted = np.concatenate(
            [np.zeros(len(tables["lineorder"]["lo_orderkey"]), np.int64)]
            + [np.full(len(op.insert["lo_orderkey"]), op.batch_version,
                       np.int64) for op in ops])
        self.deleted = np.full(len(self.inserted), NO_DELETE, np.int64)
        for op in ops:
            self.deleted[op.delete_keys - 1] = op.batch_version
        self.tables = dict(tables, lineorder=fact)

    def correct(self, op: Op) -> None:
        self.tables["lineorder"]["lo_revenue"][op.correct_keys - 1] = (
            op.correct_revenue)

    def visible(self, snapshot: int) -> np.ndarray:
        return (self.inserted <= snapshot) & (self.deleted > snapshot)
