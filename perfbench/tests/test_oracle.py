"""The oracle against stdlib sqlite3 on all 13 SSB templates.

    python3 -m pytest perfbench/tests -q
"""

import sqlite3

import numpy as np
import pytest

import ssb
from oracle import answer, check
from prepare import raw_tables

INSTANCES_PER_TEMPLATE = 8


@pytest.fixture(scope="module")
def data():
    from repro import generate_ssb

    tables = raw_tables(generate_ssb(sf=0.02, seed=3, airify=False))
    conn = sqlite3.connect(":memory:")
    for name, columns in tables.items():
        cols = list(columns)
        conn.execute(f'CREATE TABLE "{name}" ({", ".join(cols)})')
        rows = zip(*(columns[c].tolist() for c in cols))
        conn.executemany(
            f'INSERT INTO "{name}" VALUES ({", ".join("?" * len(cols))})', rows)
    yield tables, conn
    conn.close()


@pytest.mark.parametrize("template", ssb.TEMPLATE_IDS)
def test_oracle_matches_sqlite(data, template):
    tables, conn = data
    rng = np.random.default_rng([11, ssb.TEMPLATE_IDS.index(template)])
    nonempty = 0
    for _ in range(INSTANCES_PER_TEMPLATE):
        query = (_anchored_q34(tables, rng) if template == "Q3.4"
                 else ssb.instance(template, rng))
        expected = answer(tables, query)
        got = conn.execute(query.sql).fetchall()
        assert check(query, got, expected) == "", query.sql
        nonempty += bool(expected and expected[0][0] is not None)
    assert nonempty, f"every {template} instance was empty; the test shows nothing"


def _anchored_q34(tables, rng):
    """A Q3.4 instance built around one existing fact row.

    Two cities of one nation and one month select almost nothing at a
    tiny scale factor, so the parameters are read off a fact row whose
    customer and supplier share a nation."""
    fact = tables["lineorder"]
    cust, supp, date = (tables[t] for t in ("customer", "supplier", "date"))
    c = fact["lo_custkey"] - 1
    s = fact["lo_suppkey"] - 1
    same = np.flatnonzero(cust["c_nation"][c] == supp["s_nation"][s])
    row = int(same[rng.integers(len(same))])
    nation = str(cust["c_nation"][c[row]])
    cities = {str(cust["c_city"][c[row]]), str(supp["s_city"][s[row]])}
    digit = 0
    while len(cities) < 2:
        cities.add(ssb.city(nation, digit))
        digit += 1
    day = np.flatnonzero(date["d_datekey"] == fact["lo_orderdate"][row])[0]
    return ssb.render("Q3.4", {"cities": sorted(cities),
                               "ym": str(date["d_yearmonth"][day])})


def test_check_rejects_wrong_answers(data):
    tables, _ = data
    query = ssb.render("Q3.1", {"region": "ASIA", "nation": "CHINA",
                                "y1": 1992, "y2": 1997, "cities": []})
    expected = answer(tables, query)
    assert len(expected) > 2
    wrong_value = [expected[0][:-1] + (expected[0][-1] + 1,)] + expected[1:]
    assert check(query, wrong_value, expected)
    assert check(query, expected[1:], expected)
    assert check(query, list(reversed(expected)), expected)


def test_visibility_mask_restricts_the_fact_table(data):
    tables, _ = data
    query = ssb.render("Q1.1", {"disc": 0, "year": 1993, "qty": 51})
    n = len(tables["lineorder"]["lo_orderkey"])
    assert answer(tables, query, np.zeros(n, dtype=bool)) == [(None,)]
    assert answer(tables, query, np.ones(n, dtype=bool)) == answer(tables, query)
