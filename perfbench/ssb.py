"""The 13 SSB query templates, their parameter domains, and oracle specs.

Each template draws its parameters from the SSB value domains and renders
two things from them: the SQL text the program receives, and a
:class:`Query` spec the independent oracle (:mod:`oracle`) evaluates with
plain numpy key joins.  Nothing here imports the program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
NATIONS = {
    "AFRICA": ["ALGERIA", "ETHIOPIA", "KENYA", "MOROCCO", "MOZAMBIQUE"],
    "AMERICA": ["ARGENTINA", "BRAZIL", "CANADA", "PERU", "UNITED STATES"],
    "ASIA": ["CHINA", "INDIA", "INDONESIA", "JAPAN", "VIETNAM"],
    "EUROPE": ["FRANCE", "GERMANY", "ROMANIA", "RUSSIA", "UNITED KINGDOM"],
    "MIDDLE EAST": ["EGYPT", "IRAN", "IRAQ", "JORDAN", "SAUDI ARABIA"],
}
MONTHS = ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
          "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]
YEARS = list(range(1992, 1999))

#: fact foreign key -> (dimension table, dimension primary key)
FOREIGN_KEYS = {
    "lo_orderdate": ("date", "d_datekey"),
    "lo_custkey": ("customer", "c_custkey"),
    "lo_partkey": ("part", "p_partkey"),
    "lo_suppkey": ("supplier", "s_suppkey"),
}
DIM_FK = {dim: fk for fk, (dim, _) in FOREIGN_KEYS.items()}

TEMPLATE_IDS = ("Q1.1", "Q1.2", "Q1.3", "Q2.1", "Q2.2", "Q2.3",
                "Q3.1", "Q3.2", "Q3.3", "Q3.4", "Q4.1", "Q4.2", "Q4.3")


@dataclass
class Query:
    """One SSB instance: SQL text plus what the oracle needs to answer it.

    ``keys`` are ``(output, table, column)`` group keys; ``measure``
    computes the summed integer expression from fact columns; ``dims`` maps
    a dimension table to its predicate; ``order`` is ``(output, desc)``.
    """

    template: str
    params: dict
    sql: str
    items: List[str]
    measure: Tuple[str, Callable[[dict], np.ndarray]]
    keys: List[Tuple[str, str, str]] = field(default_factory=list)
    dims: Dict[str, Callable[[dict], np.ndarray]] = field(default_factory=dict)
    fact: Optional[Callable[[dict], np.ndarray]] = None
    order: List[Tuple[str, bool]] = field(default_factory=list)


def city(nation: str, digit: int) -> str:
    """SSB city: the nation name cut/padded to 9 characters plus a digit."""
    return f"{nation:<9.9}{digit}"


def _q(s: str) -> str:
    return "'" + s.replace("'", "''") + "'"


def _in(values) -> str:
    return "(" + ", ".join(_q(v) if isinstance(v, str) else str(v)
                           for v in values) + ")"


def _between(x: np.ndarray, lo, hi) -> np.ndarray:
    return (x >= lo) & (x <= hi)


# -- parameter draws (SSB domains) --------------------------------------------


def draw(template: str, rng: np.random.Generator) -> dict:
    """Parameters for one instance of *template*, drawn from the SSB domains."""
    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    def category():
        return f"MFGR#{int(rng.integers(1, 6))}{int(rng.integers(1, 6))}"

    family = template[:2]
    if family == "Q1":
        p = {"disc": int(rng.integers(0, 9))}
        if template == "Q1.1":
            p.update(year=pick(YEARS), qty=int(rng.integers(20, 31)))
        elif template == "Q1.2":
            p.update(ym=pick(YEARS) * 100 + int(rng.integers(1, 13)),
                     qty=int(rng.integers(1, 42)))
        else:
            p.update(year=pick(YEARS), week=int(rng.integers(1, 53)),
                     qty=int(rng.integers(1, 42)))
        return p
    if family == "Q2":
        p = {"region": pick(REGIONS)}
        if template == "Q2.1":
            p["category"] = category()
        elif template == "Q2.2":
            b = int(rng.integers(1, 34))
            p.update(category=category(), brand_lo=b, brand_hi=b + 7)
        else:
            p.update(category=category(), brand=int(rng.integers(1, 41)))
        return p
    if family == "Q3":
        region = pick(REGIONS)
        nation = pick(NATIONS[region])
        y1 = int(rng.integers(1992, 1995))
        p = {"region": region, "nation": nation,
             "y1": y1, "y2": int(rng.integers(y1 + 3, 1999))}
        d1, d2 = (int(d) for d in rng.choice(10, size=2, replace=False))
        p["cities"] = sorted([city(nation, d1), city(nation, d2)])
        if template == "Q3.4":
            p["ym"] = f"{pick(MONTHS)}{pick(YEARS)}"
        return p
    region = pick(REGIONS)
    m1, m2 = (int(m) for m in rng.choice(np.arange(1, 6), size=2,
                                           replace=False))
    y = int(rng.integers(1992, 1998))
    return {"region": region, "nation": pick(NATIONS[region]),
            "mfgrs": sorted([f"MFGR#{m1}", f"MFGR#{m2}"]),
            "years": [y, y + 1], "category": category()}


# -- rendering ------------------------------------------------------------------


def render(template: str, p: dict) -> Query:
    """The SQL text and oracle spec of one instance."""
    return _RENDER[template[:2]](template, p)


def _q1(t: str, p: dict) -> Query:
    d = p["disc"]
    if t == "Q1.1":
        date_sql = f"d_year = {p['year']}"
        qty_sql = f"lo_quantity < {p['qty']}"
        date_pred = lambda x: x["d_year"] == p["year"]  # noqa: E731
        qty_pred = lambda f: f["lo_quantity"] < p["qty"]  # noqa: E731
    else:
        q = p["qty"]
        qty_sql = f"lo_quantity BETWEEN {q} AND {q + 9}"
        qty_pred = lambda f: _between(f["lo_quantity"], q, q + 9)  # noqa: E731
        if t == "Q1.2":
            date_sql = f"d_yearmonthnum = {p['ym']}"
            date_pred = lambda x: x["d_yearmonthnum"] == p["ym"]  # noqa: E731
        else:
            date_sql = f"d_weeknuminyear = {p['week']} AND d_year = {p['year']}"
            date_pred = lambda x: ((x["d_weeknuminyear"] == p["week"])  # noqa: E731
                                   & (x["d_year"] == p["year"]))
    sql = ("SELECT sum(lo_extendedprice * lo_discount) AS revenue "
           "FROM lineorder, date WHERE lo_orderdate = d_datekey "
           f"AND {date_sql} AND lo_discount BETWEEN {d} AND {d + 2} "
           f"AND {qty_sql}")
    return Query(
        t, p, sql, ["revenue"],
        ("revenue", lambda f: f["lo_extendedprice"] * f["lo_discount"]),
        dims={"date": date_pred},
        fact=lambda f: _between(f["lo_discount"], d, d + 2) & qty_pred(f))


def _q2(t: str, p: dict) -> Query:
    c = p["category"]
    if t == "Q2.1":
        part_sql = f"p_category = {_q(c)}"
        part_pred = lambda x: x["p_category"] == c  # noqa: E731
    elif t == "Q2.2":
        lo, hi = f"{c}{p['brand_lo']:02d}", f"{c}{p['brand_hi']:02d}"
        part_sql = f"p_brand1 BETWEEN {_q(lo)} AND {_q(hi)}"
        part_pred = lambda x: _between(x["p_brand1"], lo, hi)  # noqa: E731
    else:
        brand = f"{c}{p['brand']:02d}"
        part_sql = f"p_brand1 = {_q(brand)}"
        part_pred = lambda x: x["p_brand1"] == brand  # noqa: E731
    sql = ("SELECT sum(lo_revenue) AS revenue, d_year, p_brand1 "
           "FROM lineorder, date, part, supplier "
           "WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey "
           f"AND lo_suppkey = s_suppkey AND {part_sql} "
           f"AND s_region = {_q(p['region'])} "
           "GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1")
    return Query(
        t, p, sql, ["revenue", "d_year", "p_brand1"],
        ("revenue", lambda f: f["lo_revenue"]),
        keys=[("d_year", "date", "d_year"), ("p_brand1", "part", "p_brand1")],
        dims={"part": part_pred,
              "supplier": lambda x: x["s_region"] == p["region"]},
        order=[("d_year", False), ("p_brand1", False)])


def _q3(t: str, p: dict) -> Query:
    if t == "Q3.1":
        value = p["region"]
        c_pred = lambda x: x["c_region"] == value  # noqa: E731
        s_pred = lambda x: x["s_region"] == value  # noqa: E731
        c_sql, s_sql = f"c_region = {_q(value)}", f"s_region = {_q(value)}"
        attr = "nation"
    elif t == "Q3.2":
        value = p["nation"]
        c_pred = lambda x: x["c_nation"] == value  # noqa: E731
        s_pred = lambda x: x["s_nation"] == value  # noqa: E731
        c_sql, s_sql = f"c_nation = {_q(value)}", f"s_nation = {_q(value)}"
        attr = "city"
    else:
        cities = p["cities"]
        c_pred = lambda x: np.isin(x["c_city"], cities)  # noqa: E731
        s_pred = lambda x: np.isin(x["s_city"], cities)  # noqa: E731
        c_sql, s_sql = f"c_city IN {_in(cities)}", f"s_city IN {_in(cities)}"
        attr = "city"
    if t == "Q3.4":
        date_sql = f"d_yearmonth = {_q(p['ym'])}"
        date_pred = lambda x: x["d_yearmonth"] == p["ym"]  # noqa: E731
    else:
        y1, y2 = p["y1"], p["y2"]
        date_sql = f"d_year >= {y1} AND d_year <= {y2}"
        date_pred = lambda x: _between(x["d_year"], y1, y2)  # noqa: E731
    c_col, s_col = f"c_{attr}", f"s_{attr}"
    sql = (f"SELECT {c_col}, {s_col}, d_year, sum(lo_revenue) AS revenue "
           "FROM customer, lineorder, supplier, date "
           "WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey "
           f"AND lo_orderdate = d_datekey AND {c_sql} AND {s_sql} "
           f"AND {date_sql} GROUP BY {c_col}, {s_col}, d_year "
           "ORDER BY d_year ASC, revenue DESC")
    return Query(
        t, p, sql, [c_col, s_col, "d_year", "revenue"],
        ("revenue", lambda f: f["lo_revenue"]),
        keys=[(c_col, "customer", c_col), (s_col, "supplier", s_col),
              ("d_year", "date", "d_year")],
        dims={"customer": c_pred, "supplier": s_pred, "date": date_pred},
        order=[("d_year", False), ("revenue", True)])


def _q4(t: str, p: dict) -> Query:
    region, mfgrs, years = p["region"], p["mfgrs"], p["years"]
    c_sql = f"c_region = {_q(region)}"
    dims = {"customer": lambda x: x["c_region"] == region}
    if t == "Q4.3":
        s_sql = f"s_nation = {_q(p['nation'])}"
        dims["supplier"] = lambda x: x["s_nation"] == p["nation"]
        p_sql = f"p_category = {_q(p['category'])}"
        dims["part"] = lambda x: x["p_category"] == p["category"]
    else:
        s_sql = f"s_region = {_q(region)}"
        dims["supplier"] = lambda x: x["s_region"] == region
        p_sql = f"p_mfgr IN {_in(mfgrs)}"
        dims["part"] = lambda x: np.isin(x["p_mfgr"], mfgrs)
    date_sql = ""
    if t != "Q4.1":
        date_sql = f" AND d_year IN {_in(years)}"
        dims["date"] = lambda x: np.isin(x["d_year"], years)
    outputs = {"Q4.1": [("c_nation", "customer")],
               "Q4.2": [("s_nation", "supplier"), ("p_category", "part")],
               "Q4.3": [("s_city", "supplier"), ("p_brand1", "part")]}[t]
    cols = ["d_year"] + [c for c, _ in outputs]
    sql = (f"SELECT {', '.join(cols)}, "
           "sum(lo_revenue - lo_supplycost) AS profit "
           "FROM date, customer, supplier, part, lineorder "
           "WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey "
           "AND lo_partkey = p_partkey AND lo_orderdate = d_datekey "
           f"AND {c_sql} AND {s_sql} AND {p_sql}{date_sql} "
           f"GROUP BY {', '.join(cols)} ORDER BY {', '.join(cols)}")
    return Query(
        t, p, sql, cols + ["profit"],
        ("profit", lambda f: f["lo_revenue"] - f["lo_supplycost"]),
        keys=[("d_year", "date", "d_year")] + [(c, tab, c) for c, tab in outputs],
        dims=dims,
        order=[(c, False) for c in cols])


_RENDER = {"Q1": _q1, "Q2": _q2, "Q3": _q3, "Q4": _q4}


def instance(template: str, rng: np.random.Generator) -> Query:
    """Draw and render one instance of *template*."""
    return render(template, draw(template, rng))
