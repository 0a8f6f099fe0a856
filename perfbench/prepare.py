"""Build the benchmark's inputs, outside any timed region.

    python3 perfbench/prepare.py [--seed N ...]

Builds, when missing, under ``perfbench/.data``:

* the SSB SF1 archive the program loads (``adhoc``, ``dashboard``) and a
  decoded, non-airified copy of the same data for the oracle;
* the SSB SF0.1 archive with every table MVCC-versioned (``realtime``),
  made through the program's public table constructors, and its decoded
  copy;
* the ``dashboard`` panels, one fixed set, with the oracle's answers;
* for each ``--seed``: the ``adhoc`` query stream with the oracle's
  answers for its checked sample, and the ``dashboard`` request order.

Oracle answers come from the oracle alone and are rebuilt by this
command (delete a file under ``streams/`` to redo it).  The table data
and the panels use the fixed ``DATA_SEED``; the streams depend on
``--seed``.
"""

from __future__ import annotations

import argparse
import shutil
import sys

import numpy as np

import common
import ssb
from oracle import answer, load_tables, save_tables

ADHOC_ROUNDS = 80           # 1,040 instances; a run reads about 450
DASHBOARD_ROUNDS = 2500     # 65,000 panel requests, one permutation each


def _decoded(column) -> np.ndarray:
    values = column.values()
    if values.dtype == object:
        return np.asarray(values.tolist(), dtype=str)
    return np.asarray(values)


def raw_tables(db) -> dict:
    """Every column of *db*, decoded (strings as numpy unicode arrays)."""
    return {name: {col: _decoded(table[col]) for col in table.column_names}
            for name, table in db.tables.items()}


def _replace_dir(tmp, final) -> None:
    if final.exists():
        shutil.rmtree(final)
    tmp.rename(final)


def build_sf1() -> None:
    from repro import generate_ssb, save_database

    db = generate_ssb(sf=common.ADHOC_SF, seed=common.DATA_SEED, airify=False)
    tmp = common.SF1_RAW.with_name(common.SF1_RAW.name + ".tmp")
    save_tables(raw_tables(db), tmp)
    _replace_dir(tmp, common.SF1_RAW)
    db.airify()
    tmp = common.SF1_ARCHIVE.with_name("tmp-" + common.SF1_ARCHIVE.name)
    save_database(db, tmp)
    tmp.rename(common.SF1_ARCHIVE)


def build_realtime() -> None:
    """SF0.1 with every table versioned: snapshot reads raise unless every
    joined table is MVCC, so the dimensions are versioned too."""
    from repro import Database, generate_ssb, save_database

    plain = generate_ssb(sf=common.REALTIME_SF, seed=common.DATA_SEED,
                         airify=False)
    tables = raw_tables(plain)
    tmp = common.RT_RAW.with_name(common.RT_RAW.name + ".tmp")
    save_tables(tables, tmp)
    _replace_dir(tmp, common.RT_RAW)
    db = Database("ssb_sf0.1_mvcc")
    for name, columns in tables.items():
        data = {col: (values.tolist() if values.dtype.kind == "U" else values)
                for col, values in columns.items()}
        threshold = 0.95 if name in ("customer", "supplier", "part") else 0.1
        db.create_table(name, data, dict_threshold=threshold, mvcc=True)
    for ref in plain.references:
        db.add_reference(ref.child_table, ref.child_column,
                         ref.parent_table, ref.parent_key)
    db.clustering.update(plain.clustering)
    db.airify()
    tmp = common.RT_ARCHIVE.with_name("tmp-" + common.RT_ARCHIVE.name)
    save_database(db, tmp)
    tmp.rename(common.RT_ARCHIVE)


def _instance(template: str, rng) -> dict:
    query = ssb.instance(template, rng)
    return {"template": template, "params": query.params, "sql": query.sql}


def _round(rng) -> list:
    return [_instance(ssb.TEMPLATE_IDS[i], rng)
            for i in rng.permutation(len(ssb.TEMPLATE_IDS))]


def _expected(tables, instances) -> list:
    return [answer(tables, ssb.render(i["template"], i["params"]))
            for i in instances]


def build_streams(seed: int, tables=None) -> None:
    adhoc_path = common.stream_path("adhoc", seed)
    dash_path = common.stream_path("dashboard", seed)
    if adhoc_path.exists() and dash_path.exists():
        return
    if tables is None:
        tables = load_tables(common.SF1_RAW)
    rng = np.random.default_rng([seed, 1])
    warmup = [_instance(t, rng) for t in ssb.TEMPLATE_IDS]
    stream = [i for _ in range(ADHOC_ROUNDS) for i in _round(rng)]
    sample = stream[:common.SAMPLE_ROUNDS * len(ssb.TEMPLATE_IDS)]
    common.write_json_atomic(adhoc_path, {
        "seed": seed, "warmup": warmup, "stream": stream,
        "expected": _expected(tables, sample)})

    panels = common.read_json(_panels_path(tables))
    rng = np.random.default_rng([seed, 2])
    order = np.concatenate([rng.permutation(len(panels["panels"]))
                            for _ in range(DASHBOARD_ROUNDS)])
    common.write_json_atomic(dash_path, {"seed": seed, "order": order.tolist()})


def _panels_path(tables):
    """The dashboard's panels: one fixed set, the same for every seed (a
    dashboard shows the same panels to every viewer), with the oracle's
    answers."""
    path = common.PANELS
    if not path.exists():
        rng = np.random.default_rng([common.DATA_SEED, 2])
        panels = [_instance(t, rng) for t in ssb.TEMPLATE_IDS
                  for _ in range(common.PANELS_PER_TEMPLATE)]
        common.write_json_atomic(path, {"panels": panels,
                                        "expected": _expected(tables, panels)})
    return path


def ensure(seeds=()) -> None:
    """Build whatever of the inputs is missing."""
    common.use_program_path()
    common.DATA.mkdir(parents=True, exist_ok=True)
    if not (common.SF1_ARCHIVE.exists() and common.SF1_RAW.exists()):
        build_sf1()
    if not (common.RT_ARCHIVE.exists() and common.RT_RAW.exists()):
        build_realtime()
    if seeds:
        tables = None
        for seed in seeds:
            if not (common.stream_path("adhoc", seed).exists()
                    and common.stream_path("dashboard", seed).exists()):
                tables = tables or load_tables(common.SF1_RAW)
                build_streams(seed, tables)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, action="append", default=[])
    args = parser.parse_args(argv)
    ensure(args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
