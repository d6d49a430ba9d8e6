"""Randomized model checker — an executable falsifier for the AV.

Runs both subexpressions on random small database instances via DuckDB
and compares result multisets. A mismatch on any instance proves
non-equivalence; agreement on many instances is strong (not absolute)
evidence of equivalence. Tests use this to cross-validate the formal
verifier and the rewrite rules.

Values are drawn as small integers (stored as DOUBLE) so predicate
boundaries such as ``> 10`` are actually exercised.
"""
from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd

from repro.core.plan import Plan
from repro.core.sqlgen import to_sql
from repro.core.subexpr import referenced_by_table


def random_instance(
    schema: dict[str, list[str]], *, rows: int = 25, seed: int = 0
) -> dict[str, pd.DataFrame]:
    g = np.random.default_rng(seed)
    out = {}
    for t, cols in sorted(schema.items()):
        out[t] = pd.DataFrame(
            {c: g.integers(-60, 71, rows).astype("float64") for c in cols}
        )
    return out


def results_equal_on(
    p1: Plan, p2: Plan, instance: dict[str, pd.DataFrame]
) -> bool:
    """Bag-compare ``p1`` and ``p2`` outputs on one instance."""
    con = duckdb.connect()
    try:
        for t, df in instance.items():
            con.register(t, df)
        r1 = con.execute(to_sql(p1)).fetchdf()
        r2 = con.execute(to_sql(p2)).fetchdf()
    finally:
        con.close()
    if r1.shape != r2.shape:
        return False
    if len(r1) == 0:
        return True
    s1 = r1.sort_values(list(r1.columns)).reset_index(drop=True)
    s2 = r2.sort_values(list(r2.columns)).reset_index(drop=True)
    return bool(np.allclose(s1.to_numpy(), s2.to_numpy()))


def counterexample(
    p1: Plan, p2: Plan, *, trials: int = 8, rows: int = 25, seed: int = 0
) -> int | None:
    """Seed of a distinguishing instance, or None if all trials agree."""
    schema = {t: sorted(cs) for t, cs in referenced_by_table((p1, p2)).items()}
    for k in range(trials):
        inst = random_instance(schema, rows=rows, seed=seed + k)
        if not results_equal_on(p1, p2, inst):
            return seed + k
    return None
