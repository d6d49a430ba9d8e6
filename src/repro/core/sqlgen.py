"""Render SPJ plans to SQL (DuckDB and Spark SQL share this dialect).

Inner joins and filters commute, so an SPJ plan renders to a flat
``SELECT … FROM … WHERE …``: ``FROM`` and ``SELECT`` come from
:func:`repro.core.plan.decompose`, which refuses any plan outside the
fragment, and ``WHERE`` lists the predicates in BFS order. Surface
differences live in the IR, not in the generated SQL. Output columns
are aliased positionally (``p0…pk``) so result equality between two
plans is well-defined regardless of source column names — this matches
the paper's semantics ``q_i(d) = q_j(d)`` (§2.1).
"""
from __future__ import annotations

from repro.core.plan import Col, Comparison, Const, Expr, Plan, decompose, predicates

_SQL_OP = {"=": "=", "!=": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def expr_to_sql(e: Expr) -> str:
    if isinstance(e, Col):
        return f"{e.alias}.{e.column}"
    if isinstance(e, Const):
        v = e.value
        return repr(int(v)) if float(v).is_integer() else repr(float(v))
    return f"({expr_to_sql(e.left)} {e.op} {expr_to_sql(e.right)})"


def comparison_to_sql(c: Comparison) -> str:
    return f"{expr_to_sql(c.lhs)} {_SQL_OP[c.op]} {expr_to_sql(c.rhs)}"


def to_sql(plan: Plan) -> str:
    """Flat SQL for an SPJ plan; ``ValueError`` outside the fragment."""
    aliases, _, _, proj = decompose(plan)
    select = ", ".join(f"{c.alias}.{c.column} AS p{i}" for i, c in enumerate(proj))
    frm = ", ".join(f"{table} AS {alias}" for alias, table in aliases.items())
    where = " AND ".join(comparison_to_sql(p) for p in predicates(plan))
    sql = f"SELECT {select} FROM {frm}"
    if where:
        sql += f" WHERE {where}"
    return sql
