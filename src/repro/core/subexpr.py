"""Subexpression enumeration (§2.1).

``S(Q)``: every subtree of a logical plan is a subexpression, including
``Q`` itself. Bare subtrees (no root Project) are wrapped in a
canonical Project over the columns they reference so each enumerated
subexpression stays executable and has a well-defined output arity for
the schema filter.
"""
from __future__ import annotations

from collections.abc import Iterable

from repro.core.plan import (
    Col,
    Filter,
    Join,
    Plan,
    Project,
    Scan,
    alias_map,
    bfs,
    children,
    predicates,
)


def referenced_columns(plan: Plan) -> tuple[Col, ...]:
    """Sorted distinct columns referenced by predicates/projections."""
    cols: dict[str, Col] = {}
    for n in bfs(plan):
        if isinstance(n, (Filter, Join)):
            for c in n.pred.columns:
                cols[c.key] = c
        elif isinstance(n, Project):
            for c in n.cols:
                cols[c.key] = c
    return tuple(cols[k] for k in sorted(cols))


def referenced_by_table(plans: Iterable[Plan]) -> dict[str, set[str]]:
    """Base table → names of its columns that ``plans`` reference.
    Every scanned table is a key, referenced columns or not."""
    cols_by_table: dict[str, set[str]] = {}
    for p in plans:
        amap = alias_map(p)
        for t in amap.values():
            cols_by_table.setdefault(t, set())
        for c in referenced_columns(p):
            cols_by_table[amap[c.alias]].add(c.column)
    return cols_by_table


def as_executable(subtree: Plan) -> Plan:
    """Wrap a bare subtree in a canonical Project if needed."""
    if isinstance(subtree, Project):
        return subtree
    cols = referenced_columns(subtree)
    if not cols:  # bare Scan with no predicates — project nothing useful
        if isinstance(subtree, Scan):
            cols = (Col(subtree.alias, "__star__"),)
    return Project(cols, subtree)


def enumerate_subexpressions(plan: Plan) -> list[Plan]:
    """All subtrees of ``plan`` with at least two nodes (a bare Scan is
    not a subexpression), each wrapped to be executable. The root plan
    is included (§2.1: ``Q ∈ S(Q)``)."""
    out: list[Plan] = []
    seen: set[str] = set()
    for node in bfs(plan):
        size = sum(1 for _ in bfs(node))
        if size < 2:
            continue
        sub = as_executable(node)
        key = repr(sub) + repr(predicates(sub)) + repr(tuple(children(sub)))
        if key in seen:
            continue
        seen.add(key)
        out.append(sub)
    return out
