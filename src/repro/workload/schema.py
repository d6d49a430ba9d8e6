"""Workload schemas: TPC-H-lite, TPC-DS-lite, and random schemas.

The paper evaluates on AMOEBA-generated queries over the TPC-H and
TPC-DS schemas and on "randomly-generated schema" (§7.1.3, Table 4).
All columns here are numeric (stored as DOUBLE in synthetic instances)
— the SPJ predicate language is linear arithmetic, so non-numeric
columns would never appear in predicates anyway.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple[str, ...]


@dataclass(frozen=True)
class Schema:
    """Tables plus a join graph of plausible equi-join edges."""

    name: str
    tables: tuple[Table, ...]
    # (table1, col1, table2, col2) — joinable column pairs
    edges: tuple[tuple[str, str, str, str], ...]

    def table(self, name: str) -> Table:
        for t in self.tables:
            if t.name == name:
                return t
        raise KeyError(name)

    def neighbors(self, name: str):
        for t1, c1, t2, c2 in self.edges:
            if t1 == name:
                yield t2, c1, c2
            elif t2 == name:
                yield t1, c2, c1


TPCH_LITE = Schema(
    "tpch_lite",
    (
        Table("lineitem", ("l_orderkey", "l_partkey", "l_quantity",
                           "l_extendedprice", "l_discount", "l_tax")),
        Table("orders", ("o_orderkey", "o_custkey", "o_totalprice")),
        Table("customer", ("c_custkey", "c_nationkey", "c_acctbal")),
        Table("part", ("p_partkey", "p_size", "p_retailprice")),
    ),
    (
        ("lineitem", "l_orderkey", "orders", "o_orderkey"),
        ("orders", "o_custkey", "customer", "c_custkey"),
        ("lineitem", "l_partkey", "part", "p_partkey"),
    ),
)

TPCDS_LITE = Schema(
    "tpcds_lite",
    (
        Table("store_sales", ("ss_item_sk", "ss_customer_sk", "ss_store_sk",
                              "ss_sold_date_sk", "ss_quantity",
                              "ss_sales_price", "ss_net_profit")),
        Table("item", ("i_item_sk", "i_current_price", "i_brand_id")),
        Table("customer", ("c_customer_sk", "c_birth_year",
                           "c_current_addr_sk")),
        Table("store", ("s_store_sk", "s_tax_percentage", "s_floor_space")),
        Table("date_dim", ("d_date_sk", "d_year", "d_moy")),
    ),
    (
        ("store_sales", "ss_item_sk", "item", "i_item_sk"),
        ("store_sales", "ss_customer_sk", "customer", "c_customer_sk"),
        ("store_sales", "ss_store_sk", "store", "s_store_sk"),
        ("store_sales", "ss_sold_date_sk", "date_dim", "d_date_sk"),
    ),
)


def random_schema(seed: int) -> Schema:
    """A connected random star/chain schema (Table 4 transfer targets)."""
    g = np.random.default_rng(seed)
    n = int(g.integers(3, 6))
    tables = []
    for i in range(n):
        n_cols = int(g.integers(3, 7))
        tables.append(Table(f"r{seed}_t{i}", tuple(f"c{j}" for j in range(n_cols))))
    edges = []
    for i in range(1, n):
        j = int(g.integers(0, i))  # attach to an earlier table → connected
        ci = tables[i].columns[int(g.integers(0, len(tables[i].columns)))]
        cj = tables[j].columns[int(g.integers(0, len(tables[j].columns)))]
        edges.append((tables[i].name, ci, tables[j].name, cj))
    return Schema(f"rand{seed}", tuple(tables), tuple(edges))
