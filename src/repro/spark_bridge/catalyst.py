"""Catalyst → IR bridge: extract SPJ plans from real Spark DataFrames.

GEqO consumes logical plans (§2.1); in this repo's Spark deployment the
logical plans of interest are Catalyst analyzed plans. This module
walks a DataFrame's analyzed plan over py4j and lowers the SPJ fragment
(Project / Filter / inner Join / SubqueryAlias over temp views) into
the :mod:`repro.core.plan` IR, including:

- conjunct splitting of ``And`` trees (§3.1 canonicalization),
- attribute resolution by Catalyst ``exprId`` (so identically-named
  columns from different views resolve to the right alias),
- ``Cast``/``Alias`` unwrapping around literals and columns.

Non-SPJ shapes (outer joins, aggregates, non-linear or non-numeric
predicates) raise :class:`UnsupportedPlan`; callers skip those queries,
mirroring the paper's SPJ scope (§1).
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from repro.core.plan import BinOp, Col, Comparison, Const, Expr, Plan, compose


class UnsupportedPlan(ValueError):
    """The Catalyst plan is outside the supported SPJ fragment."""


_CMP = {
    "EqualTo": "=",
    "GreaterThan": ">",
    "GreaterThanOrEqual": ">=",
    "LessThan": "<",
    "LessThanOrEqual": "<=",
}
_ARITH = {"Add": "+", "Subtract": "-", "Multiply": "*"}


def _children(jnode):
    seq = jnode.children()
    return [seq.apply(i) for i in range(seq.size())]


def _cls(jnode) -> str:
    return jnode.getClass().getSimpleName()


def _split_conjuncts(jexpr) -> list:
    if _cls(jexpr) == "And":
        kids = _children(jexpr)
        return _split_conjuncts(kids[0]) + _split_conjuncts(kids[1])
    return [jexpr]


class _Extractor:
    def __init__(self):
        self.attr_alias: dict[int, str] = {}  # exprId → view alias
        self.aliases: dict[str, str] = {}  # alias → alias (base table = view)
        self.join_preds: list[Comparison] = []
        self.filter_preds: list[Comparison] = []
        self.projection: tuple[Col, ...] | None = None

    # -- expressions --------------------------------------------------
    def _col(self, jattr) -> Col:
        eid = jattr.exprId().id()
        alias = self.attr_alias.get(eid)
        if alias is None:
            raise UnsupportedPlan(f"unresolved attribute {jattr.name()}#{eid}")
        return Col(alias, jattr.name())

    def _expr(self, je) -> Expr:
        cls = _cls(je)
        if cls == "AttributeReference":
            return self._col(je)
        if cls == "Cast":
            return self._expr(_children(je)[0])
        if cls == "Literal":
            v = je.value()
            if v is None or isinstance(v, (bool, str)):
                raise UnsupportedPlan(f"non-numeric literal {v!r}")
            try:
                return Const(float(v))
            except TypeError as e:  # e.g. UTF8String JavaObject
                raise UnsupportedPlan(f"non-numeric literal {v!r}") from e
        if cls in _ARITH:
            l, r = _children(je)
            return BinOp(_ARITH[cls], self._expr(l), self._expr(r))
        raise UnsupportedPlan(f"unsupported expression {cls}")

    def _comparison(self, je) -> Comparison:
        cls = _cls(je)
        if cls == "Not":
            inner = _children(je)[0]
            if _cls(inner) == "EqualTo":
                l, r = _children(inner)
                return Comparison(self._expr(l), "!=", self._expr(r))
            raise UnsupportedPlan("unsupported negation")
        if cls not in _CMP:
            raise UnsupportedPlan(f"unsupported predicate {cls}")
        l, r = _children(je)
        return Comparison(self._expr(l), _CMP[cls], self._expr(r))

    def _is_join_pred(self, c: Comparison) -> bool:
        if c.op != "=":
            return False
        refs = {col.alias for col in c.columns}
        return (
            len(refs) == 2
            and isinstance(c.lhs, Col)
            and isinstance(c.rhs, Col)
        )

    # -- plan nodes ---------------------------------------------------
    def visit(self, jnode, *, top: bool) -> None:
        cls = _cls(jnode)
        if cls == "SubqueryAlias":
            alias = str(jnode.alias())
            if alias in self.aliases:
                raise UnsupportedPlan(f"duplicate view alias {alias!r}")
            self.aliases[alias] = alias
            out = jnode.output()
            for i in range(out.size()):
                at = out.apply(i)
                self.attr_alias[at.exprId().id()] = alias
            return  # scan leaf: do not descend into the view definition
        if cls == "Project":
            plist = jnode.projectList()
            cols = []
            for i in range(plist.size()):
                e = plist.apply(i)
                if _cls(e) == "Alias":
                    e = _children(e)[0]
                if _cls(e) == "Cast":
                    e = _children(e)[0]
                if _cls(e) != "AttributeReference":
                    raise UnsupportedPlan("projection of computed expression")
                # projection refers to attributes resolved later (bottom-up
                # exprId registration) — defer via a two-pass approach
                cols.append(e)
            self._pending_proj = cols
            if not top:
                raise UnsupportedPlan("nested Project (non-SPJ shape)")
            for c in _children(jnode):
                self.visit(c, top=False)
            self.projection = tuple(self._col(e) for e in self._pending_proj)
            return
        if cls == "Filter":
            for conj in _split_conjuncts(jnode.condition()):
                self._pending_filters.append(conj)
            for c in _children(jnode):
                self.visit(c, top=False)
            return
        if cls == "Join":
            jt = str(jnode.joinType()).lower()
            if jt != "inner" and jt != "cross":
                raise UnsupportedPlan(f"join type {jt}")
            cond = jnode.condition()
            conjs = _split_conjuncts(cond.get()) if cond.isDefined() else []
            self._pending_filters.extend(conjs)
            for c in _children(jnode):
                self.visit(c, top=False)
            return
        raise UnsupportedPlan(f"unsupported node {cls}")

    def extract(self, jplan) -> Plan:
        self._pending_filters = []
        self._pending_proj = []
        if _cls(jplan) != "Project":
            raise UnsupportedPlan("expected a root Project (SELECT list)")
        self.visit(jplan, top=True)
        preds = [self._comparison(j) for j in self._pending_filters]
        join_preds = [p for p in preds if self._is_join_pred(p)]
        filter_preds = [p for p in preds if not self._is_join_pred(p)]
        if not self.aliases:
            raise UnsupportedPlan("no base relations found")
        # re-split join preds so the join graph connects; surplus
        # equality preds simply remain join predicates stacked as filters
        try:
            return compose(
                dict(self.aliases), join_preds, filter_preds, self.projection
            )
        except ValueError as e:
            raise UnsupportedPlan(str(e)) from e


def extract_spj(df: DataFrame) -> Plan:
    """Lower a DataFrame's analyzed Catalyst plan to the SPJ IR."""
    jplan = df._jdf.queryExecution().analyzed()
    return _Extractor().extract(jplan)


def extract_spj_sql(spark, sql: str) -> Plan:
    """Parse + analyze a SQL string and lower it (temp views resolved)."""
    return extract_spj(spark.sql(sql))
