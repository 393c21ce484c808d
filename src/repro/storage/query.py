"""A declarative, planned, streaming query API over the store.

Queries are logical expression trees (:mod:`repro.storage.expr`)
compiled by a cost-based planner (:mod:`repro.storage.planner`) and
executed lazily (:mod:`repro.storage.results`).  The fluent builder
survives as sugar — each call appends one conjunct to the tree::

    Query(store).visiting_state("zone60853") \\
                .with_annotation(AnnotationKind.GOAL, "visit") \\
                .active_between(t1, t2) \\
                .execute()                      # a lazy ResultSet

while the expression vocabulary unlocks full boolean composition::

    from repro.storage import expr as E
    Query(store).matching(
        (E.state("zone60853") | E.goal("buy")) & ~E.state("zone60886"))

``explain()`` renders the selectivity-ordered plan, ``count()`` stays
index-only whenever no residual predicates remain, and
``to_dict()``/``from_dict()`` round-trip a query as plain data so
plans are serializable for a service layer.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional

from repro.core.annotations import AnnotationKind, AnnotationValue
from repro.core.trajectory import SemanticTrajectory
from repro.storage import expr as E
from repro.storage.expr import And, Expr, expr_from_dict
from repro.storage.planner import Plan, plan_expression
from repro.storage.results import OrderKey, ResultSet
from repro.storage.store import StoredTrajectory, TrajectoryStore

#: A residual filter applied after index intersection.
ResidualPredicate = Callable[[SemanticTrajectory], bool]


class Query:
    """A fluent builder over the declarative expression tree."""

    def __init__(self, store: TrajectoryStore,
                 expression: Optional[Expr] = None) -> None:
        self._store = store
        self._terms: List[Expr] = [] if expression is None \
            else [expression]

    # ------------------------------------------------------------------
    # declarative entry point
    # ------------------------------------------------------------------
    def matching(self, expression: Expr) -> "Query":
        """AND an arbitrary expression tree into the query."""
        self._terms.append(expression)
        return self

    def expression(self) -> Expr:
        """The query's logical expression (an ``And`` of all terms)."""
        return And.of(*self._terms) if self._terms else And(())

    # ------------------------------------------------------------------
    # index-backed predicates (fluent sugar)
    # ------------------------------------------------------------------
    def visiting_state(self, state: str) -> "Query":
        """Keep trajectories visiting ``state``."""
        return self.matching(E.state(state))

    def visiting_any(self, states: Iterable[str]) -> "Query":
        """Keep trajectories visiting any of ``states``."""
        return self.matching(E.any_state(*states))

    def visiting_all(self, states: Iterable[str]) -> "Query":
        """Keep trajectories visiting all of ``states``."""
        return self.matching(E.all_states(*states))

    def with_annotation(self, kind: AnnotationKind,
                        value: AnnotationValue) -> "Query":
        """Keep trajectories carrying the annotation anywhere."""
        return self.matching(E.annotation(kind, value))

    def of_moving_object(self, mo_id: str) -> "Query":
        """Keep one moving object's trajectories."""
        return self.matching(E.moving_object(mo_id))

    def active_between(self, start: float, end: float) -> "Query":
        """Keep trajectories with a stay intersecting the window."""
        return self.matching(E.time_window(start, end))

    def excluding(self, expression: Expr) -> "Query":
        """Keep trajectories NOT matching ``expression``."""
        return self.matching(~expression)

    # ------------------------------------------------------------------
    # residual predicates (fluent sugar)
    # ------------------------------------------------------------------
    def where(self, predicate: ResidualPredicate,
              label: str = "custom") -> "Query":
        """Add an arbitrary Python predicate (applied post-index)."""
        return self.matching(E.where(predicate, label))

    def min_duration(self, seconds: float) -> "Query":
        """Keep trajectories lasting at least ``seconds``."""
        return self.matching(E.min_duration(seconds))

    def min_entries(self, count: int) -> "Query":
        """Keep trajectories with at least ``count`` presence
        intervals."""
        return self.matching(E.min_entries(count))

    def follows_sequence(self, pattern: Iterable[str]) -> "Query":
        """Keep trajectories whose states contain the contiguous
        pattern."""
        return self.matching(E.follows(*pattern))

    # ------------------------------------------------------------------
    # planning & execution
    # ------------------------------------------------------------------
    def plan(self) -> Plan:
        """Compile the expression with the cost-based planner."""
        return plan_expression(self._store, self.expression())

    def explain(self) -> str:
        """Render the selectivity-ordered physical plan."""
        return self.plan().explain()

    def candidate_ids(self) -> FrozenSet[int]:
        """The id set after index evaluation (before lazy
        residuals)."""
        return self.plan().candidate_ids()

    def execute(self) -> ResultSet:
        """Run the query; a lazy, re-iterable result stream.

        Hits come out in document-id order.  Each consumption re-plans,
        so results reflect the store at that moment, and plans once: a
        count is index-only when that plan has no residuals.
        """
        return ResultSet(lambda: self.plan().iter_results(),
                         lambda limit: self.plan().count(limit))

    def count(self) -> int:
        """Matching-trajectory count.

        Index-only (no trajectory is fetched) when the query has no
        residual predicates.
        """
        return self.plan().count()

    def first(self) -> Optional[StoredTrajectory]:
        """The first hit in document-id order, or ``None``."""
        return self.execute().first()

    # -- result-shaping conveniences (delegate to the ResultSet) -------
    def limit(self, count: int) -> ResultSet:
        """Execute and keep at most ``count`` hits."""
        return self.execute().limit(count)

    def offset(self, count: int) -> ResultSet:
        """Execute and skip the first ``count`` hits."""
        return self.execute().offset(count)

    def order_by(self, key: OrderKey,
                 reverse: bool = False) -> ResultSet:
        """Execute and sort by a field name or key callable."""
        return self.execute().order_by(key, reverse=reverse)

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """Plain-data form of the query (its expression tree).

        Raises:
            ExprSerializationError: when the tree holds a ``where()``
                callable.
        """
        return {"expr": self.expression().to_dict()}

    @staticmethod
    def from_dict(store: TrajectoryStore, data: Mapping) -> "Query":
        """Rebuild a query against ``store`` from :meth:`to_dict`
        data."""
        return Query(store, expr_from_dict(data["expr"]))
