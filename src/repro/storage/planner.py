"""A cost-based planner compiling expression trees to index plans.

The planner turns a :mod:`repro.storage.expr` tree into a physical
plan over :class:`~repro.storage.store.TrajectoryStore` id sets:

* index-backed leaves become **index scans** with a cardinality
  estimate pulled from the store's statistics
  (:meth:`~repro.storage.store.TrajectoryStore.state_cardinalities`
  and friends);
* ``And`` becomes an **intersection** evaluated smallest-estimate
  first (with an early exit on an empty intermediate);
* ``Or`` becomes an **index union**;
* ``Not`` is normalized inward (De Morgan, double-negation) and then
  pushed into **set differences** — ``a & ~b`` evaluates as
  ``ids(a) - ids(b)``, never as a scan;
* residual predicates at the top level of a conjunction stay **lazy**:
  they are streamed over the candidates during execution, so
  ``count()`` without residuals never fetches a trajectory.  A
  residual buried under ``Or``/``Not`` cannot be deferred and compiles
  to an explicit **filter** node over its operand's candidates.

One more cost-based decision: inside a conjunction, an index leaf
whose estimated posting list dwarfs the smallest one is **demoted to
per-candidate verification** — with three candidates left, checking
``ActiveBetween`` on each beats materializing a thousand-entry id set
from the interval index.  Demoted leaves appear as residuals in
``explain()``.

:meth:`Plan.explain` renders the chosen plan as an indented tree with
the estimates that drove the ordering.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterator, List, \
    Optional, Tuple

import numpy as np

from repro.storage.expr import (
    ActiveBetween,
    And,
    Expr,
    HasAnnotation,
    Not,
    OfMovingObject,
    Or,
    VisitsState,
)
from repro.storage.store import StoredTrajectory, TrajectoryStore


# ----------------------------------------------------------------------
# plan nodes
# ----------------------------------------------------------------------
class PlanNode:
    """One operator of a physical plan; evaluates to an id set."""

    #: Estimated result cardinality (drives intersection order).
    estimate: int = 0

    def ids(self) -> FrozenSet[int]:
        """Evaluate the operator."""
        raise NotImplementedError

    def render(self, indent: int = 0) -> List[str]:
        """Indented ``explain()`` lines for this subtree."""
        raise NotImplementedError

    def _line(self, indent: int, text: str) -> str:
        return "  " * indent + text


class IndexScan(PlanNode):
    """Answer one leaf from a secondary index."""

    def __init__(self, label: str, estimate: int,
                 fetch: Callable[[], FrozenSet[int]]) -> None:
        self.label = label
        self.estimate = estimate
        self._fetch = fetch

    def ids(self) -> FrozenSet[int]:
        return self._fetch()

    def render(self, indent: int = 0) -> List[str]:
        return [self._line(indent, "index-scan {}  [est={}]".format(
            self.label, self.estimate))]


class FullScan(PlanNode):
    """Every document id (the universe)."""

    def __init__(self, store: TrajectoryStore) -> None:
        self._store = store
        self.estimate = len(store)

    def ids(self) -> FrozenSet[int]:
        return self._store.all_ids()

    def render(self, indent: int = 0) -> List[str]:
        return [self._line(indent, "full-scan  [est={}]".format(
            self.estimate))]


class Intersect(PlanNode):
    """Smallest-first id-set intersection with early exit."""

    def __init__(self, children: List[PlanNode]) -> None:
        self.children = sorted(children, key=lambda c: c.estimate)
        self.estimate = min(c.estimate for c in self.children)

    def ids(self) -> FrozenSet[int]:
        result = set(self.children[0].ids())
        for child in self.children[1:]:
            if not result:
                break
            result &= child.ids()
        return frozenset(result)

    def render(self, indent: int = 0) -> List[str]:
        lines = [self._line(indent,
                            "intersect (smallest-first)  [est≤{}]".format(
                                self.estimate))]
        for child in self.children:
            lines.extend(child.render(indent + 1))
        return lines


class Union(PlanNode):
    """Id-set union (``Or`` over index-backed operands)."""

    def __init__(self, children: List[PlanNode]) -> None:
        self.children = children
        self.estimate = sum(c.estimate for c in children)

    def ids(self) -> FrozenSet[int]:
        result: set = set()
        for child in self.children:
            result |= child.ids()
        return frozenset(result)

    def render(self, indent: int = 0) -> List[str]:
        lines = [self._line(indent, "union  [est≤{}]".format(
            self.estimate))]
        for child in self.children:
            lines.extend(child.render(indent + 1))
        return lines


class Difference(PlanNode):
    """``left - right``: ``Not`` pushed into a set difference."""

    def __init__(self, left: PlanNode, right: PlanNode) -> None:
        self.left = left
        self.right = right
        self.estimate = left.estimate

    def ids(self) -> FrozenSet[int]:
        return self.left.ids() - self.right.ids()

    def render(self, indent: int = 0) -> List[str]:
        lines = [self._line(indent, "difference  [est≤{}]".format(
            self.estimate))]
        lines.extend(self.left.render(indent + 1))
        lines.append(self._line(indent + 1, "minus"))
        lines.extend(self.right.render(indent + 1))
        return lines


class Filter(PlanNode):
    """Evaluate residual predicates eagerly over a child's candidates.

    Only used when a residual sits under ``Or``/``Not`` and therefore
    cannot be deferred to the lazy streaming phase.
    """

    def __init__(self, store: TrajectoryStore, child: PlanNode,
                 predicates: Tuple[Expr, ...]) -> None:
        self._store = store
        self.child = child
        self.predicates = predicates
        self.estimate = child.estimate

    def ids(self) -> FrozenSet[int]:
        doc_ids = list(self.child.ids())
        return frozenset(
            doc_id for doc_id, trajectory
            in zip(doc_ids, self._store.iter_ids(doc_ids))
            if all(p.matches(trajectory) for p in self.predicates))

    def render(self, indent: int = 0) -> List[str]:
        label = ", ".join(p.describe() for p in self.predicates)
        lines = [self._line(indent, "filter {}  [est≤{}]".format(
            label, self.estimate))]
        lines.extend(self.child.render(indent + 1))
        return lines


# ----------------------------------------------------------------------
# the plan
# ----------------------------------------------------------------------
class Plan:
    """A compiled query: an id-set operator tree plus lazy residuals."""

    def __init__(self, store: TrajectoryStore, root: PlanNode,
                 residuals: Tuple[Expr, ...]) -> None:
        self._store = store
        self.root = root
        self.residuals = residuals

    @property
    def store(self) -> TrajectoryStore:
        """The store the plan reads."""
        return self._store

    def candidate_ids(self) -> FrozenSet[int]:
        """The id set before the lazy residual phase."""
        return self.root.ids()

    def doc_ids(self, start_after: Optional[int] = None) -> np.ndarray:
        """The candidates in document-id order, as one sorted int64
        array (before the residual phase).

        Args:
            start_after: keep only ``doc_id > start_after``.
        """
        candidates = self.candidate_ids()
        doc_ids = np.fromiter(candidates, np.int64, len(candidates))
        doc_ids.sort()
        if start_after is not None:
            doc_ids = doc_ids[np.searchsorted(doc_ids, start_after,
                                              "right"):]
        return doc_ids

    def matching_ids(self) -> np.ndarray:
        """Every match's id, in order: :meth:`doc_ids`, filtered by
        the residuals when there are any (which fetches)."""
        if not self.residuals:
            return self.doc_ids()
        return np.fromiter((hit.doc_id for hit in self.iter_results()),
                           np.int64)

    def iter_results(self, start_after: Optional[int] = None
                     ) -> Iterator[StoredTrajectory]:
        """Stream matches in document-id order, applying residuals.

        Args:
            start_after: skip documents with ``doc_id <= start_after``
                *before* fetching or residual-checking them — the
                resume primitive behind the service layer's stable
                cursors (each page costs O(page), not O(prefix)).
        """
        residuals = self.residuals
        doc_ids = self.doc_ids(start_after).tolist()
        for doc_id, trajectory in zip(doc_ids,
                                      self._store.iter_ids(doc_ids)):
            if all(p.matches(trajectory) for p in residuals):
                yield StoredTrajectory(doc_id, trajectory)

    @property
    def exact_count_available(self) -> bool:
        """True when counting never needs to fetch a trajectory."""
        return not self.residuals

    def count(self) -> int:
        """Matching-document count, short-circuiting when possible."""
        if self.exact_count_available:
            return len(self.candidate_ids())
        return sum(1 for _ in self.iter_results())

    def explain(self) -> str:
        """Render the plan as an indented operator tree."""
        lines = self.root.render()
        if self.residuals:
            lines.append("residual (streamed): " + ", ".join(
                p.describe() for p in self.residuals))
        else:
            lines.append("residual: none (count() is index-only)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
class PlannerStatistics:
    """Cached selectivity estimates for one store snapshot."""

    def __init__(self, store: TrajectoryStore) -> None:
        self._store = store
        self._states: Dict[str, int] = store.state_cardinalities()
        self._annotations = store.annotation_cardinalities()
        self._corpus = len(store)

    def estimate(self, leaf: Expr) -> int:
        """Estimated hit count of one index-backed leaf."""
        if isinstance(leaf, VisitsState):
            return self._states.get(leaf.state, 0)
        if isinstance(leaf, HasAnnotation):
            return self._annotations.get((leaf.kind, leaf.value), 0)
        if isinstance(leaf, OfMovingObject):
            return len(self._store.ids_of_mo(leaf.mo_id))
        if isinstance(leaf, ActiveBetween):
            return self._window_estimate(leaf)
        return self._corpus

    def _window_estimate(self, leaf: ActiveBetween) -> int:
        """Corpus fraction covered by the window, over the store span."""
        span = self._store.time_span()
        if span is None:
            return 0
        start, end = span
        extent = end - start
        if extent <= 0:
            return self._corpus
        overlap = min(leaf.end, end) - max(leaf.start, start)
        if overlap < 0:
            return 0
        fraction = min(1.0, overlap / extent)
        return max(1, int(self._corpus * fraction))


#: Inside a conjunction, an index leaf is demoted to per-candidate
#: verification when its estimate exceeds both this absolute floor …
VERIFY_ABS_THRESHOLD = 128
#: … and this multiple of the smallest conjunct's estimate.
VERIFY_RATIO = 8


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------
def normalize(expr: Expr) -> Expr:
    """Push ``Not`` inward (De Morgan, double negation) and flatten."""
    if isinstance(expr, Not):
        inner = expr.child
        if isinstance(inner, Not):
            return normalize(inner.child)
        if isinstance(inner, And):
            return normalize(Or([Not(c) for c in inner.children]))
        if isinstance(inner, Or):
            return normalize(And([Not(c) for c in inner.children]))
        return Not(normalize(inner))
    if isinstance(expr, And):
        return And.of(*[normalize(c) for c in expr.children])
    if isinstance(expr, Or):
        return Or.of(*[normalize(c) for c in expr.children])
    return expr


def plan_expression(store: TrajectoryStore, expr: Expr) -> Plan:
    """Compile an expression tree into a physical plan."""
    stats = PlannerStatistics(store)
    normalized = normalize(expr)
    if isinstance(normalized, And):
        conjuncts: Tuple[Expr, ...] = normalized.children
    else:
        conjuncts = (normalized,)
    root, residuals = _compile_conjunction(store, stats, conjuncts)
    return Plan(store, root, residuals)


def _compile_conjunction(store: TrajectoryStore,
                         stats: PlannerStatistics,
                         conjuncts: Tuple[Expr, ...]
                         ) -> Tuple[PlanNode, Tuple[Expr, ...]]:
    """Compile one conjunction; residuals are returned, not applied.

    Residual leaves stay out of the operator tree so callers can
    stream them lazily.  Index leaves are ordered by estimate; any
    whose posting list dwarfs the smallest one is demoted to a
    residual (per-candidate verification beats materializing it).
    ``Not`` children become set differences — or demoted negated
    residuals when the negated posting list is the oversized one.
    """
    residuals: List[Expr] = []
    scans: List[Tuple[int, Expr, bool]] = []  # (estimate, leaf, negated)
    positives: List[PlanNode] = []
    negatives: List[PlanNode] = []
    for conjunct in conjuncts:
        if conjunct.residual:
            residuals.append(conjunct)
        elif isinstance(conjunct, Not):
            if conjunct.child.residual:
                residuals.append(conjunct)
            elif isinstance(conjunct.child, (And, Or)):
                negatives.append(
                    _compile_set(store, stats, conjunct.child))
            else:
                scans.append((stats.estimate(conjunct.child),
                              conjunct.child, True))
        elif isinstance(conjunct, (And, Or)):
            positives.append(_compile_set(store, stats, conjunct))
        else:
            scans.append((stats.estimate(conjunct), conjunct, False))

    anchor_estimates = [est for est, _, negated in scans
                        if not negated]
    anchor_estimates.extend(p.estimate for p in positives)
    if anchor_estimates and scans:
        threshold = max(VERIFY_ABS_THRESHOLD,
                        VERIFY_RATIO * min(anchor_estimates))
        kept: List[Tuple[int, Expr, bool]] = []
        have_anchor = bool(positives)
        for est, leaf, negated in sorted(scans, key=lambda s: s[0]):
            if not negated and not have_anchor:
                kept.append((est, leaf, negated))  # keep one anchor
                have_anchor = True
            elif est > threshold:
                residuals.append(Not(leaf) if negated else leaf)
            else:
                kept.append((est, leaf, negated))
        scans = kept
    for _, leaf, negated in scans:
        node = _leaf_scan(store, stats, leaf)
        (negatives if negated else positives).append(node)

    if positives:
        root: PlanNode = positives[0] if len(positives) == 1 \
            else Intersect(positives)
    else:
        root = FullScan(store)
    if negatives:
        subtrahend = negatives[0] if len(negatives) == 1 \
            else Union(negatives)
        root = Difference(root, subtrahend)
    return root, tuple(residuals)


def _compile_set(store: TrajectoryStore, stats: PlannerStatistics,
                 expr: Expr) -> PlanNode:
    """Compile a (normalized) subtree to a set-producing operator."""
    if isinstance(expr, And):
        node, residuals = _compile_conjunction(store, stats,
                                               expr.children)
        if residuals:
            node = Filter(store, node, residuals)
        return node
    if isinstance(expr, Or):
        return Union([_compile_set(store, stats, c)
                      for c in expr.children])
    if isinstance(expr, Not):
        # Only hit for Not over a leaf (normalization pushed the rest).
        return Difference(FullScan(store),
                          _compile_set(store, stats, expr.child))
    if expr.residual:
        return Filter(store, FullScan(store), (expr,))
    return _leaf_scan(store, stats, expr)


def _leaf_scan(store: TrajectoryStore, stats: PlannerStatistics,
               leaf: Expr) -> IndexScan:
    """An index scan for one index-backed leaf."""
    if isinstance(leaf, VisitsState):
        fetch = lambda: store.ids_visiting_state(leaf.state)  # noqa: E731
    elif isinstance(leaf, HasAnnotation):
        fetch = lambda: store.ids_with_annotation(  # noqa: E731
            leaf.kind, leaf.value)
    elif isinstance(leaf, OfMovingObject):
        fetch = lambda: store.ids_of_mo(leaf.mo_id)  # noqa: E731
    elif isinstance(leaf, ActiveBetween):
        fetch = lambda: store.ids_active_between(  # noqa: E731
            leaf.start, leaf.end)
    else:
        raise TypeError(
            "cannot compile leaf {!r} to an index scan".format(leaf))
    return IndexScan(leaf.describe(), stats.estimate(leaf), fetch)
