"""Logical expression trees for trajectory queries.

A query is a boolean expression over typed predicates:

* **index-backed leaves** — :class:`VisitsState`,
  :class:`HasAnnotation`, :class:`OfMovingObject`,
  :class:`ActiveBetween` — answerable from the store's secondary
  indexes as id sets;
* **residual leaves** — :class:`MinDuration`, :class:`MinEntries`,
  :class:`FollowsSequence`, :class:`Where` — Python predicates over
  the fetched trajectory;
* **combinators** — :class:`And`, :class:`Or`, :class:`Not`.

Expressions compose with the ``&``, ``|`` and ``~`` operators::

    (state("zone60853") | state("zone60886")) & goal("visit")

Every node supports three evaluations:

* :meth:`Expr.matches` — brute-force semantics over one trajectory
  (the planner-free ground truth used by the property tests);
* planning — :func:`repro.storage.planner.plan_expression` compiles
  the tree into an index plan;
* :meth:`Expr.to_dict` / :func:`expr_from_dict` — a JSON-safe wire
  form so plans are serializable for a service layer.  Only
  :class:`Where` (an arbitrary callable) refuses to serialize.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple

from repro.core.annotations import AnnotationKind, AnnotationValue
from repro.core.trajectory import SemanticTrajectory


class ExprSerializationError(ValueError):
    """Raised when an expression cannot be rendered as plain data."""


class Expr:
    """Base class of all query-expression nodes."""

    #: True for leaves that need the fetched trajectory (no index).
    residual = False

    # -- boolean algebra ------------------------------------------------
    def __and__(self, other: "Expr") -> "Expr":
        return And.of(self, other)

    def __or__(self, other: "Expr") -> "Expr":
        return Or.of(self, other)

    def __invert__(self) -> "Expr":
        if isinstance(self, Not):
            return self.child
        return Not(self)

    # -- evaluation -----------------------------------------------------
    def matches(self, trajectory: SemanticTrajectory) -> bool:
        """Brute-force evaluation against one trajectory."""
        raise NotImplementedError

    def describe(self) -> str:
        """Compact human-readable form (used by ``explain()``)."""
        raise NotImplementedError

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-safe plain-data form.

        Raises:
            ExprSerializationError: for :class:`Where` nodes.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return "{}<{}>".format(type(self).__name__, self.describe())


# ----------------------------------------------------------------------
# index-backed leaves
# ----------------------------------------------------------------------
@dataclass(frozen=True, repr=False)
class VisitsState(Expr):
    """The trajectory has at least one stay in ``state``."""

    state: str

    def matches(self, trajectory: SemanticTrajectory) -> bool:
        return trajectory.trace.visits_state(self.state)

    def describe(self) -> str:
        return "state={!r}".format(self.state)

    def to_dict(self) -> Dict:
        return {"op": "state", "state": self.state}


@dataclass(frozen=True, repr=False)
class HasAnnotation(Expr):
    """The trajectory carries ``(kind, value)`` anywhere — as a
    whole-trajectory annotation or on any stay."""

    kind: AnnotationKind
    value: AnnotationValue

    def matches(self, trajectory: SemanticTrajectory) -> bool:
        if trajectory.annotations.has(self.kind, self.value):
            return True
        return any(entry.annotations.has(self.kind, self.value)
                   for entry in trajectory.trace)

    def describe(self) -> str:
        return "annotation={}:{}".format(self.kind.value, self.value)

    def to_dict(self) -> Dict:
        return {"op": "annotation", "kind": self.kind.value,
                "value": self.value}


@dataclass(frozen=True, repr=False)
class OfMovingObject(Expr):
    """The trajectory belongs to one moving object."""

    mo_id: str

    def matches(self, trajectory: SemanticTrajectory) -> bool:
        return trajectory.mo_id == self.mo_id

    def describe(self) -> str:
        return "mo={!r}".format(self.mo_id)

    def to_dict(self) -> Dict:
        return {"op": "mo", "mo_id": self.mo_id}


@dataclass(frozen=True, repr=False)
class ActiveBetween(Expr):
    """Some stay intersects the closed window ``[start, end]``."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("window end precedes start")

    def matches(self, trajectory: SemanticTrajectory) -> bool:
        return any(entry.overlaps_time(self.start, self.end)
                   for entry in trajectory.trace)

    def describe(self) -> str:
        return "window=[{:g}, {:g}]".format(self.start, self.end)

    def to_dict(self) -> Dict:
        return {"op": "window", "start": self.start, "end": self.end}


# ----------------------------------------------------------------------
# residual leaves
# ----------------------------------------------------------------------
@dataclass(frozen=True, repr=False)
class MinDuration(Expr):
    """The trajectory lasts at least ``seconds``."""

    seconds: float
    residual = True

    def matches(self, trajectory: SemanticTrajectory) -> bool:
        return trajectory.duration >= self.seconds

    def describe(self) -> str:
        return "min_duration({:g}s)".format(self.seconds)

    def to_dict(self) -> Dict:
        return {"op": "min-duration", "seconds": self.seconds}


@dataclass(frozen=True, repr=False)
class MinEntries(Expr):
    """The trace holds at least ``count`` presence intervals."""

    count: int
    residual = True

    def matches(self, trajectory: SemanticTrajectory) -> bool:
        return len(trajectory.trace) >= self.count

    def describe(self) -> str:
        return "min_entries({})".format(self.count)

    def to_dict(self) -> Dict:
        return {"op": "min-entries", "count": self.count}


@dataclass(frozen=True, repr=False)
class FollowsSequence(Expr):
    """The distinct state sequence contains the contiguous pattern."""

    pattern: Tuple[str, ...]
    residual = True

    def __init__(self, pattern: Iterable[str]) -> None:
        object.__setattr__(self, "pattern", tuple(pattern))

    def matches(self, trajectory: SemanticTrajectory) -> bool:
        sequence = trajectory.distinct_states
        window = len(self.pattern)
        if window == 0:
            return True
        return any(sequence[i:i + window] == self.pattern
                   for i in range(len(sequence) - window + 1))

    def describe(self) -> str:
        return "follows({})".format("→".join(self.pattern))

    def to_dict(self) -> Dict:
        return {"op": "follows", "pattern": list(self.pattern)}


@dataclass(frozen=True, repr=False)
class Where(Expr):
    """An arbitrary Python predicate (not serializable)."""

    fn: Callable[[SemanticTrajectory], bool] = field(compare=False)
    label: str = "custom"
    residual = True

    def matches(self, trajectory: SemanticTrajectory) -> bool:
        return bool(self.fn(trajectory))

    def describe(self) -> str:
        return "where({})".format(self.label)

    def to_dict(self) -> Dict:
        raise ExprSerializationError(
            "where({}) wraps an arbitrary callable and cannot be "
            "serialized; use the typed residual predicates "
            "(min_duration, min_entries, follows) instead".format(
                self.label))


# ----------------------------------------------------------------------
# combinators
# ----------------------------------------------------------------------
@dataclass(frozen=True, repr=False)
class And(Expr):
    """Every child matches.  ``And(())`` matches everything."""

    children: Tuple[Expr, ...]

    def __init__(self, children: Iterable[Expr]) -> None:
        object.__setattr__(self, "children", tuple(children))

    @staticmethod
    def of(*children: Expr) -> "Expr":
        # Flatten recursively so the result is canonical (no nested
        # And, no single-child And) and therefore idempotent — a
        # serialization round trip must not change what another
        # application of ``of`` produces.
        flat: list = []
        for child in children:
            if isinstance(child, And):
                collapsed = And.of(*child.children)
                if isinstance(collapsed, And):
                    flat.extend(collapsed.children)
                else:
                    flat.append(collapsed)
            else:
                flat.append(child)
        if len(flat) == 1:
            return flat[0]
        return And(flat)

    def matches(self, trajectory: SemanticTrajectory) -> bool:
        return all(child.matches(trajectory)
                   for child in self.children)

    def describe(self) -> str:
        if not self.children:
            return "all"
        return "(" + " AND ".join(c.describe()
                                  for c in self.children) + ")"

    def to_dict(self) -> Dict:
        return {"op": "and",
                "children": [c.to_dict() for c in self.children]}


@dataclass(frozen=True, repr=False)
class Or(Expr):
    """At least one child matches.  ``Or(())`` matches nothing."""

    children: Tuple[Expr, ...]

    def __init__(self, children: Iterable[Expr]) -> None:
        object.__setattr__(self, "children", tuple(children))

    @staticmethod
    def of(*children: Expr) -> "Expr":
        # Recursive flattening, mirroring And.of (idempotence).
        flat: list = []
        for child in children:
            if isinstance(child, Or):
                collapsed = Or.of(*child.children)
                if isinstance(collapsed, Or):
                    flat.extend(collapsed.children)
                else:
                    flat.append(collapsed)
            else:
                flat.append(child)
        if len(flat) == 1:
            return flat[0]
        return Or(flat)

    def matches(self, trajectory: SemanticTrajectory) -> bool:
        return any(child.matches(trajectory)
                   for child in self.children)

    def describe(self) -> str:
        if not self.children:
            return "none"
        return "(" + " OR ".join(c.describe()
                                 for c in self.children) + ")"

    def to_dict(self) -> Dict:
        return {"op": "or",
                "children": [c.to_dict() for c in self.children]}


@dataclass(frozen=True, repr=False)
class Not(Expr):
    """The child does not match."""

    child: Expr

    def matches(self, trajectory: SemanticTrajectory) -> bool:
        return not self.child.matches(trajectory)

    def describe(self) -> str:
        return "NOT " + self.child.describe()

    def to_dict(self) -> Dict:
        return {"op": "not", "child": self.child.to_dict()}


# ----------------------------------------------------------------------
# construction helpers (the declarative vocabulary)
# ----------------------------------------------------------------------
def state(name: str) -> VisitsState:
    """Trajectories visiting ``name``."""
    return VisitsState(name)


def any_state(*names: str) -> Expr:
    """Trajectories visiting any of the states (an index union)."""
    return Or.of(*[VisitsState(n) for n in names])


def all_states(*names: str) -> Expr:
    """Trajectories visiting every one of the states."""
    return And.of(*[VisitsState(n) for n in names])


def annotation(kind: AnnotationKind,
               value: AnnotationValue) -> HasAnnotation:
    """Trajectories carrying the annotation anywhere."""
    return HasAnnotation(kind, value)


def goal(value: AnnotationValue) -> HasAnnotation:
    """Shorthand for a goal annotation predicate."""
    return HasAnnotation(AnnotationKind.GOAL, value)


def moving_object(mo_id: str) -> OfMovingObject:
    """One moving object's trajectories."""
    return OfMovingObject(mo_id)


def time_window(start: float, end: float) -> ActiveBetween:
    """Trajectories with a stay intersecting ``[start, end]``."""
    return ActiveBetween(start, end)


def min_duration(seconds: float) -> MinDuration:
    """Trajectories lasting at least ``seconds``."""
    return MinDuration(seconds)


def min_entries(count: int) -> MinEntries:
    """Trajectories with at least ``count`` presence intervals."""
    return MinEntries(count)


def follows(*pattern: str) -> FollowsSequence:
    """Trajectories containing the contiguous state pattern."""
    return FollowsSequence(pattern)


def where(fn: Callable[[SemanticTrajectory], bool],
          label: str = "custom") -> Where:
    """An arbitrary residual predicate (not serializable)."""
    return Where(fn, label)


# ----------------------------------------------------------------------
# deserialisation
# ----------------------------------------------------------------------
_LEAF_PARSERS: Dict[str, Callable[[Mapping], Expr]] = {
    "state": lambda d: VisitsState(d["state"]),
    "annotation": lambda d: HasAnnotation(AnnotationKind(d["kind"]),
                                          d["value"]),
    "mo": lambda d: OfMovingObject(d["mo_id"]),
    "window": lambda d: ActiveBetween(d["start"], d["end"]),
    "min-duration": lambda d: MinDuration(d["seconds"]),
    "min-entries": lambda d: MinEntries(d["count"]),
    "follows": lambda d: FollowsSequence(d["pattern"]),
}


def expr_from_dict(data: Mapping) -> Expr:
    """Inverse of :meth:`Expr.to_dict`.

    Raises:
        ValueError: for an unknown or malformed node.
    """
    op = data.get("op")
    if op == "and":
        return And([expr_from_dict(c) for c in data["children"]])
    if op == "or":
        return Or([expr_from_dict(c) for c in data["children"]])
    if op == "not":
        return Not(expr_from_dict(data["child"]))
    parser = _LEAF_PARSERS.get(op)
    if parser is None:
        raise ValueError("unknown expression op {!r}".format(op))
    return parser(data)
