"""Trajectory data management layer.

The SITM is a *data model*; this package is the corresponding data
management substrate: a typed in-memory trajectory store with the
secondary indexes symbolic trajectory workloads need (inverted state /
annotation / moving-object indexes, start-sorted interval arrays over
presence times) and a declarative query API over them — logical
expression trees (:mod:`repro.storage.expr`) compiled by a cost-based
planner (:mod:`repro.storage.planner`) into lazy, streaming result
sets (:mod:`repro.storage.results`).  CSV / JSON-lines persistence
rounds it out.  See ``docs/query.md`` for the query model.
"""

from repro.storage.intervals import Interval, IntervalIndex
from repro.storage.index import InvertedIndex
from repro.storage.store import StoredTrajectory, TrajectoryStore
from repro.storage.expr import Expr, ExprSerializationError, expr_from_dict
from repro.storage.planner import Plan, plan_expression
from repro.storage.results import ResultSet
from repro.storage.query import Query
from repro.storage.csvio import (
    iter_detrecords_csv,
    read_detrecords_csv,
    read_trajectories_jsonl,
    write_detections_csv,
    write_trajectories_jsonl,
)

__all__ = [
    "Interval",
    "IntervalIndex",
    "InvertedIndex",
    "StoredTrajectory",
    "TrajectoryStore",
    "Expr",
    "ExprSerializationError",
    "expr_from_dict",
    "Plan",
    "plan_expression",
    "ResultSet",
    "Query",
    "iter_detrecords_csv",
    "read_detrecords_csv",
    "read_trajectories_jsonl",
    "write_detections_csv",
    "write_trajectories_jsonl",
]
