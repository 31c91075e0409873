"""A small in-memory relational engine with snapshot reads and cost accounting.

This is the substrate replacing the commercial DBMS in the paper's
evaluation.  It provides exactly what batch incremental view maintenance
needs:

* **MVCC-lite storage** (:mod:`repro.engine.table`): every row version
  carries ``(xmin, xmax)`` log sequence numbers, so maintenance queries can
  read each base table *as of the last modification the view has
  incorporated* -- the mechanism that avoids the state bug the paper cites
  from Colby et al.
* **Indexes** (:mod:`repro.engine.index`): an index is a declaration on a
  column; index availability is the paper's canonical source of cost
  asymmetry between delta tables.
* **Physical operators** (:mod:`repro.engine.operators`,
  :mod:`repro.engine.join`, :mod:`repro.engine.aggregate`): scans, filters,
  projections, index-nested-loop / hash joins, and grouped
  aggregation with incrementally maintainable MIN/MAX.
* **A deterministic cost model** (:mod:`repro.engine.costmodel`): physical
  operators charge page reads, probes, and tuple operations to a counter;
  the weighted total is the engine's simulated elapsed time.  This replaces
  wall-clock measurement and makes every experiment reproducible bit-for-bit.
* **A database facade** (:mod:`repro.engine.database`) with a rudimentary
  planner that picks join order and algorithms from available indexes.
"""

from repro.engine.errors import EngineError, ExecutionError, SchemaError
from repro.engine.types import Column, ColumnType, Schema
from repro.engine.costmodel import CostModel, OperationCounter
from repro.engine.table import ModEvent, Table
from repro.engine.snapshot import Snapshot
from repro.engine.index import Index
from repro.engine.expr import (
    BinOp,
    ColumnRef,
    Comparison,
    Const,
    Expression,
    and_,
    col,
    lit,
)
from repro.engine.query import AggregateSpec, JoinSpec, OrderSpec, QuerySpec
from repro.engine.database import Database

__all__ = [
    "AggregateSpec",
    "BinOp",
    "Column",
    "ColumnRef",
    "ColumnType",
    "Comparison",
    "Const",
    "CostModel",
    "Database",
    "EngineError",
    "ExecutionError",
    "Expression",
    "Index",
    "JoinSpec",
    "ModEvent",
    "OperationCounter",
    "OrderSpec",
    "QuerySpec",
    "Schema",
    "SchemaError",
    "Snapshot",
    "Table",
    "and_",
    "col",
    "lit",
]
