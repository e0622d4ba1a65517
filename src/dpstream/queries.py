"""Marginal queries, workloads over column tuples, and their evaluation."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .domain import DomainSchema, WeightedDataset


@dataclass(frozen=True)
class MarginalQuery:
    """Counting query that fixes one value on each of k columns."""

    columns: tuple[int, ...]
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(int(c) for c in self.columns))
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        if len(self.columns) < 1:
            raise ValueError("query needs at least one column")
        if len(self.columns) != len(self.values):
            raise ValueError("columns and values length mismatch")
        if any(b <= a for a, b in zip(self.columns, self.columns[1:])):
            raise ValueError(f"columns must be strictly increasing, got {self.columns}")


def _check_columns(schema: DomainSchema, columns: tuple[int, ...]) -> None:
    for c in columns:
        if not 0 <= c < schema.num_attributes:
            raise ValueError(f"column index {c} out of range for {schema.num_attributes} attributes")


def eval_query(query: MarginalQuery, dataset: WeightedDataset) -> float:
    """Total weight of points matching every (column, value) pair of the query."""
    schema = dataset.schema
    _check_columns(schema, query.columns)
    cards = schema.cardinalities
    for c, v in zip(query.columns, query.values):
        if not 0 <= v < cards[c]:
            raise ValueError(f"value {v} out of range for column {c}")
    if len(dataset) == 0:
        return 0.0
    sub = dataset.points[:, list(query.columns)]
    mask = (sub == np.asarray(query.values, dtype=np.int64)).all(axis=1)
    return float(dataset.weights[mask].sum())


@dataclass(frozen=True)
class Workload:
    """All marginal queries on one column tuple, in lexicographic value order.

    The cells of a workload partition the domain: every point matches exactly
    one query, so a full workload evaluation is a histogram with per-record
    sensitivity 1.
    """

    schema: DomainSchema
    columns: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(int(c) for c in self.columns))
        if len(self.columns) < 1:
            raise ValueError("workload needs at least one column")
        if any(b <= a for a, b in zip(self.columns, self.columns[1:])):
            raise ValueError(f"workload columns must be strictly increasing, got {self.columns}")
        _check_columns(self.schema, self.columns)

    @property
    def arity(self) -> int:
        return len(self.columns)

    @cached_property
    def cell_shape(self) -> tuple[int, ...]:
        cards = self.schema.cardinalities
        return tuple(cards[c] for c in self.columns)

    @cached_property
    def size(self) -> int:
        """Number of marginal queries (cells) in the workload."""
        out = 1
        for c in self.cell_shape:
            out *= c
        return out

    def query_at(self, cell: int) -> MarginalQuery:
        values = np.unravel_index(cell, self.cell_shape)
        return MarginalQuery(self.columns, tuple(int(v) for v in values))

    def queries(self) -> Iterator[MarginalQuery]:
        for cell in range(self.size):
            yield self.query_at(cell)

    def cell_indices(self, dataset: WeightedDataset) -> np.ndarray:
        """Lexicographic cell index of every stored point (one pass, O(nnz))."""
        if dataset.schema != self.schema:
            raise ValueError("dataset schema does not match the workload schema")
        if len(dataset) == 0:
            return np.empty(0, dtype=np.int64)
        coords = dataset.points[:, list(self.columns)]
        return np.ravel_multi_index(tuple(coords.T), self.cell_shape)


def eval_workload(workload: Workload, dataset: WeightedDataset) -> np.ndarray:
    """Vector of all cell values in lexicographic order; sums to the dataset mass."""
    cells = workload.cell_indices(dataset)
    if len(cells) == 0:
        return np.zeros(workload.size)
    return np.bincount(cells, weights=dataset.weights, minlength=workload.size).astype(np.float64)


@dataclass(frozen=True)
class WorkloadSet:
    """Ordered collection of distinct workloads; index identity is stable for a run."""

    workloads: tuple[Workload, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "workloads", tuple(self.workloads))
        if len(self.workloads) == 0:
            raise ValueError("workload set must be nonempty")
        cols = [w.columns for w in self.workloads]
        if len(set(cols)) != len(cols):
            raise ValueError("workloads must be distinct")

    def __len__(self) -> int:
        return len(self.workloads)

    def __getitem__(self, i: int) -> Workload:
        return self.workloads[i]

    def __iter__(self) -> Iterator[Workload]:
        return iter(self.workloads)


def enumerate_workloads(schema: DomainSchema, k: int) -> WorkloadSet:
    """All C(p, k) k-way workloads in lexicographic column order."""
    p = schema.num_attributes
    if not 1 <= k <= p:
        raise ValueError(f"workload arity {k} out of range [1, {p}]")
    workloads = tuple(Workload(schema, cols) for cols in itertools.combinations(range(p), k))
    return WorkloadSet(workloads)
