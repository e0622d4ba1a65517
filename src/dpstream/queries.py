"""Marginal queries, workloads over column tuples, and their evaluation."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .domain import KEY_LIMIT, DomainSchema, WeightedDataset, checked_int


def _checked_indices(values: Sequence[object], what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ``int``, each checked by ``checked_int`` to be an integer >= 0."""
    return tuple(checked_int(v, 0, f"{what} must be an integer >= 0") for v in values)


@dataclass(frozen=True)
class MarginalQuery:
    """Counting query that fixes one value on each of k columns."""

    columns: tuple[int, ...]
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", _checked_indices(self.columns, "query column"))
        object.__setattr__(self, "values", _checked_indices(self.values, "query value"))
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


def query_mask(query: MarginalQuery, dataset: WeightedDataset) -> np.ndarray:
    """Boolean mask of the dataset's points matching every (column, value) pair of the query."""
    schema = dataset.schema
    _check_columns(schema, query.columns)
    cards = schema.cardinalities
    for c, v in zip(query.columns, query.values):
        if not 0 <= v < cards[c]:
            raise ValueError(f"value {v} out of range for column {c}")
    sub = dataset.points[:, list(query.columns)]
    return (sub == np.asarray(query.values, dtype=np.int64)).all(axis=1)


def eval_query(query: MarginalQuery, dataset: WeightedDataset) -> float:
    """Total weight of points matching every (column, value) pair of the query."""
    return float(dataset.weights[query_mask(query, dataset)].sum())


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
        object.__setattr__(self, "columns", _checked_indices(self.columns, "workload column"))
        if len(self.columns) < 1:
            raise ValueError("workload needs at least one column")
        if any(b <= a for a, b in zip(self.columns, self.columns[1:])):
            raise ValueError(f"workload columns must be strictly increasing, got {self.columns}")
        _check_columns(self.schema, self.columns)

    @cached_property
    def _hash(self) -> int:
        return hash((self.schema, self.columns))

    def __hash__(self) -> int:
        # WorkloadCover caches cells per workload; hash the schema and columns once
        return self._hash

    def __reduce__(self):
        # rebuilt from its fields: a cached string hash is only valid in the process that made it
        return type(self), (self.schema, self.columns)

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

    def cell_indices(self, dataset: WeightedDataset) -> np.ndarray:
        """Lexicographic cell index of every stored point (one pass, O(nnz))."""
        if dataset.schema != self.schema:
            raise ValueError("dataset schema does not match the workload schema")
        return self.point_cells(dataset.points)

    def point_cells(self, points: np.ndarray) -> np.ndarray:
        """Lexicographic cell index of every row of an in-range int64 ``(n, p)`` point array.

        The index is the mixed-radix value of the workload's columns, first
        column slowest: ``np.ravel_multi_index`` in C order, without its range
        checks. On column-major points each column read is a contiguous scan.
        """
        if self.size >= KEY_LIMIT:
            raise ValueError(f"workload {self.columns} has {self.size} cells, too many for int64 indices")
        columns, shape = self.columns, self.cell_shape
        if len(columns) == 1:
            return points[:, columns[0]].astype(np.int64)
        cells = points[:, columns[0]] * shape[1]  # a new array, so points are never written
        cells += points[:, columns[1]]
        for c, card in zip(columns[2:], shape[2:]):
            cells *= card
            cells += points[:, c]
        return cells


def eval_workload(workload: Workload, dataset: WeightedDataset) -> np.ndarray:
    """Read-only vector of all cell values in lexicographic order; sums to the dataset mass.

    Computed on the first call for a (dataset, workload) pair and kept in the
    dataset's ``memo``: later calls return the same vector. A dataset with
    ``support_cells`` sums the cells it returns, the same integers in the same
    order.
    """
    memo = dataset.memo
    values = memo.get(workload)
    if values is None:
        lookup = dataset.support_cells
        cells = workload.cell_indices(dataset) if lookup is None else lookup(workload)
        values = np.bincount(cells, weights=dataset.weights, minlength=workload.size)
        values.flags.writeable = False
        memo[workload] = values
    return values


def stride_matrix(workloads: Sequence[Workload], num_attributes: int) -> np.ndarray:
    """The p × W int64 matrix whose column i holds workload i's mixed-radix strides on its
    columns, first column slowest: ``points @`` it is every workload's ``point_cells``."""
    strides = np.zeros((num_attributes, len(workloads)), dtype=np.int64)
    for i, w in enumerate(workloads):
        strides[w.columns, i] = np.cumprod((1,) + w.cell_shape[:0:-1])[::-1]
    return strides


def stride_cells(points: np.ndarray, strides: np.ndarray) -> np.ndarray:
    """``points @ strides`` in int64, for in-range int64 points and ``stride_matrix`` columns whose
    cells are all below 2**53. numpy multiplies int64 matrices without BLAS (69 µs for
    200 × 13 × 22 on 2 vCPUs, against 13 µs in float64), so the product is one float64 product
    cast back. It is exact: every partial sum is a nonnegative integer below 2**53, and float64
    holds every such integer."""
    return (points.astype(np.float64) @ strides.astype(np.float64)).astype(np.int64)


# Most entries of a cover's scoring matrix (512 KiB of float64); above it, a scoring sums the
# joints. Both cost about the same near 190,000 entries.
DENSE_LIMIT = 2**16


@dataclass(frozen=True, eq=False)
class WorkloadCover:
    """Every workload's scoring on one fixed point set, ``points``, built once by ``cover_workloads``.

    A scoring is one flat float64 vector: workload ``i``'s values are
    ``flat[offsets[i]:offsets[i] + sizes[i]]``, and ``starts`` has one entry per flat cell.
    ``strides`` is the workloads' ``stride_matrix``: ``stride_cells`` of points with it, plus
    ``offsets``, gives each point's flat cell in every workload. ``matrix`` is the 0/1 matrix
    whose row r marks the points in flat cell r, or None where it would have more than
    ``DENSE_LIMIT`` entries; then flat cell r sums the histograms of the ``joints`` that group
    the workloads, laid end to end, at ``gather[starts[r]:starts[r + 1]]``: one
    ``np.add.reduceat``. Every array is read-only.

    ``cells`` is the one cache of cells at ``points``: the joints' (built with the cover when
    there is no matrix), the fit's and those of releases that share ``points``.
    """

    points: np.ndarray
    offsets: np.ndarray
    sizes: np.ndarray
    strides: np.ndarray
    matrix: np.ndarray | None
    joints: tuple[Workload, ...]
    gather: np.ndarray
    starts: np.ndarray
    _cells: dict = field(default_factory=dict, init=False, repr=False)

    def cells(self, workload: Workload) -> np.ndarray:
        """Read-only cell index of every point, in the smallest dtype that holds ``workload.size``;
        computed on first use and kept."""
        cells = self._cells.get(workload)
        if cells is None:
            if workload.schema != self.joints[0].schema:
                raise ValueError("workload schema does not match the cover schema")
            dtype = np.min_scalar_type(workload.size)
            if dtype.itemsize == 8:  # np.bincount cannot take uint64
                dtype = np.dtype(np.int64)
            cells = workload.point_cells(self.points).astype(dtype)
            cells.flags.writeable = False
            self._cells[workload] = cells
        return cells

    def values(self, points: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Every workload's values on the in-range int64 rows ``points`` weighted by ``weights``
        (repeats add), as one flat vector in this layout: every row's flat cell in every workload
        and one ``bincount``, summed in row order."""
        # every cell is below len(self.starts), the length of an array, so far below 2**53
        flat = stride_cells(points, self.strides)
        flat += self.offsets
        values = np.bincount(flat.ravel(), np.repeat(weights, len(self.sizes)), len(self.starts))
        return values.astype(np.float64, copy=False)  # no rows give int64 zeros

    def score(self, weights: np.ndarray, at: np.ndarray | None = None) -> np.ndarray:
        """Every workload's values on ``weights``, aligned with ``points``, as one flat vector. With
        ``at``, ``weights[i]`` is the weight at ``points[at[i]]`` (repeats add) and every other
        point weighs 0. One product with ``matrix`` where there is one. Otherwise, with ``at``,
        ``values`` of the points at ``at``; without, one ``bincount`` per joint, then every flat
        cell summed off its run of joint cells by one ``reduceat`` (equal up to the last bits; a
        one-cell run is copied)."""
        if self.matrix is not None:
            return self.matrix @ weights if at is None else self.matrix[:, at] @ weights
        if at is not None:
            return self.values(self.points[at], weights)
        joints = [np.bincount(self.cells(j), weights, j.size) for j in self.joints]
        return np.add.reduceat(np.concatenate(joints).take(self.gather), self.starts)

    def mean_abs(self, flat: np.ndarray) -> np.ndarray:
        """Each workload's L1 norm in the flat vector ``flat`` over its cell count, by one range sum."""
        return np.add.reduceat(np.abs(flat), self.offsets) / self.sizes


def cover_workloads(workloads: Sequence[Workload], points: np.ndarray) -> WorkloadCover:
    """The ``WorkloadCover`` of ``workloads`` on the in-range int64 rows ``points``, which the
    cover keeps and scores on for good."""
    # joints of at most an eighth of the points scored fastest in a sweep of the cap
    return _cover(workloads, points, len(points) // 8)


def _cover(workloads: Sequence[Workload], points: np.ndarray, max_cells: int) -> WorkloadCover:
    """``cover_workloads`` with joints of at most ``max_cells`` cells, grouped greedily.

    Largest first, each workload joins the group whose column union stays within
    the cap with the smallest joint, else opens a group (alone when over the cap).
    """
    workloads, schema = list(workloads), workloads[0].schema
    cards = {1 << c: card for c, card in enumerate(schema.cardinalities)}
    groups: list[list] = []  # [column mask, joint size, member indices]
    for i in sorted(range(len(workloads)), key=lambda i: -workloads[i].size):
        mask, best, best_size = sum(1 << c for c in workloads[i].columns), None, max_cells + 1
        for group in groups:
            size, extra = group[1], mask & ~group[0]
            while extra and size < best_size:  # bitmask columns: one factor per column it lacks
                bit = extra & -extra
                size, extra = size * cards[bit], extra ^ bit
            if size < best_size:
                best, best_size = group, size
        if best is None:
            groups.append([mask, workloads[i].size, [i]])
        else:
            best[:] = best[0] | mask, best_size, best[2] + [i]
    joints, runs, base = [], [None] * len(workloads), 0
    for mask, _, members in groups:
        joint = Workload(schema, tuple(c for c in range(schema.num_attributes) if mask >> c & 1))
        # the joint's positions in the concatenated histograms, on the joint's cell grid
        grid = base + np.arange(joint.size).reshape(joint.cell_shape)
        for i in members:  # the member's axes first: its cells in order, each a run in joint order
            axes = np.searchsorted(joint.columns, workloads[i].columns)
            runs[i] = np.moveaxis(grid, axes, range(len(axes))).ravel()
        joints.append(joint)
        base += joint.size
    sizes = np.array([w.size for w in workloads], dtype=np.int64)
    offsets = np.cumsum(sizes) - sizes
    # Kept in intp: a narrower index array is cast on every read, tripling the gather's cost
    gather = np.concatenate(runs)
    counts = np.repeat([len(run) for run in runs] // sizes, sizes)  # joint.size // w.size per member cell
    starts = np.cumsum(counts) - counts
    strides = stride_matrix(workloads, schema.num_attributes)
    matrix = None
    if len(starts) * len(points) <= DENSE_LIMIT:
        flat = stride_cells(points, strides) + offsets
        matrix = np.zeros((len(starts), len(points)))
        matrix[flat.ravel(), np.repeat(np.arange(len(points)), len(workloads))] = 1.0
        matrix.flags.writeable = False
    for array in (sizes, offsets, gather, starts, strides):
        array.flags.writeable = False
    cover = WorkloadCover(points, offsets, sizes, strides, matrix, tuple(joints), gather, starts)
    # every scoring reads the joints' cells. Narrow, though bincount casts them on every call:
    # int64 ones (1.7 MiB on census13's 10,000-point support) made census13 releases 6% slower
    for joint in joints if matrix is None else ():
        cover.cells(joint)
    return cover


@dataclass(frozen=True)
class WorkloadSet:
    """Ordered collection of distinct workloads; index identity is stable for a run."""

    workloads: tuple[Workload, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "workloads", tuple(self.workloads))
        if len(self.workloads) == 0:
            raise ValueError("workload set must be nonempty")
        schema = self.workloads[0].schema
        for i, w in enumerate(self.workloads):
            if w.schema != schema:
                raise ValueError(
                    f"workload {i} on columns {w.columns} is over the schema {w.schema.attributes}, "
                    f"not workload 0's schema {schema.attributes}"
                )
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
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):  # type first: range has its own message
        raise ValueError(f"workload arity must be an integer, got {k!r}")
    if not 1 <= k <= p:
        raise ValueError(f"workload arity {k} out of range [1, {p}]")
    workloads = tuple(Workload(schema, cols) for cols in itertools.combinations(range(p), k))
    return WorkloadSet(workloads)
