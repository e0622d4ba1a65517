"""Finite product domains, sparse weighted datasets, and insert-only dataset streams."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

import numpy as np

DataPoint = tuple[int, ...]

# Domains with at least this many points get no int64 point keys.
KEY_LIMIT = 2**63


@dataclass(frozen=True)
class DomainSchema:
    """Ordered categorical attributes spanning a finite product domain.

    Each attribute is a (name, cardinality) pair; attribute order defines the
    point coordinate order and is fixed for the lifetime of a run.
    """

    attributes: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        attrs = tuple((str(n), int(c)) for n, c in self.attributes)
        object.__setattr__(self, "attributes", attrs)
        if len(attrs) < 1:
            raise ValueError("schema needs at least one attribute")
        names = [n for n, _ in attrs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate attribute names: {names}")
        for name, card in attrs:
            if card < 1:
                raise ValueError(f"attribute {name!r} has cardinality {card} < 1")

    @property
    def num_attributes(self) -> int:
        return len(self.attributes)

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.attributes)

    @cached_property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(c for _, c in self.attributes)

    @cached_property
    def size(self) -> int:
        """Number of points in the full domain (can be astronomically large)."""
        out = 1
        for _, c in self.attributes:
            out *= c
        return out

    @cached_property
    def key_strides(self) -> tuple[int, ...] | None:
        """Mixed-radix strides, last attribute fastest; None when ``size >= KEY_LIMIT``.

        ``points @ key_strides`` maps each in-range row to a distinct int64 key,
        and key order is lexicographic row order.
        """
        if self.size >= KEY_LIMIT:
            return None
        strides = [1]
        for c in reversed(self.cardinalities[1:]):
            strides.append(strides[-1] * c)
        return tuple(reversed(strides))

    def index_of(self, name: str) -> int:
        return self.names.index(name)

    def validate_point(self, point: Iterable[int]) -> DataPoint:
        pt = tuple(int(v) for v in point)
        if len(pt) != self.num_attributes:
            raise ValueError(f"point has {len(pt)} coordinates, schema has {self.num_attributes}")
        for (name, card), v in zip(self.attributes, pt):
            if not 0 <= v < card:
                raise ValueError(f"value {v} out of range [0, {card}) for attribute {name!r}")
        return pt


def point_keys(schema: DomainSchema, *arrays: np.ndarray) -> list[np.ndarray]:
    """One int64 key per row of each in-range ``(n, p)`` array, comparable across arrays.

    Key order is lexicographic row order and equal rows get equal keys. Below
    ``KEY_LIMIT`` the keys are the mixed-radix point keys; above it they are
    the rows' ranks in one joint row sort, valid only for this call.
    """
    if schema.key_strides is None:
        _, ranks = np.unique(np.concatenate(arrays), axis=0, return_inverse=True)
        bounds = np.cumsum([len(a) for a in arrays])[:-1]
        return np.split(ranks.reshape(-1).astype(np.int64), bounds)
    strides = np.asarray(schema.key_strides, dtype=np.int64)
    return [a @ strides for a in arrays]


def unique_rows(schema: DomainSchema, points: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Distinct rows of an in-range ``(n, p)`` array in lexicographic order.

    Returns ``(rows, inverse)`` with ``rows[inverse]`` equal to ``points``. When
    the rows are already strictly increasing, ``rows`` is ``points`` itself and
    ``inverse`` is None.
    """
    (keys,) = point_keys(schema, points)
    if (keys[1:] > keys[:-1]).all():
        return points, None
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return points[first], inverse


def merge_rows(
    schema: DomainSchema, points: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows in lexicographic order, with the weights of equal rows summed.

    Sums run in input order, so equal inputs always merge to identical bits.
    May return the input arrays themselves when they need no merging.
    """
    rows, inverse = unique_rows(schema, points)
    if inverse is None:
        return rows, weights
    return rows, np.bincount(inverse, weights=weights, minlength=len(rows))


def _canonicalize(
    schema: DomainSchema, points: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Copy, merge duplicate rows, drop zero weights, and sort rows lexicographically."""
    p = schema.num_attributes
    points = np.array(points, dtype=np.int64)
    weights = np.array(weights, dtype=np.float64).reshape(-1)
    if points.ndim != 2 or points.shape[1] != p:
        raise ValueError(
            f"points must be an (n, {p}) array for a {p}-attribute schema, got shape {points.shape}"
        )
    if len(points) != len(weights):
        raise ValueError("points and weights length mismatch")
    if len(points) == 0:
        return points, weights
    cards = np.asarray(schema.cardinalities, dtype=np.int64)
    if (points < 0).any() or (points >= cards).any():
        raise ValueError("point coordinate out of range for schema")
    points, merged = merge_rows(schema, points, weights)
    if (merged < 0).any():
        raise ValueError("negative weight after merge; datasets are insert-only")
    keep = merged > 0
    if keep.all():
        return points, merged
    return points[keep], merged[keep]


class WeightedDataset:
    """Sparse nonnegative-weighted multiset of points from a product domain.

    Zero-weight entries are absent; rows are kept in lexicographic order so
    equal contents always produce identical array layouts. Instances are
    immutable after construction and safe to share across threads.
    """

    __slots__ = ("schema", "_points", "_weights")

    def __init__(self, schema: DomainSchema, points: np.ndarray, weights: np.ndarray):
        pts, w = _canonicalize(schema, points, weights)
        pts.flags.writeable = False
        w.flags.writeable = False
        self.schema = schema
        self._points = pts
        self._weights = w

    @classmethod
    def empty(cls, schema: DomainSchema) -> "WeightedDataset":
        return cls(schema, np.empty((0, schema.num_attributes), dtype=np.int64), np.empty(0))

    @classmethod
    def from_mapping(cls, schema: DomainSchema, mapping: Mapping[DataPoint, float]) -> "WeightedDataset":
        if not mapping:
            return cls.empty(schema)
        points = np.array([schema.validate_point(p) for p in mapping], dtype=np.int64)
        weights = np.array([float(w) for w in mapping.values()], dtype=np.float64)
        if (weights < 0).any():
            raise ValueError("weights must be nonnegative")
        return cls(schema, points, weights)

    @classmethod
    def from_rows(cls, schema: DomainSchema, rows: Iterable[Iterable[int]]) -> "WeightedDataset":
        """Build a unit-weight dataset from raw rows (duplicates accumulate)."""
        pts = np.array([tuple(r) for r in rows], dtype=np.int64)
        if pts.size == 0:
            return cls.empty(schema)
        return cls(schema, pts, np.ones(len(pts)))

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    def total_mass(self) -> float:
        return float(self._weights.sum())

    def scale(self, factor: float) -> "WeightedDataset":
        if factor < 0:
            raise ValueError("scale factor must be nonnegative")
        return WeightedDataset(self.schema, self._points, self._weights * factor)

    def as_mapping(self) -> dict[DataPoint, float]:
        return {tuple(int(v) for v in p): float(w) for p, w in zip(self._points, self._weights)}

    def items(self) -> Iterator[tuple[DataPoint, float]]:
        for p, w in zip(self._points, self._weights):
            yield tuple(int(v) for v in p), float(w)

    def __len__(self) -> int:
        return len(self._weights)

    def __repr__(self) -> str:
        return f"WeightedDataset(p={self.schema.num_attributes}, nnz={len(self)}, mass={self.total_mass():g})"


def total_mass(dataset: WeightedDataset) -> float:
    """Sum of all stored weights."""
    return dataset.total_mass()


def accumulate(prefix: WeightedDataset, delta: WeightedDataset) -> WeightedDataset:
    """Pointwise sum of two datasets; entries that cancel to zero are dropped."""
    if prefix.schema != delta.schema:
        raise ValueError("schema mismatch in accumulate")
    if len(prefix) == 0:
        return delta
    if len(delta) == 0:
        return prefix
    points = np.concatenate([prefix.points, delta.points])
    weights = np.concatenate([prefix.weights, delta.weights])
    return WeightedDataset(prefix.schema, points, weights)


def dataset_mean(datasets: list[WeightedDataset]) -> WeightedDataset:
    """Pointwise average of a nonempty list of datasets sharing one schema."""
    if not datasets:
        raise ValueError("dataset_mean of empty list")
    out = datasets[0]
    for d in datasets[1:]:
        out = accumulate(out, d)
    return out.scale(1.0 / len(datasets))


@dataclass(frozen=True)
class DatasetStream:
    """A time-indexed dataset given by its per-step differentials.

    Only insert-only streams are supported: every differential weight is
    nonnegative, so the prefix dataset at any time is the plain sum of the
    differentials up to that time.
    """

    schema: DomainSchema
    differentials: tuple[WeightedDataset, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "differentials", tuple(self.differentials))
        for i, d in enumerate(self.differentials):
            if d.schema != self.schema:
                raise ValueError(f"differential {i} does not share the stream schema")

    @property
    def num_steps(self) -> int:
        return len(self.differentials)

    def prefix(self, t: int) -> WeightedDataset:
        """The accumulated dataset after the first t differentials."""
        if not 0 <= t <= self.num_steps:
            raise ValueError(f"prefix time {t} out of range [0, {self.num_steps}]")
        out = WeightedDataset.empty(self.schema)
        for d in self.differentials[:t]:
            out = accumulate(out, d)
        return out


def stream_norm(stream: DatasetStream) -> float:
    """Total absolute change over all points and times."""
    return float(sum(np.abs(d.weights).sum() for d in stream.differentials))


def stream_difference_norm(a: DatasetStream, b: DatasetStream) -> float:
    """Total-change norm of the (signed) difference of two streams.

    Two streams are neighbors exactly when this norm equals 1. The signed
    differences are never materialized as datasets, which keeps the
    insert-only invariant intact.
    """
    if a.schema != b.schema:
        raise ValueError("schema mismatch in stream_difference_norm")
    total = 0.0
    steps = max(a.num_steps, b.num_steps)
    empty = WeightedDataset.empty(a.schema)
    for t in range(steps):
        da = a.differentials[t] if t < a.num_steps else empty
        db = b.differentials[t] if t < b.num_steps else empty
        if len(da) == 0 and len(db) == 0:
            continue
        points = np.concatenate([da.points, db.points])
        signed = np.concatenate([da.weights, -db.weights])
        _, merged = merge_rows(a.schema, points, signed)
        total += float(np.abs(merged).sum())
    return total
