"""Finite product domains, sparse weighted datasets, and insert-only dataset streams."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import islice
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

DataPoint = tuple[int, ...]

# Domains with at least this many points get no int64 point keys.
KEY_LIMIT = 2**63


def checked_int(value: object, minimum: int, rule: str) -> int:
    """``value`` as an ``int`` when it is a Python or numpy integer, not a bool, of at least
    ``minimum``; otherwise a ValueError ``"{rule}, got {value!r}"``, whose ``rule`` names the setting."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{rule}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class DomainSchema:
    """Ordered categorical attributes spanning a finite product domain.

    Each attribute is a (name, cardinality) pair; attribute order defines the
    point coordinate order and is fixed for the lifetime of a run.
    """

    attributes: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        attrs = []
        for i, (name, card) in enumerate(self.attributes):
            if not isinstance(name, str) or not name:
                raise ValueError(f"attribute {i} name must be a nonempty string, got {name!r}")
            rule = f"attribute {name!r} cardinality must be an integer >= 1"
            attrs.append((str(name), checked_int(card, 1, rule)))
        object.__setattr__(self, "attributes", tuple(attrs))
        if len(attrs) < 1:
            raise ValueError("schema needs at least one attribute")
        names = [n for n, _ in attrs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate attribute names: {names}")

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
    def key_strides(self) -> np.ndarray | None:
        """Mixed-radix strides, last attribute fastest, as a read-only int64 array; None when
        ``size >= KEY_LIMIT``.

        ``points @ key_strides`` maps each in-range row to a distinct int64 key,
        and key order is lexicographic row order.
        """
        if self.size >= KEY_LIMIT:
            return None
        strides = [1]
        for c in reversed(self.cardinalities[1:]):
            strides.append(strides[-1] * c)
        out = np.array(strides[::-1], dtype=np.int64)
        out.flags.writeable = False
        return out

    @cached_property
    def _hash(self) -> int:
        return hash((self.attributes,))

    def __hash__(self) -> int:
        # workloads and supports key dicts by schema; hash the attribute tuple once
        return self._hash

    def __reduce__(self):
        # rebuilt from its fields: a cached string hash is only valid in the process that made it
        return type(self), (self.attributes,)


def row_keys(schema: DomainSchema, points: np.ndarray) -> np.ndarray:
    """One key per row of an in-range ``(n, p)`` array, ordered as the rows are lexicographically
    and equal for equal rows, in any array keyed alike: the int64 point keys, or, when the schema
    has none, the rows themselves as a 1-D C-contiguous array of p int64 fields, which sorting,
    ``np.unique``, ``np.searchsorted`` and ``==`` compare field by field."""
    strides = schema.key_strides
    if strides is not None:
        return points @ strides
    fields = np.dtype([(f"f{i}", np.int64) for i in range(points.shape[1])])
    return np.ascontiguousarray(points, dtype=np.int64).view(fields).reshape(-1)


def lookup_keys(keys: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Binary search of ``queries`` in the nonempty, sorted, distinct ``keys`` of ``row_keys``.

    Returns ``(pos, found)``: each query's insertion position in ``keys``, which is its position
    where ``found`` is True, and the mask of the queries ``keys`` holds."""
    pos = np.searchsorted(keys, queries)
    return pos, keys[pos.clip(max=len(keys) - 1)] == queries


def merge_rows(
    schema: DomainSchema, points: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of an in-range ``(n, p)`` array in lexicographic order, with the
    weights of equal rows summed.

    Sums run in input order, so equal inputs always merge to identical bits.
    """
    _, first, inverse = np.unique(row_keys(schema, points), return_index=True, return_inverse=True)
    return points[first], np.bincount(inverse, weights=weights, minlength=len(first))


def _checked_points(
    schema: DomainSchema, points: np.ndarray, order: str = "C", exact: bool = False
) -> np.ndarray:
    """An int64 copy of ``points`` in ``order``; ValueError unless ``points`` is an empty list or
    tuple (zero rows) or an ``(n, p)`` array of in-range integers of an integer dtype (not bool).
    With ``exact``, ``points`` are Python rows: a bool among them is rejected, and rows of Python or
    numpy integers are read as their exact values, whatever dtype numpy would promote them to."""
    array = np.asarray(points)
    p = schema.num_attributes
    integer = np.issubdtype(array.dtype, np.integer)
    if isinstance(points, (list, tuple)) and not points:
        array, integer = np.empty((0, p), dtype=np.int64), True
    elif exact:
        given = np.array(points, dtype=object)  # each coordinate as given, before numpy promotes it
        types = set(map(type, given.flat))
        if types & {bool, np.bool_}:
            raise ValueError("point coordinates must be integers, got a bool")
        if not integer and all(issubclass(t, (int, np.integer)) for t in types):
            array, integer = np.frompyfunc(int, 1, 1)(given), True
    if not integer:
        raise ValueError(f"point coordinates must be integers, got dtype {array.dtype}")
    if array.ndim != 2 or array.shape[1] != p:
        raise ValueError(
            f"points must be an (n, {p}) array for a {p}-attribute schema, got shape {array.shape}"
        )
    outside = (array < 0) | (array >= np.asarray(schema.cardinalities, dtype=np.int64))
    if outside.any():
        row, column = np.argwhere(outside)[0]
        name, card = schema.attributes[column]
        raise ValueError(
            f"point coordinate out of range for schema: value {array[row, column]} for attribute "
            f"{name!r} is outside [0, {card})"
        )
    return array.astype(np.int64, order=order, copy=isinstance(points, np.ndarray))


def _canonicalize(
    schema: DomainSchema, rows: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Check, copy, merge duplicate rows, drop zero weights, and sort rows lexicographically.

    The points come back column-major (F-contiguous).
    """
    points = _checked_points(schema, rows, order="F", exact=not isinstance(rows, np.ndarray))
    weights = np.array(weights, dtype=np.float64).reshape(-1)
    if len(points) != len(weights):
        raise ValueError("points and weights length mismatch")
    if not np.isfinite(weights).all():
        raise ValueError("weights must be finite")
    if len(points) == 0:
        return points, weights
    points, merged = merge_rows(schema, points, weights)
    if (merged < 0).any():
        raise ValueError("negative weight after merge; datasets are insert-only")
    keep = merged > 0
    if not keep.all():
        points, merged = points[keep], merged[keep]
    return np.asfortranarray(points), merged


class WeightedDataset:
    """Sparse nonnegative-weighted multiset of points from a product domain.

    Zero-weight entries are absent; rows are kept in lexicographic order so
    equal contents always produce identical arrays. Points are stored
    column-major (F-contiguous), so reading a few columns of every point is a
    contiguous scan. Instances are immutable after construction and safe to
    share across threads, so values derived from the contents alone are computed
    once and kept in ``memo``: ``eval_workload`` keys its vectors by workload,
    ``total_mass`` its sum by ``"total_mass"``, ``accumulate`` the ``row_keys``
    of its sums by ``"keys"``. A stored value is never None and never written to: a
    read-only array or an immutable value.

    ``support_cells`` is None, or, on a release built on all of a working
    support's points, the ``cells`` lookup of the run's ``WorkloadCover`` on
    those points: the read-only cell index of every point per workload, from
    which ``eval_workload`` sums. Copies and pickles leave it behind.
    """

    __slots__ = ("schema", "_points", "_weights", "memo", "support_cells")

    def __init__(self, schema: DomainSchema, points: np.ndarray, weights: np.ndarray):
        self._hold(schema, *_canonicalize(schema, points, weights))

    def _hold(self, schema: DomainSchema, points: np.ndarray, weights: np.ndarray) -> None:
        """Store ``points`` and ``weights`` as given, made read-only, with an empty memo."""
        points.flags.writeable = False
        weights.flags.writeable = False
        self.schema, self._points, self._weights, self.memo = schema, points, weights, {}
        self.support_cells: Callable[..., np.ndarray] | None = None

    @classmethod
    def _from_sorted(cls, schema: DomainSchema, points: np.ndarray, weights: np.ndarray) -> "WeightedDataset":
        """The dataset storing ``points`` and ``weights`` as given, made read-only; nothing is checked,
        so only the package calls it and ``WeightedDataset(...)`` is the public route. ``points`` must be an F-contiguous int64 ``(n, p)`` array of canonical rows (in range, strictly
        increasing), such as ``WorkingSupport.points``, and ``weights`` one positive float64 per row."""
        out = cls.__new__(cls)
        out._hold(schema, points, weights)
        return out

    def __reduce__(self):
        # unpickled arrays come back writeable, so the copy is rebuilt read-only; the memo and
        # support_cells stay here
        return type(self)._from_sorted, (self.schema, self._points, self._weights)

    @classmethod
    def empty(cls, schema: DomainSchema) -> "WeightedDataset":
        return cls(schema, [], [])

    @classmethod
    def from_mapping(cls, schema: DomainSchema, mapping: Mapping[DataPoint, float]) -> "WeightedDataset":
        """``WeightedDataset(...)`` of the mapping's points and their weights."""
        return cls(schema, list(mapping), list(mapping.values()))

    @classmethod
    def from_rows(cls, schema: DomainSchema, rows: Iterable[Iterable[int]]) -> "WeightedDataset":
        """The one step of ``step_datasets`` over raw rows (duplicates accumulate), read exactly
        as ``WeightedDataset(...)`` reads Python rows."""
        rows = [tuple(r) if hasattr(r, "__iter__") else r for r in rows]  # a scalar row is left for the check
        return step_datasets(schema, rows, np.zeros(len(rows), dtype=np.int64), 1, exact=True)[0]

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    def total_mass(self) -> float:
        memo = self.memo
        mass = memo.get("total_mass")
        if mass is None:
            mass = memo["total_mass"] = float(self._weights.sum())
        return mass

    def as_mapping(self) -> dict[DataPoint, float]:
        return dict(self.items())

    def items(self) -> Iterator[tuple[DataPoint, float]]:
        for p, w in zip(self._points, self._weights):
            yield tuple(int(v) for v in p), float(w)

    def __len__(self) -> int:
        return len(self._weights)

    def __repr__(self) -> str:
        return f"WeightedDataset(p={self.schema.num_attributes}, nnz={len(self)}, mass={self.total_mass():g})"


def step_datasets(
    schema: DomainSchema, rows: list[Iterable[int]], steps: np.ndarray, num_steps: int, exact: bool = False
) -> list[WeightedDataset]:
    """The unit-weight dataset of the rows of each step in ``range(num_steps)``, built in one
    sorted pass; ``steps[i]``, in that range, is the step of ``rows[i]``.

    The rows are converted and checked together as one array, with the errors of
    ``WeightedDataset(...)``, then sorted by (step, point); equal rows of a step merge into
    their count, and each step's dataset is a slice of the result. A step without rows, as
    every step of ``[]``, gets an empty dataset. Unless ``exact``, as ``from_rows`` sets it, it
    does not read Python rows exactly, so a bool among ints reads as an integer: callers give it ints.
    """
    points = _checked_points(schema, rows, exact=exact)
    keys = row_keys(schema, points)
    order = np.lexsort((keys, steps))
    keys, steps = keys[order], steps[order]
    first = np.ones(len(order), dtype=bool)  # where a run of equal (step, point) pairs starts
    first[1:] = (keys[1:] != keys[:-1]) | (steps[1:] != steps[:-1])
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=len(order)).astype(np.float64)
    distinct = points[order[starts]]
    bounds = np.searchsorted(steps[starts], np.arange(num_steps + 1)).tolist()
    return [
        WeightedDataset._from_sorted(schema, np.asfortranarray(distinct[a:b]), counts[a:b])
        for a, b in zip(bounds, bounds[1:])
    ]


def nonzero_mass(weights: np.ndarray) -> float:
    """``WeightedDataset.total_mass`` of the dataset that stores the nonzero entries of ``weights``.

    Zeros are left out of the sum, not added: numpy's pairwise sum groups its
    terms by position, so extra zeros could change the rounding.
    """
    nonzero = weights != 0
    return float((weights if nonzero.all() else weights[nonzero]).sum())


def accumulate(prefix: WeightedDataset, delta: WeightedDataset) -> WeightedDataset:
    """Pointwise sum of two datasets by a sorted merge: a shared point gets ``prefix + delta``,
    the bits of ``WeightedDataset`` over the concatenated entries (whose ``bincount`` adds
    ``0.0 + prefix + delta``). Rows new to ``prefix`` are inserted column by column into an
    F-contiguous union, whose ``row_keys`` the sum's ``memo`` keeps."""
    if prefix.schema != delta.schema:
        raise ValueError("schema mismatch in accumulate")
    if len(prefix) == 0:
        return delta
    if len(delta) == 0:
        return prefix
    schema, memo, points = prefix.schema, prefix.memo, prefix.points
    keys = memo["keys"] if "keys" in memo else row_keys(schema, points)
    new_keys = row_keys(schema, delta.points)
    at, held = lookup_keys(keys, new_keys)
    kept = ...  # every position of the union, when it is the prefix's points
    if not held.all():
        fresh = ~held
        at += np.cumsum(fresh) - fresh  # delta is sorted: its fresh rows before a row land before it
        added = at[fresh]
        kept = np.ones(len(keys) + len(added), dtype=bool)
        kept[added] = False
        fresh_points = delta.points[fresh]
        points = np.empty((len(kept), points.shape[1]), dtype=np.int64, order="F")
        for j in range(points.shape[1]):  # column by column: contiguous on both sides
            column = points[:, j]
            column[kept], column[added] = prefix.points[:, j], fresh_points[:, j]
        union_keys = np.empty(len(kept), dtype=keys.dtype)
        union_keys[kept], union_keys[added] = keys, new_keys[fresh]
        keys = union_keys
    weights = np.zeros(len(points))
    weights[kept] = prefix.weights
    weights[at] += delta.weights  # weights are positive, so no sum cancels to zero
    out = WeightedDataset._from_sorted(schema, points, weights)
    keys.flags.writeable = False  # kept for the next accumulate onto this sum
    out.memo["keys"] = keys
    return out


def dataset_mean(datasets: list[WeightedDataset]) -> WeightedDataset:
    """Pointwise average of a nonempty list of datasets sharing one schema."""
    if not datasets:
        raise ValueError("dataset_mean of empty list")
    out = reduce(accumulate, datasets)
    return WeightedDataset(out.schema, out.points, out.weights * (1.0 / len(datasets)))


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

    def prefixes(self) -> Iterator[WeightedDataset]:
        """The accumulated dataset after each differential in turn: ``accumulate`` folded over
        them from the empty dataset, one call per step. Only the latest prefix is held."""
        prefix = WeightedDataset.empty(self.schema)
        for delta in self.differentials:
            prefix = accumulate(prefix, delta)
            yield prefix

    def prefix(self, t: int) -> WeightedDataset:
        """The accumulated dataset after the first t differentials: item t of ``prefixes()``,
        or the empty dataset at t = 0."""
        rule = f"prefix time must be an integer in [0, {self.num_steps}]"
        steps = checked_int(t, 0, rule)
        if steps > self.num_steps:
            raise ValueError(f"{rule}, got {t!r}")
        return next(islice(self.prefixes(), steps - 1, None)) if steps else WeightedDataset.empty(self.schema)


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
        points = np.concatenate([da.points, db.points])
        signed = np.concatenate([da.weights, -db.weights])
        _, merged = merge_rows(a.schema, points, signed)
        total += float(np.abs(merged).sum())
    return total
