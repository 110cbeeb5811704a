"""Ordered, named, layered parameter container and its vector algebra.

A ParamTree is one contiguous read-only float64 vector plus a shared
static Layout: the ordered layer names and the offset and size of each
layer in the vector. Layers are slice views of the vector. Model
parameters, gradients and client deltas all live in this shape, and a
stack of L congruent trees is an (L, P) matrix whose rows share the
layout. Trees are immutable values: every operation returns a new tree
and the vector is marked read-only, so trees can be shared freely.

Norms are computed row-wise over such a stack: the per-layer sums of
squares are one ``np.add.reduceat`` over the squared rows, and a row's
whole-tree sum is the sum of its layer sums in layer order. A single tree
is a one-row stack, so its norms are bit for bit those of the same row in
any larger stack.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import StructureError


class Layout:
    """Layer names, sizes and offsets of a flat parameter vector."""

    __slots__ = ("names", "sizes", "starts", "slices", "index", "total")

    def __init__(self, names: tuple[str, ...], sizes: tuple[int, ...]):
        for name, size in zip(names, sizes):
            if size == 0:
                raise StructureError(f"layer {name!r} is empty")
        if len(set(names)) != len(names):
            dup = next(n for i, n in enumerate(names) if n in names[:i])
            raise StructureError(f"duplicate layer name {dup!r}")
        ends = np.cumsum(sizes, dtype=np.intp)
        self.names = names
        self.sizes = sizes
        self.starts = ends - np.asarray(sizes, dtype=np.intp)
        self.starts.flags.writeable = False
        self.slices = tuple(slice(int(e - s), int(e)) for s, e in zip(sizes, ends))
        self.index = {n: i for i, n in enumerate(names)}
        self.total = int(ends[-1]) if sizes else 0

    @staticmethod
    @lru_cache(maxsize=256)
    def of(names: tuple[str, ...], sizes: tuple[int, ...]) -> "Layout":
        """The shared layout for these names and sizes."""
        return Layout(names, sizes)


def _frozen_vector(values) -> bool:
    return (
        isinstance(values, np.ndarray)
        and values.dtype == np.float64
        and values.ndim == 1
        and not values.flags.writeable
    )


class ParamTree:
    """Immutable ordered mapping of layer name -> flat float64 vector.

    Build one from (name, values) pairs, or as ``ParamTree(flat, layout)``
    from a vector of ``layout.total`` values. A read-only float64 vector is
    shared, not copied. Layers given as read-only float64 vectors are kept
    as the tree's layer objects (equal to their slice of the flat vector),
    so a layer passed through unchanged, say by clipping, is the same
    object in both trees.
    """

    __slots__ = ("_layout", "_flat", "_arrays")

    def __init__(self, layers: Iterable[tuple[str, np.ndarray]] | np.ndarray,
                 layout: Layout | None = None):
        if layout is not None:
            flat = layers
            if not _frozen_vector(flat):
                flat = np.array(flat, dtype=np.float64, copy=True)
                flat.flags.writeable = False
            if flat.ndim != 1 or flat.size != layout.total:
                raise StructureError(
                    f"flat vector of shape {flat.shape} does not match a "
                    f"layout of {layout.total} values"
                )
            arrays = tuple(flat[s] for s in layout.slices)
        else:
            names: list[str] = []
            given: list[np.ndarray] = []
            for name, values in layers:
                arr = values if _frozen_vector(values) else np.asarray(
                    values, dtype=np.float64).reshape(-1)
                names.append(str(name))
                given.append(arr)
            layout = Layout.of(tuple(names), tuple(a.size for a in given))
            flat = np.concatenate(given) if given else np.zeros(0)
            flat.flags.writeable = False
            arrays = tuple(
                a if _frozen_vector(a) else flat[s]
                for a, s in zip(given, layout.slices)
            )
        self._layout = layout
        self._flat = flat
        self._arrays = arrays

    @property
    def layout(self) -> Layout:
        return self._layout

    @property
    def flat(self) -> np.ndarray:
        """The whole tree as one read-only vector, in layer order."""
        return self._flat

    @property
    def names(self) -> tuple[str, ...]:
        return self._layout.names

    @property
    def dims(self) -> tuple[int, ...]:
        return self._layout.sizes

    @property
    def total_size(self) -> int:
        return self._layout.total

    def __len__(self) -> int:
        return len(self._layout.names)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[self._layout.index[name]]

    def __contains__(self, name: str) -> bool:
        return name in self._layout.index

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(zip(self._layout.names, self._arrays))

    def arrays(self) -> tuple[np.ndarray, ...]:
        return self._arrays

    def replace(self, arrays: Iterable[np.ndarray]) -> "ParamTree":
        """New tree with this tree's names and the given per-layer vectors."""
        return ParamTree(zip(self._layout.names, arrays))

    def with_flat(self, flat: np.ndarray) -> "ParamTree":
        """New tree with this tree's layout and the given flat vector."""
        return ParamTree(flat, self._layout)

    def congruent_with(self, other: "ParamTree") -> bool:
        return self._layout is other._layout or (
            self.names == other.names and self.dims == other.dims
        )

    def require_congruent(self, other: "ParamTree") -> None:
        """Raise StructureError naming the first mismatching layer."""
        if self.congruent_with(other):
            return
        if self.names != other.names:
            for i, (a, b) in enumerate(zip(self.names, other.names)):
                if a != b:
                    raise StructureError(
                        f"layer {i} name mismatch: {a!r} vs {b!r}"
                    )
            raise StructureError(
                f"layer count mismatch: {len(self)} vs {len(other)}"
            )
        for name, a, b in zip(self.names, self.dims, other.dims):
            if a != b:
                raise StructureError(f"layer {name!r} dim mismatch: {a} vs {b}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParamTree):
            return NotImplemented
        return self.names == other.names and self.dims == other.dims and (
            np.array_equal(self._flat, other._flat)
        )

    def __repr__(self) -> str:
        spec = ", ".join(f"{n}[{s}]" for n, s in zip(self.names, self.dims))
        return f"ParamTree({spec})"

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "layers": [
                {"name": n, "values": a.tolist()} for n, a in self.items()
            ]
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "ParamTree":
        try:
            layers = obj["layers"]
        except (KeyError, TypeError) as exc:
            raise StructureError("expected object with a 'layers' list") from exc
        return cls((layer["name"], layer["values"]) for layer in layers)

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json(cls, text: str) -> "ParamTree":
        return cls.from_json_obj(json.loads(text))


# -- row-wise norms ----------------------------------------------------------


# A sum of squares below this may have lost bits to underflow (squares of
# entries under ~1e-154 are subnormal or zero); above the float range it
# overflowed. Only then is the norm recomputed on rescaled entries, so norms
# of ordinary vectors are the plain sqrt of the sum of squares, bit for bit.
_SUM_SQ_MIN = 1e-290


def _needs_rescue(sum_sq: np.ndarray) -> np.ndarray:
    return ~((sum_sq >= _SUM_SQ_MIN) & (sum_sq < math.inf))


def _rescaled_norm(values: np.ndarray, sum_sq: float) -> float:
    """Norm of `values` from entries divided by their largest magnitude."""
    peak = float(np.max(np.abs(values)))
    if peak == 0.0 or not math.isfinite(peak):
        return float(np.sqrt(sum_sq))
    scaled = values / peak
    return peak * float(np.sqrt(np.dot(scaled, scaled)))


def _layer_sum_sq(rows: np.ndarray, layout: Layout) -> np.ndarray:
    return np.add.reduceat(rows * rows, layout.starts, axis=1)


def layer_norm_rows(rows: np.ndarray, layout: Layout) -> np.ndarray:
    """(L, K) per-layer L2 norms of the L rows of an (L, P) stack."""
    sum_sq = _layer_sum_sq(rows, layout)
    norms = np.sqrt(sum_sq)
    for i, k in zip(*np.nonzero(_needs_rescue(sum_sq))):
        norms[i, k] = _rescaled_norm(rows[i, layout.slices[k]], sum_sq[i, k])
    return norms


def global_norm_rows(rows: np.ndarray, layout: Layout) -> np.ndarray:
    """(L,) whole-row L2 norms of an (L, P) stack."""
    layer_sq = _layer_sum_sq(rows, layout)
    sum_sq = layer_sq[:, 0].copy()
    for k in range(1, layer_sq.shape[1]):
        sum_sq += layer_sq[:, k]
    norms = np.sqrt(sum_sq)
    for i in np.nonzero(_needs_rescue(sum_sq))[0]:
        norms[i] = _rescaled_norm(rows[i], sum_sq[i])
    return norms


def mean_rows(rows: Sequence[np.ndarray]) -> np.ndarray:
    """Arithmetic mean of equal-length vectors, summed in sequence order."""
    acc = np.array(rows[0], dtype=np.float64, copy=True)
    for row in rows[1:]:
        acc += row
    return acc / float(len(rows))


# -- algebra ---------------------------------------------------------------


def global_norm(tree: ParamTree) -> float:
    """L2 norm of the whole tree viewed as one flat vector."""
    return float(global_norm_rows(tree.flat[None, :], tree.layout)[0])


def layer_norms(tree: ParamTree) -> dict[str, float]:
    """Per-layer L2 norms, in layer order."""
    norms = layer_norm_rows(tree.flat[None, :], tree.layout)[0]
    return {n: float(v) for n, v in zip(tree.names, norms)}


def axpy(alpha: float, x: ParamTree, y: ParamTree) -> ParamTree:
    """alpha * x + y for congruent trees."""
    x.require_congruent(y)
    return x.with_flat(alpha * x.flat + y.flat)


def add(x: ParamTree, y: ParamTree) -> ParamTree:
    x.require_congruent(y)
    return x.with_flat(x.flat + y.flat)


def sub(x: ParamTree, y: ParamTree) -> ParamTree:
    """x - y for congruent trees."""
    x.require_congruent(y)
    return x.with_flat(x.flat - y.flat)


def scale(alpha: float, x: ParamTree) -> ParamTree:
    return x.with_flat(alpha * x.flat)


def zeros_like(x: ParamTree) -> ParamTree:
    return x.with_flat(np.zeros(x.total_size))


def tree_mean(trees: list[ParamTree]) -> ParamTree:
    """Arithmetic mean, reduced in list order."""
    if not trees:
        raise StructureError("cannot average an empty list of trees")
    for t in trees[1:]:
        trees[0].require_congruent(t)
    return trees[0].with_flat(mean_rows([t.flat for t in trees]))
