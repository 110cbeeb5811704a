"""Ordered, named, layered parameter container and row-wise norms.

A ParamTree is one contiguous read-only float64 vector plus a shared
static Layout: the ordered layer names and the offset and size of each
layer in the vector. Layers are read-only slice views of the vector, and
``Layout.require_same`` is the one check that two layouts line up. Inside the
library all arithmetic acts on flat vectors, and a stack of L congruent
vectors (a cohort's client deltas) is an (L, P) matrix whose rows share the
layout. A tree only carries a vector with its layout at a run's two
edges: the initial and seed models going in, the final parameters and
their JSON coming out. Trees are immutable values: the vector is marked
read-only, so trees can be shared freely.

``norm_rows`` computes a stack's per-layer and whole-row norms together,
from one sum of squares: the per-layer sums are one ``np.add.reduceat``
over the squared rows, and a row's whole-vector sum is the sum of its
layer sums in layer order. A single vector is a one-row stack, so its
norms are bit for bit those of the same row in any larger stack.
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

    def require_same(self, other: "Layout") -> None:
        """Raise StructureError naming the first layer that differs."""
        if self is other or (self.names == other.names and self.sizes == other.sizes):
            return
        for i, (a, b) in enumerate(zip(self.names, other.names)):
            if a != b:
                raise StructureError(f"layer {i} name mismatch: {a!r} vs {b!r}")
        if len(self.names) != len(other.names):
            shared = min(len(self.names), len(other.names))
            unmatched = max(self.names, other.names, key=len)[shared]
            raise StructureError(
                f"layer count mismatch: {len(self.names)} vs {len(other.names)}"
                f" (first unmatched layer {unmatched!r})"
            )
        for name, a, b in zip(self.names, self.sizes, other.sizes):
            if a != b:
                raise StructureError(f"layer {name!r} dim mismatch: {a} vs {b}")


def _frozen_vector(values) -> bool:
    return (
        isinstance(values, np.ndarray)
        and values.dtype == np.float64
        and values.ndim == 1
        and not values.flags.writeable
    )


class ParamTree:
    """Immutable ordered mapping of layer name -> flat float64 vector.

    A tree is one read-only float64 vector, ``flat``, plus its ``layout``.
    Build one from (name, values) pairs, or as ``ParamTree(flat, layout)``
    from a vector of ``layout.total`` values; a read-only float64 vector is
    shared, not copied. A layer is a read-only view of its slice of ``flat``.
    """

    __slots__ = ("layout", "flat")

    def __init__(self, layers: Iterable[tuple[str, np.ndarray]] | np.ndarray,
                 layout: Layout | None = None):
        if layout is None:
            names: list[str] = []
            given: list[np.ndarray] = []
            for name, values in layers:
                names.append(str(name))
                given.append(np.asarray(values, dtype=np.float64).reshape(-1))
            layout = Layout.of(tuple(names), tuple(a.size for a in given))
            flat = np.concatenate(given) if given else np.zeros(0)
        else:
            flat = layers if _frozen_vector(layers) else np.array(
                layers, dtype=np.float64, copy=True)
            if flat.ndim != 1 or flat.size != layout.total:
                raise StructureError(
                    f"flat vector of shape {flat.shape} does not match a "
                    f"layout of {layout.total} values"
                )
        flat.flags.writeable = False
        self.layout = layout
        self.flat = flat

    @property
    def names(self) -> tuple[str, ...]:
        return self.layout.names

    def __getitem__(self, name: str) -> np.ndarray:
        return self.flat[self.layout.slices[self.layout.index[name]]]

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        return zip(self.layout.names, (self.flat[s] for s in self.layout.slices))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParamTree):
            return NotImplemented
        return (self.names == other.names
                and self.layout.sizes == other.layout.sizes
                and np.array_equal(self.flat, other.flat))

    def __repr__(self) -> str:
        spec = ", ".join(f"{n}[{s}]" for n, s in zip(self.names, self.layout.sizes))
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
        layers = obj.get("layers") if isinstance(obj, Mapping) else None
        if not isinstance(layers, list):
            raise StructureError("expected an object with a 'layers' list")
        pairs = []
        for i, layer in enumerate(layers):
            if not (isinstance(layer, Mapping) and isinstance(layer.get("name"), str)
                    and isinstance(layer.get("values"), list)
                    and all(type(v) in (int, float) for v in layer["values"])):
                raise StructureError(
                    f"layer {i}: expected a 'name' string and a list of number 'values'")
            try:
                values = np.array(layer["values"], dtype=np.float64)
                finite = bool(np.isfinite(values).all())
            except OverflowError:  # an integer beyond the float64 range
                finite = False
            if not finite:
                raise StructureError(
                    f"layer {i}: values must be finite numbers in the float64 range")
            pairs.append((layer["name"], values))
        return cls(pairs)

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


def norm_rows(rows: np.ndarray, layout: Layout) -> tuple[np.ndarray, np.ndarray]:
    """(L, K) per-layer and (L,) whole-row L2 norms of an (L, P) stack."""
    layer_sq = np.add.reduceat(rows * rows, layout.starts, axis=1)
    row_sq = layer_sq[:, 0].copy()
    for k in range(1, layer_sq.shape[1]):
        row_sq += layer_sq[:, k]
    layer_norms, row_norms = np.sqrt(layer_sq), np.sqrt(row_sq)
    for i, k in zip(*np.nonzero(_needs_rescue(layer_sq))):
        layer_norms[i, k] = _rescaled_norm(rows[i, layout.slices[k]], layer_sq[i, k])
    for i in np.nonzero(_needs_rescue(row_sq))[0]:
        row_norms[i] = _rescaled_norm(rows[i], row_sq[i])
    return layer_norms, row_norms


def mean_rows(rows: Sequence[np.ndarray]) -> np.ndarray:
    """Arithmetic mean of equal-length vectors, summed in sequence order."""
    acc = np.array(rows[0], dtype=np.float64, copy=True)
    for row in rows[1:]:
        acc += row
    return acc / float(len(rows))
