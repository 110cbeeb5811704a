"""Ordered, named, layered parameter container and its vector algebra.

A ParamTree is an ordered collection of named flat float64 vectors
("layers"). Model parameters, gradients and client deltas all live in this
shape. Trees are immutable values: every operation returns a new tree and
the underlying arrays are marked read-only, so trees can be shared freely
across threads.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import StructureError


class ParamTree:
    """Immutable ordered mapping of layer name -> flat float64 vector."""

    __slots__ = ("_names", "_arrays", "_index")

    def __init__(self, layers: Iterable[tuple[str, np.ndarray]]):
        names: list[str] = []
        arrays: list[np.ndarray] = []
        for name, values in layers:
            if (
                isinstance(values, np.ndarray)
                and values.dtype == np.float64
                and values.ndim == 1
                and not values.flags.writeable
            ):
                arr = values  # already immutable; share it
            else:
                arr = np.array(values, dtype=np.float64, copy=True).reshape(-1)
                arr.flags.writeable = False
            if arr.size == 0:
                raise StructureError(f"layer {name!r} is empty")
            names.append(str(name))
            arrays.append(arr)
        if len(set(names)) != len(names):
            dup = next(n for i, n in enumerate(names) if n in names[:i])
            raise StructureError(f"duplicate layer name {dup!r}")
        self._names = tuple(names)
        self._arrays = tuple(arrays)
        self._index = {n: i for i, n in enumerate(names)}

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(a.size for a in self._arrays)

    @property
    def total_size(self) -> int:
        return sum(a.size for a in self._arrays)

    def __len__(self) -> int:
        return len(self._names)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[self._index[name]]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(zip(self._names, self._arrays))

    def arrays(self) -> tuple[np.ndarray, ...]:
        return self._arrays

    def replace(self, arrays: Iterable[np.ndarray]) -> "ParamTree":
        """New tree with this tree's names and the given per-layer vectors."""
        return ParamTree(zip(self._names, arrays))

    def congruent_with(self, other: "ParamTree") -> bool:
        return self._names == other._names and self.dims == other.dims

    def require_congruent(self, other: "ParamTree") -> None:
        """Raise StructureError naming the first mismatching layer."""
        if self._names != other._names:
            for i, (a, b) in enumerate(zip(self._names, other._names)):
                if a != b:
                    raise StructureError(
                        f"layer {i} name mismatch: {a!r} vs {b!r}"
                    )
            raise StructureError(
                f"layer count mismatch: {len(self._names)} vs {len(other._names)}"
            )
        for name, a, b in zip(self._names, self._arrays, other._arrays):
            if a.size != b.size:
                raise StructureError(
                    f"layer {name!r} dim mismatch: {a.size} vs {b.size}"
                )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParamTree):
            return NotImplemented
        return self._names == other._names and all(
            np.array_equal(a, b) for a, b in zip(self._arrays, other._arrays)
        )

    def __repr__(self) -> str:
        spec = ", ".join(f"{n}[{a.size}]" for n, a in self.items())
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


# -- algebra ---------------------------------------------------------------


# A sum of squares below this may have lost bits to underflow (squares of
# entries under ~1e-154 are subnormal or zero); above the float range it
# overflowed. Only then is the norm recomputed on rescaled entries, so norms
# of ordinary vectors are the plain sqrt(x . x), bit for bit.
_SUM_SQ_MIN = 1e-290


def _norm(sum_sq: float, arrays: tuple[np.ndarray, ...]) -> float:
    """L2 norm of the concatenation of `arrays`, whose sum of squares is sum_sq."""
    if _SUM_SQ_MIN <= sum_sq < math.inf:
        return float(np.sqrt(sum_sq))
    peak = max(float(np.max(np.abs(a))) for a in arrays)
    if peak == 0.0 or not math.isfinite(peak):
        return float(np.sqrt(sum_sq))
    scaled = sum(float(np.dot(a / peak, a / peak)) for a in arrays)
    return peak * float(np.sqrt(scaled))


def vector_norm(arr: np.ndarray) -> float:
    """L2 norm of one flat vector."""
    return _norm(float(np.dot(arr, arr)), (arr,))


def global_norm(tree: ParamTree) -> float:
    """L2 norm of the whole tree viewed as one flat vector."""
    arrays = tree.arrays()
    return _norm(sum(float(np.dot(a, a)) for a in arrays), arrays)


def layer_norms(tree: ParamTree) -> dict[str, float]:
    """Per-layer L2 norms, in layer order."""
    return {n: vector_norm(a) for n, a in tree.items()}


def axpy(alpha: float, x: ParamTree, y: ParamTree) -> ParamTree:
    """alpha * x + y for congruent trees."""
    x.require_congruent(y)
    return x.replace(alpha * a + b for a, b in zip(x.arrays(), y.arrays()))


def add(x: ParamTree, y: ParamTree) -> ParamTree:
    x.require_congruent(y)
    return x.replace(a + b for a, b in zip(x.arrays(), y.arrays()))


def sub(x: ParamTree, y: ParamTree) -> ParamTree:
    """x - y for congruent trees."""
    x.require_congruent(y)
    return x.replace(a - b for a, b in zip(x.arrays(), y.arrays()))


def scale(alpha: float, x: ParamTree) -> ParamTree:
    return x.replace(alpha * a for a in x.arrays())


def zeros_like(x: ParamTree) -> ParamTree:
    return x.replace(np.zeros(a.size) for a in x.arrays())


def tree_mean(trees: list[ParamTree]) -> ParamTree:
    """Arithmetic mean, reduced in list order."""
    if not trees:
        raise StructureError("cannot average an empty list of trees")
    acc = [np.array(a, copy=True) for a in trees[0].arrays()]
    for t in trees[1:]:
        trees[0].require_congruent(t)
        for buf, a in zip(acc, t.arrays()):
            buf += a
    k = float(len(trees))
    return trees[0].replace(buf / k for buf in acc)
