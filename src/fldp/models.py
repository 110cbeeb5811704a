"""Small differentiable classifiers with named parameter groups.

Three model kinds, all trained with mean cross-entropy over a batch:

* ``linear_softmax``: logits = x W^T + b.
* ``mlp_layernorm``: linear -> LayerNorm -> tanh -> linear.
* ``tiny_attention``: one pre-LayerNorm transformer block (single-head
  attention, tanh MLP), mean-pooled over positions, linear head. Its
  parameter groups are named wqkv, wf, ln1, w1, w2, ln2 plus input/output
  projections, so per-layer telemetry buckets match the usual transformer
  group names.

``_layers`` is the one statement of each kind's parameters: every layer's
name, per-client shape and fan-in, in layout order. ``ModelSpec.layout``,
``init_params`` and the kernels' (C, *shape) views of the parameter and
gradient rows (``_views``) all read it.

Each kind has one forward/backward kernel over a cohort axis: it takes the
(C, P) parameter rows of C clients and their minibatches batch-major,
(B, C, F) or (B, C, S, F), and returns (B, C, K) logits plus a closure
mapping dL/dlogits to the (C, P) gradient rows. Two calls run the kernels:
``cohort_grad`` for training and ``evaluate`` for the probe, a cohort of
one, (B, 1, ...), whose closure it drops. Neither checks its arguments:
once per run, the caller validates the inputs' shape with
``check_inputs``, the labels' range through the data's own class count,
and the parameters' layout against ``ModelSpec.layout()``.

The kernels allocate none of their full-width intermediates, only small
per-row reductions: they write activations, LayerNorm caches, matmul
outputs, scores and the gradient rows into the arrays of a ``Workspace``,
through ``out=``. Each array is held under a name and grows to the largest
request it sees, so once a run has seen its largest cohort and the probe,
its steps and probe evaluations reuse the same memory; training and the
probe use the same names, so the memory held is the larger of the two
sets, not their sum. A workspace belongs to one caller at a time:
``engine.run_simulation`` holds one for the run. The logits a kernel
returns and the rows ``cohort_grad`` returns are workspace arrays, valid
until the next call into the same workspace; ``evaluate`` returns plain
floats. A held array keeps whatever its last user wrote, so every kernel
writes an array before it reads it; writing into a held array and writing
into a new one give the same bits.

The activations are batch-major: (B, C, n) for ``linear_softmax`` and
``mlp_layernorm``, (B, S, C, n) for ``tiny_attention``, the client axis
second to last. Three things follow, each giving the bits of a
client-first (C, B, n) stack:

* A client's rows are one strided matrix, so its products stay one BLAS
  gemm each, with the M, N and K of a client-first stack.
* The per-client vectors (biases, LayerNorm gains and biases) are copied
  into contiguous (C, n) arrays, which broadcast over the leading axes in
  contiguous runs of C·n, not in one short loop per row.
* Each client's batch sum is one ``np.add.reduce`` over the leading axis,
  which adds the rows in sequence as numpy does over a client-first
  stack's middle axes, but needs no rows-first copy of the activations.
  It goes into a contiguous (C, n) array, then into the gradient columns.

Reductions over a row's short last axis (its 4 to 16 classes, features or
scores) go through ``_sum_last`` and ``_max_last``, and each gives the bits
of the numpy reduction it stands for: ``_sum_last`` adds column slices in
numpy's own pairwise order, and ``_max_last`` chains ``np.maximum`` over
the columns. On a paper-sized cohort that is a few long ufunc loops where
numpy runs one short inner loop per row. On a small stack the one numpy
call is faster, so each helper picks its form by the number of rows; both
forms give the same bits, so the choice moves only time. (A NaN result is
NaN in both forms, but its sign may differ; numpy does not fix a NaN's
sign either.)

Gradients are hand-derived closed forms, checked in the tests against a
central-difference oracle.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import StructureError
from .param_tree import Layout, ParamTree
from .streams import generator


class ModelKind(str, Enum):
    LINEAR_SOFTMAX = "linear_softmax"
    MLP_LAYERNORM = "mlp_layernorm"
    TINY_ATTENTION = "tiny_attention"


@dataclass(frozen=True)
class ModelSpec:
    kind: ModelKind = ModelKind.LINEAR_SOFTMAX
    _: KW_ONLY
    input_dim: int
    num_classes: int
    hidden_dim: int = 0
    seq_len: int = 1
    layernorm_epsilon: float = 1e-5

    def __post_init__(self):
        if self.input_dim < 1 or self.num_classes < 2:
            raise StructureError("need input_dim >= 1 and num_classes >= 2")
        if self.kind != ModelKind.LINEAR_SOFTMAX and self.hidden_dim < 1:
            raise StructureError(f"{self.kind.value} requires hidden_dim >= 1")
        if self.kind == ModelKind.LINEAR_SOFTMAX and self.hidden_dim != 0:
            raise StructureError(
                f"hidden_dim is not for linear_softmax, got {self.hidden_dim}")
        if self.kind == ModelKind.TINY_ATTENTION and self.seq_len < 1:
            raise StructureError("tiny_attention requires seq_len >= 1")
        if self.kind != ModelKind.TINY_ATTENTION and self.seq_len != 1:
            raise StructureError(
                f"seq_len is for tiny_attention only, got {self.seq_len}")
        if (self.kind == ModelKind.LINEAR_SOFTMAX
                and self.layernorm_epsilon != ModelSpec.layernorm_epsilon):
            raise StructureError("layernorm_epsilon is not for linear_softmax, got "
                                 f"{self.layernorm_epsilon}")
        if not 0.0 < self.layernorm_epsilon < math.inf:
            raise StructureError("layernorm_epsilon must be finite and > 0, got "
                                 f"{self.layernorm_epsilon}")

    def layout(self) -> Layout:
        """The shared flat-vector layout: layer names and sizes, in tree order."""
        names, shapes, _ = zip(*_layers(self))
        return Layout.of(names, tuple(math.prod(shape) for shape in shapes))


def _layers(spec: ModelSpec) -> tuple[tuple[str, tuple[int, ...], int], ...]:
    """Each layer's name, per-client shape and fan-in, in layout order.

    A weight is (out, in), except ``wqkv``, which is (in, out); a LayerNorm
    layer is (2, n), its gains then its biases; a bias is (n,). The flat
    vector holds each layer row-major. Only weights have a fan-in; the
    others' 0 tells a two-row weight from a LayerNorm layer.
    """
    f, k, d = spec.input_dim, spec.num_classes, spec.hidden_dim
    if spec.kind == ModelKind.LINEAR_SOFTMAX:
        return (("w", (k, f), f), ("b", (k,), 0))
    if spec.kind == ModelKind.MLP_LAYERNORM:
        return (("w1", (d, f), f), ("b1", (d,), 0), ("ln", (2, d), 0),
                ("w2", (k, d), d), ("b2", (k,), 0))
    return (("win", (d, f), f), ("ln1", (2, d), 0), ("wqkv", (d, 3 * d), d),
            ("wf", (d, d), d), ("ln2", (2, d), 0), ("w1", (d, d), d),
            ("w2", (d, d), d), ("wout", (k, d), d), ("bout", (k,), 0))


@lru_cache(maxsize=64)
def _view_shapes(spec: ModelSpec) -> tuple[tuple[slice, tuple[int, ...]], ...]:
    """Each layer's columns of the rows and its view's shape, (-1, *shape); cached,
    since rebuilding them twice a kernel call cost 4% of the demo workload."""
    return tuple((span, (-1, *shape))
                 for span, (_, shape, _) in zip(spec.layout().slices, _layers(spec)))


def _views(spec: ModelSpec, rows: np.ndarray) -> list[np.ndarray]:
    """Each layer's (C, *shape) view of the (C, P) rows, in layout order."""
    return [rows[:, span].reshape(shape) for span, shape in _view_shapes(spec)]


@dataclass(frozen=True)
class Batch:
    """Inputs and labels, validated once when built."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size == 0:
            raise StructureError("batch labels must be a nonempty 1-D array")
        if inputs.shape[0] != labels.shape[0]:
            raise StructureError(
                f"batch size mismatch: {inputs.shape[0]} inputs vs "
                f"{labels.shape[0]} labels"
            )
        if np.any(labels < 0):
            raise StructureError("labels must be nonnegative class indices")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)


def init_params(spec: ModelSpec, seed: int) -> ParamTree:
    """Deterministic init in layout order: weights ~ N(0, 1/fan_in), drawn
    in turn from one stream; LayerNorm gains 1 and biases 0; biases 0."""
    rng = generator(seed, 0xA11D)
    layers = []
    for name, shape, fan_in in _layers(spec):
        if fan_in:
            values = rng.normal(size=shape) / np.sqrt(fan_in)
        else:  # a bias, or a LayerNorm layer's gains and biases
            values = np.zeros(shape)
            if len(shape) == 2:
                values[0] = 1.0
        layers.append((name, values))
    return ParamTree(layers)


def check_inputs(spec: ModelSpec, inputs: np.ndarray) -> None:
    """Raise StructureError unless the inputs have the model's shape."""
    if spec.kind == ModelKind.TINY_ATTENTION:
        want = (spec.seq_len, spec.input_dim)
        if inputs.ndim != 3 or inputs.shape[1:] != want:
            raise StructureError(
                f"tiny_attention inputs must be (batch, {want[0]}, {want[1]}),"
                f" got {inputs.shape}"
            )
    elif inputs.ndim != 2 or inputs.shape[1] != spec.input_dim:
        raise StructureError(
            f"inputs must be (batch, {spec.input_dim}), got {inputs.shape}"
        )


# Each helper's own form costs a few ufunc calls of about 1 us each (one
# or two per column), where numpy's reduction pays about 25 ns per row.
# Below these sizes the one numpy call wins, so the helpers hand it small
# stacks; both forms give the same bits, so the choice moves only time.
# Crossovers timed with timeit on a 2-vCPU x86-64 host, numpy 2.4:
# _sum_last near 400, 900 and 2000 rows at 4, 8 and 16 columns; _max_last
# near 64 and 150 rows at 4 and 8 columns.
_SUM_ROWS_PER_COLUMN = 128
_MAX_ROWS_PER_COLUMN = 16


class Workspace:
    """Scratch arrays that the kernels write their intermediates into.

    ``take(name, shape)`` hands out the first prod(shape) entries of the
    float64 array held under `name`, as a C-contiguous view of that shape;
    its values are whatever the last user left there. A request larger
    than the held array replaces it, so each array grows to the largest
    request it sees and serves every smaller one after that: the shrinking
    prefixes of an epochs cohort, cohorts of varying size and the probe's
    (probe_size, 1, ...) stack alike. A name holds one intermediate at a
    time; a kernel gives each of its live intermediates its own name.
    """

    def __init__(self):
        self.held: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        held = self.held.get(name)
        if held is None or held.size < size:
            held = self.held[name] = np.empty(size)
        return held[:size].reshape(shape)


def _rows(z: np.ndarray) -> int:
    return z.size // z.shape[-1]  # callers rule out an empty last axis first


def _sum_last(z: np.ndarray, out=None) -> np.ndarray:
    """np.add.reduce(z, axis=-1, keepdims=True, out=out), bit for bit.

    Taken over column slices in numpy's pairwise order: a sequential sum
    below 8 columns; up to 128, eight strided accumulators, numpy's fixed
    tree over them and a sequential tail; then numpy's +0.0 identity.
    """
    n = z.shape[-1]
    if (not 0 < n <= 128 or _rows(z) < _SUM_ROWS_PER_COLUMN * n
            or not z.flags.c_contiguous):
        return np.add.reduce(z, axis=-1, keepdims=True, out=out)
    col = [z[..., j : j + 1] for j in range(n)]
    if n < 8:
        # The sequence starts c0 + c1; a lone column takes the +0.0 below
        # twice, which is the same as once.
        acc = np.add(col[0], col[1] if n > 1 else 0.0, out=out)
        tail = col[2:]
    else:
        m = n - n % 8
        r = col[:8]
        for i in range(8, m, 8):
            r = [a + b for a, b in zip(r, col[i : i + 8])]
        acc = np.add((r[0] + r[1]) + (r[2] + r[3]), (r[4] + r[5]) + (r[6] + r[7]),
                     out=out)
        tail = col[m:]
    for c in tail:
        acc += c
    acc += 0.0  # where numpy starts: an all -0.0 row sums to +0.0
    return acc


def _max_last(z: np.ndarray) -> np.ndarray:
    """z.max(axis=-1, keepdims=True), bit for bit: np.maximum over columns.

    Past 8 columns numpy's max takes its columns in another order, which
    shows only in the sign of a zero maximum; it is left to numpy there.
    """
    n = z.shape[-1]
    if (not 1 < n <= 8 or _rows(z) < _MAX_ROWS_PER_COLUMN * n
            or not z.flags.c_contiguous):
        return z.max(axis=-1, keepdims=True)
    acc = np.maximum(z[..., 0:1], z[..., 1:2])
    for j in range(2, n):
        np.maximum(acc, z[..., j : j + 1], out=acc)
    return acc


def _sum_axis(z: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """np.add.reduce(z, axis, out=out) over an axis before z's last two.

    For a C-order z the bits are those of the same sum over the
    client-first stack, the client axis moved to the front. For n >= 2
    numpy keeps the last axis innermost either way, and adds the summed
    rows in sequence. A one-wide client-first stack numpy sums along its
    contiguous run, pairwise, so for n == 1 that run is copied to the end
    and summed there.
    """
    if z.shape[-1] > 1:
        return np.add.reduce(z, axis=axis, out=out)
    run = np.ascontiguousarray(np.moveaxis(z[..., 0], axis, -1))
    np.add.reduce(run, axis=-1, out=out[..., 0])
    return out


def _sum_leading(z: np.ndarray, out: np.ndarray, ws: Workspace) -> np.ndarray:
    """Each client's sum over the leading axes of (..., C, n), into out (C, n).

    The sum goes to the workspace's contiguous "sum" array and is then
    copied to `out`, which may be a strided view such as a layer's columns
    of the gradient rows: numpy reduces into a strided (C, n) view several
    times slower than into a contiguous one.
    """
    c, n = z.shape[-2:]
    lead = z.reshape(-1, c, n)
    np.copyto(out, _sum_axis(lead, 0, ws.take("sum", (c, n))))
    return out


def _softmax(z: np.ndarray, out) -> np.ndarray:
    # Max-subtraction for stability; C order, so the columns are slices.
    # out may be z itself.
    e = np.subtract(z, _max_last(z), out=out, order="C")
    np.exp(e, out=e)
    e /= _sum_last(e)
    return e


def _client_vectors(v: np.ndarray, ws: Workspace, name: str) -> np.ndarray:
    """The (C, n) per-client vectors v, a view of the parameter rows, as a
    C-contiguous array that broadcasts over the activations' leading axes
    in runs of C·n: v itself if it is one (a single client's), else its
    copy in the workspace array `name`."""
    if v.flags.c_contiguous:
        return v
    out = ws.take(name, v.shape)
    np.copyto(out, v)
    return out


def _layernorm_forward(z, gain, bias, eps, ws, name):
    # The steps of z.var, so var is bitwise z.var, on deviations that then
    # become xhat in place. The per-row mean and variance pass through the
    # array that ends as inv.
    n = z.shape[-1]
    inv = _sum_last(z, out=ws.take(name + ".inv", (*z.shape[:-1], 1)))
    inv /= n
    xhat = np.subtract(z, inv, out=ws.take(name + ".xhat", z.shape))
    out = np.multiply(xhat, xhat, out=ws.take(name + ".out", z.shape))  # squares
    _sum_last(out, out=inv)
    inv /= n
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(gain, xhat, out=out)
    out += bias
    return out, (xhat, inv)


def _layernorm_backward(dy, gain, cache, out, t, ws):
    """dL/dz, written over dy; the gain and bias gradients go to `out`.

    The gain and bias gradients, summed per client over the leading axes,
    go to out[:, 0] and out[:, 1] of `out`, the (C, 2, n) view of a
    LayerNorm layer's gradient rows. `t` is a dy-shaped scratch array.
    """
    xhat, inv = cache
    n = dy.shape[-1]
    t = np.multiply(dy, xhat, out=t)
    _sum_leading(t, out[:, 0], ws)
    _sum_leading(dy, out[:, 1], ws)
    # dz = inv * (gdy - mean(gdy) - xhat * mean(gdy * xhat)), in place.
    dz = np.multiply(gain, dy, out=dy)
    np.multiply(dz, xhat, out=t)
    m = _sum_last(t) / n
    np.multiply(xhat, m, out=t)
    dz -= _sum_last(dz) / n
    dz -= t
    np.multiply(inv, dz, out=dz)
    return dz


def _tanh_backward(t, dt):
    """(1 - t * t) * dt for t = tanh(...), written over t."""
    np.multiply(t, t, out=t)
    np.subtract(1.0, t, out=t)
    t *= dt
    return t


def _client_rows(z: np.ndarray, copy: bool = False) -> np.ndarray:
    """A C-order (..., C, n) stack as (C, rows, n): each client's rows.

    A strided view, whose matrices BLAS takes as they are; with `copy`, a
    contiguous copy, laid out as a client-first stack.
    """
    c, n = z.shape[-2:]
    rows = z.reshape(-1, c, n).swapaxes(0, 1)
    return np.ascontiguousarray(rows) if copy else rows


def _apply(a: np.ndarray, w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a (..., C, n) times the per-client matrices w (C, n, m), into out (..., C, m)."""
    # One product per client over the stacked leading axes.
    np.matmul(_client_rows(a), w, out=_client_rows(out))
    return out


def _outer(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-client sum over the leading axes of a[..., i] * b[..., j], into out (C, i, j).

    out may be a view with any strides, such as a layer's columns of the
    gradient rows. With a one-wide a or b (an input or hidden width of 1)
    BLAS takes the product as a matrix-vector one, whose sums change with
    the transposed matrix's leading dimension; so both then go through
    contiguous client-first copies, and keep the bits of a client-first
    stack whatever C is.
    """
    copy = a.shape[-1] == 1 or b.shape[-1] == 1
    return np.matmul(_client_rows(a, copy).swapaxes(1, 2), _client_rows(b, copy),
                     out=out)


def _cross_entropy(logits, labels) -> float:
    """Mean cross-entropy of the labels under softmax(logits)."""
    n = labels.shape[0]
    shifted = logits - _max_last(logits)
    lse = np.log(_sum_last(np.exp(shifted)))[:, 0]
    return float(np.mean(lse - shifted[np.arange(n), labels]))


def _cross_entropy_grad(logits, labels, count, valid, out):
    """Gradient of each client's mean cross-entropy w.r.t. its logits.

    logits are (B, C, K) and labels (B, C); `count` is the number of real
    examples per client, a scalar or (C, 1). Padding examples, where
    `valid` (B, C) is False, get a zero gradient. out is C order; it may be
    logits itself.
    """
    p = _softmax(logits, out=out)
    k = p.shape[-1]
    p.reshape(-1)[np.arange(0, p.size, k) + labels.ravel()] -= 1.0
    p /= count
    p *= valid[..., None]
    return p


# -- per-kind forward/backward over a cohort ----------------------------------
#
# Each kernel writes its batch-major forward intermediates into workspace
# arrays and returns the logits and a closure. The closure writes the
# gradient rows into the workspace's "grad" array: each weight matrix's
# gradient straight into its columns, one gemm per client, and each vector's
# through the leading-axis sum of ``_sum_leading``. Its own intermediates go
# over forward arrays that are dead by then, or into arrays of its own. It
# runs at most once: it writes over the forward values it is done with.


def _linear_softmax(spec, rows, x, ws):
    k = spec.num_classes
    w, b = _views(spec, rows)
    logits = _apply(x, w.transpose(0, 2, 1), ws.take("logits", (*x.shape[:-1], k)))
    logits += _client_vectors(b, ws, "b")

    def backward(dlogits):
        grad = ws.take("grad", rows.shape)
        gw, gb = _views(spec, grad)
        _outer(dlogits, x, gw)
        _sum_leading(dlogits, gb, ws)
        return grad

    return logits, backward


def _mlp_layernorm(spec, rows, x, ws):
    k, d = spec.num_classes, spec.hidden_dim
    eps = spec.layernorm_epsilon
    w1, b1, ln, w2, b2 = _views(spec, rows)
    gain = _client_vectors(ln[:, 0], ws, "ln.gain")
    bias = _client_vectors(ln[:, 1], ws, "ln.bias")

    z1 = _apply(x, w1.transpose(0, 2, 1), ws.take("z1", (*x.shape[:-1], d)))
    z1 += _client_vectors(b1, ws, "b1")
    h, ln_cache = _layernorm_forward(z1, gain, bias, eps, ws, "ln")
    a = np.tanh(h, out=h)
    logits = _apply(a, w2.transpose(0, 2, 1), ws.take("logits", (*x.shape[:-1], k)))
    logits += _client_vectors(b2, ws, "b2")

    def backward(dlogits):
        grad = ws.take("grad", rows.shape)
        gw1, gb1, gln, gw2, gb2 = _views(spec, grad)
        _outer(dlogits, a, gw2)
        _sum_leading(dlogits, gb2, ws)
        da = _apply(dlogits, w2, z1)  # z1 is dead after the LayerNorm
        dh = _tanh_backward(a, da)
        dz1 = _layernorm_backward(dh, gain, ln_cache, gln, da, ws)  # da: scratch
        _outer(dz1, x, gw1)
        _sum_leading(dz1, gb1, ws)
        return grad

    return logits, backward


def _tiny_attention(spec, rows, x, ws):
    f, k, d, s = spec.input_dim, spec.num_classes, spec.hidden_dim, spec.seq_len
    eps = spec.layernorm_epsilon
    win, ln1, wqkv, wf, ln2, w1, w2, wout, bout = _views(spec, rows)
    g1 = _client_vectors(ln1[:, 0], ws, "ln1.gain")
    be1 = _client_vectors(ln1[:, 1], ws, "ln1.bias")
    g2 = _client_vectors(ln2[:, 0], ws, "ln2.gain")
    be2 = _client_vectors(ln2[:, 1], ws, "ln2.bias")

    # x is (B, C, S, F); the stream is (B, S, C, .), so that a client's
    # rows over batch and sequence are one strided matrix. h is the
    # residual stream h0, h1, h2.
    bsc = (x.shape[0], s, x.shape[1])
    xs = ws.take("x", (*bsc, f))
    np.copyto(xs, x.swapaxes(1, 2))
    h = _apply(xs, win.transpose(0, 2, 1), ws.take("h", (*bsc, d)))

    # pre-LN attention sub-block; the scores are per (example, client), on
    # (B, C, S, .) views of the stream.
    u, ln1_cache = _layernorm_forward(h, g1, be1, eps, ws, "ln1")
    qkv = _apply(u, wqkv, ws.take("qkv", (*bsc, 3 * d)))
    q, kk, v = (qkv[..., i * d : (i + 1) * d].swapaxes(1, 2) for i in range(3))
    att = np.matmul(q, kk.swapaxes(-1, -2), out=ws.take("att", (*q.shape[:-1], s)))
    att /= np.sqrt(d)  # the scores (B, C, S, S), then their softmax
    _softmax(att, out=att)
    ao = ws.take("ao", h.shape)
    np.matmul(att, v, out=ao.swapaxes(1, 2))
    proj = _apply(ao, wf.transpose(0, 2, 1), ws.take("proj", h.shape))
    h += proj

    # pre-LN MLP sub-block
    m, ln2_cache = _layernorm_forward(h, g2, be2, eps, ws, "ln2")
    t = _apply(m, w1.transpose(0, 2, 1), ws.take("t", h.shape))
    np.tanh(t, out=t)
    h += _apply(t, w2.transpose(0, 2, 1), proj)

    pool = _sum_axis(h, 1, ws.take("pool", (bsc[0], bsc[2], d)))  # (B, C, d)
    pool /= s  # the mean over positions
    logits = _apply(pool, wout.transpose(0, 2, 1),
                    ws.take("logits", (*pool.shape[:-1], k)))
    logits += _client_vectors(bout, ws, "bout")

    def backward(dlogits):
        grad = ws.take("grad", rows.shape)
        gwin, gln1, gwqkv, gwf, gln2, gw1, gw2, gwout, gbout = _views(spec, grad)
        _outer(dlogits, pool, gwout)
        _sum_leading(dlogits, gbout, ws)
        dpool = _apply(dlogits, wout, ws.take("dpool", pool.shape))
        # h and proj are dead after the pool.
        dh2 = np.divide(dpool[:, None], s, out=h)

        # MLP sub-block backward
        dt = _apply(dh2, w2, proj)
        _outer(dh2, t, gw2)
        da1 = _tanh_backward(t, dt)
        _outer(da1, m, gw1)
        dm = _apply(da1, w1, dt)  # over dt, then da1 is the scratch
        dh1 = _layernorm_backward(dm, g2, ln2_cache, gln2, da1, ws)
        dh1 += dh2  # residual

        # attention sub-block backward
        dao = _apply(dh1, wf, dh2)  # over dh2, dead after the residual add
        _outer(dh1, ao, gwf)
        dao_v = dao.swapaxes(1, 2)
        datt = np.matmul(dao_v, v.swapaxes(-1, -2), out=ws.take("datt", att.shape))
        dqkv = ws.take("dqkv", qkv.shape)  # (B, S, C, 3d): dq, dk, dv
        dq, dk, dv = (dqkv[..., i * d : (i + 1) * d].swapaxes(1, 2) for i in range(3))
        np.matmul(att.swapaxes(-1, -2), dao_v, out=dv)
        datt -= _sum_last(np.multiply(datt, att, out=ws.take("datt.att", att.shape)))
        dscores = np.multiply(att, datt, out=datt)
        np.matmul(dscores, kk, out=dq)
        np.matmul(dscores.swapaxes(-1, -2), q, out=dk)
        dqkv[..., : 2 * d] /= np.sqrt(d)  # dq and dk, side by side
        _outer(u, dqkv, gwqkv)
        du = _apply(dqkv, wqkv.transpose(0, 2, 1), dao)  # over dao
        dh0 = _layernorm_backward(du, g1, ln1_cache, gln1, da1, ws)
        dh0 += dh1  # residual
        _outer(dh0, xs, gwin)
        return grad

    return logits, backward


_FORWARD = {
    ModelKind.LINEAR_SOFTMAX: _linear_softmax,
    ModelKind.MLP_LAYERNORM: _mlp_layernorm,
    ModelKind.TINY_ATTENTION: _tiny_attention,
}


def cohort_grad(spec: ModelSpec, rows: np.ndarray, inputs: np.ndarray,
                labels: np.ndarray, count, valid: np.ndarray,
                ws: Workspace) -> np.ndarray:
    """(C, P) gradients of C clients' mean cross-entropy, unchecked.

    rows are the clients' parameters, inputs (B, C, ...) and labels (B, C)
    their minibatches, batch-major; `count` and `valid` are as in the
    cross-entropy gradient. The caller has validated the data against the model. The
    result is the workspace's "grad" array: the next call into the same
    workspace overwrites it.
    """
    out, backward = _FORWARD[spec.kind](spec, rows, inputs, ws)
    return backward(_cross_entropy_grad(out, labels, count, valid, out=out))


def evaluate(spec: ModelSpec, params: np.ndarray, batch: Batch,
             ws: Workspace) -> tuple[float, float]:
    """Mean cross-entropy and accuracy from one forward pass, unchecked.

    The caller has validated the batch and the flat parameter vector
    against the model. The forward pass writes into the workspace.
    """
    out, _ = _FORWARD[spec.kind](spec, params[None, :], batch.inputs[:, None], ws)
    logits = out[:, 0]
    pred = np.argmax(logits, axis=1)
    return _cross_entropy(logits, batch.labels), float(np.mean(pred == batch.labels))
