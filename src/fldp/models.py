"""Small differentiable classifiers with named parameter groups.

Three model kinds, all trained with mean cross-entropy over a batch:

* ``linear_softmax``: logits = x W^T + b.
* ``mlp_layernorm``: linear -> LayerNorm -> tanh -> linear.
* ``tiny_attention``: one pre-LayerNorm transformer block (single-head
  attention, tanh MLP), mean-pooled over positions, linear head. Its
  parameter groups are named wqkv, wf, ln1, w1, w2, ln2 plus input/output
  projections, so per-layer telemetry buckets match the usual transformer
  group names.

Each kind has one forward/backward kernel over a leading cohort axis: it
takes the (C, P) parameter rows of C clients and their inputs, (C, B, F) or
(C, B, S, F), and returns (C, B, K) logits plus a closure mapping
dL/dlogits to the (C, P) gradient rows. Two calls run the kernels:
``cohort_grad`` for training and ``evaluate`` for the probe (a cohort of
one), which drops the closure. Neither checks its arguments: once per
run, the caller validates the inputs' shape with ``check_inputs``, the
labels' range through the data's own class count, and the parameters'
layout against ``ModelSpec.layout()``.

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

Reductions over the kernels' short axes (a row's 4 to 16 classes,
features or scores, and each client's batch positions) go through
``_sum_last``, ``_max_last`` and ``_sum_batch``, and each gives the bits of
the numpy reduction it stands for: ``_sum_last`` adds column slices in
numpy's own pairwise order, ``_max_last`` chains ``np.maximum`` over the
columns, and ``_sum_batch`` sums a contiguous copy with the batch positions
first, in numpy's sequential order. On a paper-sized cohort that is a few
long ufunc loops where numpy runs one short inner loop per row. On a small
stack the one numpy call is faster, so each helper picks its form by the
number of rows; both forms give the same bits, so the choice moves only time.
(A NaN result is NaN in both forms, but its sign may differ; numpy does
not fix a NaN's sign either.)

Gradients are hand-derived closed forms, checked in the tests against a
central-difference oracle.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass
from enum import Enum

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
        if self.kind == ModelKind.TINY_ATTENTION and self.seq_len < 1:
            raise StructureError("tiny_attention requires seq_len >= 1")
        if self.kind != ModelKind.TINY_ATTENTION and self.seq_len != 1:
            raise StructureError(
                f"seq_len is for tiny_attention only, got {self.seq_len}")
        if not 0.0 < self.layernorm_epsilon < math.inf:
            raise StructureError("layernorm_epsilon must be finite and > 0, got "
                                 f"{self.layernorm_epsilon}")

    def layout(self) -> Layout:
        """The shared flat-vector layout: layer names and sizes, in tree order."""
        f, k, d = self.input_dim, self.num_classes, self.hidden_dim
        if self.kind == ModelKind.LINEAR_SOFTMAX:
            pairs = (("w", k * f), ("b", k))
        elif self.kind == ModelKind.MLP_LAYERNORM:
            pairs = (
                ("w1", d * f),
                ("b1", d),
                ("ln", 2 * d),
                ("w2", k * d),
                ("b2", k),
            )
        else:  # tiny_attention; LayerNorm layers pack gains then biases.
            pairs = (
                ("win", d * f),
                ("ln1", 2 * d),
                ("wqkv", 3 * d * d),
                ("wf", d * d),
                ("ln2", 2 * d),
                ("w1", d * d),
                ("w2", d * d),
                ("wout", k * d),
                ("bout", k),
            )
        names, sizes = zip(*pairs)
        return Layout.of(names, sizes)


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
    """Deterministic init: weights ~ N(0, 1/fan_in), LN gains 1, biases 0."""
    rng = generator(seed, 0xA11D)
    f, k, d = spec.input_dim, spec.num_classes, spec.hidden_dim
    fan_in = {
        "w": f, "w1": d if spec.kind == ModelKind.TINY_ATTENTION else f,
        "w2": d, "win": f, "wqkv": d, "wf": d, "wout": d,
    }
    layers = []
    layout = spec.layout()
    for name, size in zip(layout.names, layout.sizes):
        if name in ("b", "b1", "b2", "bout"):
            values = np.zeros(size)
        elif name in ("ln", "ln1", "ln2"):
            half = size // 2
            values = np.concatenate([np.ones(half), np.zeros(half)])
        else:
            values = rng.normal(size=size) / np.sqrt(fan_in[name])
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
# or two per column in the column forms), where numpy's reduction pays about
# 25 ns per row. Below these sizes the one numpy call wins, so the helpers
# hand it small stacks; both forms give the same bits, so the choice moves
# only time. Crossovers timed with timeit on a 2-vCPU x86-64 host, numpy
# 2.4: _sum_last near 400, 900 and 2000 rows at 4, 8 and 16 columns;
# _max_last near 64 and 150 rows at 4 and 8 columns; _sum_batch near 128
# rows (clients times batch positions) at 4 to 16 columns.
_SUM_ROWS_PER_COLUMN = 128
_MAX_ROWS_PER_COLUMN = 16
_BATCH_ROWS = 128


class Workspace:
    """Scratch arrays that the kernels write their intermediates into.

    ``take(name, shape)`` hands out the first prod(shape) entries of the
    float64 array held under `name`, as a C-contiguous view of that shape;
    its values are whatever the last user left there. A request larger
    than the held array replaces it, so each array grows to the largest
    request it sees and serves every smaller one after that: the shrinking
    prefixes of an epochs cohort, cohorts of varying size and the probe's
    (1, probe_size, ...) stack alike. A name holds one intermediate at a
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


def _sum_batch(z: np.ndarray, out, ws: Workspace) -> np.ndarray:
    """(C, ..., n) summed over the middle axes per client: (C, n), bit for bit.

    For n >= 2 numpy adds the middle rows in sequence; so does one reduction
    over a contiguous copy with those rows first, in n·C-long steps. The
    copy goes to the workspace's "batch" array. A one-wide stack numpy sums
    pairwise, so it is left to numpy.
    """
    c, n = z.shape[0], z.shape[-1]
    if n < 2 or _rows(z) < _BATCH_ROWS or not z.flags.c_contiguous:
        return z.sum(axis=tuple(range(1, z.ndim - 1)), out=out)
    rows_first = z.reshape(c, -1, n).swapaxes(0, 1)
    copy = ws.take("batch", rows_first.shape)
    np.copyto(copy, rows_first)
    return np.add.reduce(copy, axis=0, out=out)


def _softmax(z: np.ndarray, out) -> np.ndarray:
    # Max-subtraction for stability; C order, so the columns are slices.
    # out may be z itself.
    e = np.subtract(z, _max_last(z), out=out, order="C")
    np.exp(e, out=e)
    e /= _sum_last(e)
    return e


def _per_client(v: np.ndarray, ndim: int) -> np.ndarray:
    """(C, n) per-client vectors shaped to broadcast over (C, ..., n)."""
    return v.reshape(v.shape[0], *([1] * (ndim - 2)), v.shape[-1])


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

    The gain and bias gradients, summed per client, are the two halves of
    `out`, (C, 2n): a LayerNorm layer's gradient row, gains then biases.
    `t` is a dy-shaped scratch array.
    """
    xhat, inv = cache
    n = dy.shape[-1]
    t = np.multiply(dy, xhat, out=t)
    _sum_batch(t, out[:, :n], ws)
    _sum_batch(dy, out[:, n:], ws)
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


def _apply(a: np.ndarray, w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a (C, ..., n) times the per-client matrices w (C, n, m), into out (C, ..., m)."""
    c = a.shape[0]  # one product per client over the stacked middle axes
    np.matmul(a.reshape(c, -1, a.shape[-1]), w, out=out.reshape(c, -1, w.shape[-1]))
    return out


def _outer(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-client sum over the middle axes of a[..., i] * b[..., j], into out (C, i, j).

    out may be a view with any strides, such as a layer's columns of the
    gradient rows.
    """
    c = a.shape[0]
    return np.matmul(a.reshape(c, -1, a.shape[-1]).transpose(0, 2, 1),
                     b.reshape(c, -1, b.shape[-1]), out=out)


def _cross_entropy(logits, labels) -> float:
    """Mean cross-entropy of the labels under softmax(logits)."""
    n = labels.shape[0]
    shifted = logits - _max_last(logits)
    lse = np.log(_sum_last(np.exp(shifted)))[:, 0]
    return float(np.mean(lse - shifted[np.arange(n), labels]))


def _cross_entropy_grad(logits, labels, count, valid, out):
    """Gradient of each client's mean cross-entropy w.r.t. its logits.

    logits are (C, B, K) and labels (C, B); `count` is the number of real
    examples per client, a scalar or (C, 1, 1). Padding examples, where
    `valid` (C, B) is False, get a zero gradient. out is C order; it may be
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
# Each kernel writes its forward intermediates into workspace arrays and
# returns the logits and a closure. The closure writes the gradient rows
# into the workspace's "grad" array, each layer's gradient straight into its
# columns, and its own intermediates over forward arrays that are dead by
# then, or into arrays of its own. It runs at most once: it writes over the
# forward values it is done with.


def _linear_softmax(spec, rows, x, ws):
    f, k = spec.input_dim, spec.num_classes
    spans = spec.layout().slices
    w, b = (rows[:, span] for span in spans)
    w = w.reshape(-1, k, f)
    logits = _apply(x, w.transpose(0, 2, 1), ws.take("logits", (*x.shape[:-1], k)))
    logits += b[:, None, :]

    def backward(dlogits):
        grad = ws.take("grad", rows.shape)
        gw, gb = (grad[:, span] for span in spans)
        _outer(dlogits, x, gw.reshape(-1, k, f))
        _sum_batch(dlogits, gb, ws)
        return grad

    return logits, backward


def _mlp_layernorm(spec, rows, x, ws):
    f, k, d = spec.input_dim, spec.num_classes, spec.hidden_dim
    eps = spec.layernorm_epsilon
    spans = spec.layout().slices
    w1, b1, ln, w2, b2 = (rows[:, span] for span in spans)
    w1 = w1.reshape(-1, d, f)
    gain, bias = _per_client(ln[:, :d], x.ndim), _per_client(ln[:, d:], x.ndim)
    w2 = w2.reshape(-1, k, d)

    z1 = _apply(x, w1.transpose(0, 2, 1), ws.take("z1", (*x.shape[:-1], d)))
    z1 += b1[:, None, :]
    h, ln_cache = _layernorm_forward(z1, gain, bias, eps, ws, "ln")
    a = np.tanh(h, out=h)
    logits = _apply(a, w2.transpose(0, 2, 1), ws.take("logits", (*x.shape[:-1], k)))
    logits += b2[:, None, :]

    def backward(dlogits):
        grad = ws.take("grad", rows.shape)
        gw1, gb1, gln, gw2, gb2 = (grad[:, span] for span in spans)
        _outer(dlogits, a, gw2.reshape(-1, k, d))
        _sum_batch(dlogits, gb2, ws)
        da = _apply(dlogits, w2, z1)  # z1 is dead after the LayerNorm
        dh = _tanh_backward(a, da)
        dz1 = _layernorm_backward(dh, gain, ln_cache, gln, da, ws)  # da: scratch
        _outer(dz1, x, gw1.reshape(-1, d, f))
        _sum_batch(dz1, gb1, ws)
        return grad

    return logits, backward


def _tiny_attention(spec, rows, x, ws):
    f, k, d = spec.input_dim, spec.num_classes, spec.hidden_dim
    s = spec.seq_len
    eps = spec.layernorm_epsilon
    spans = spec.layout().slices
    win, ln1, wqkv, wf, ln2, w1, w2, wout, bout = (rows[:, span] for span in spans)
    win = win.reshape(-1, d, f)
    g1, be1 = _per_client(ln1[:, :d], x.ndim), _per_client(ln1[:, d:], x.ndim)
    wqkv = wqkv.reshape(-1, d, 3 * d)
    wf = wf.reshape(-1, d, d)
    g2, be2 = _per_client(ln2[:, :d], x.ndim), _per_client(ln2[:, d:], x.ndim)
    w1 = w1.reshape(-1, d, d)
    w2 = w2.reshape(-1, d, d)
    wout = wout.reshape(-1, k, d)

    # x is (C, B, S, F); h is the residual stream h0, h1, h2, (C, B, S, d)
    cbs = x.shape[:-1]
    h = _apply(x, win.transpose(0, 2, 1), ws.take("h", (*cbs, d)))

    # pre-LN attention sub-block
    u, ln1_cache = _layernorm_forward(h, g1, be1, eps, ws, "ln1")
    qkv = _apply(u, wqkv, ws.take("qkv", (*cbs, 3 * d)))
    q, kk, v = qkv[..., :d], qkv[..., d : 2 * d], qkv[..., 2 * d :]
    att = np.matmul(q, kk.swapaxes(-1, -2), out=ws.take("att", (*cbs, s)))
    att /= np.sqrt(d)  # the scores (C, B, S, S), then their softmax
    _softmax(att, out=att)
    ao = np.matmul(att, v, out=ws.take("ao", h.shape))  # (C, B, S, d)
    proj = _apply(ao, wf.transpose(0, 2, 1), ws.take("proj", h.shape))
    h += proj

    # pre-LN MLP sub-block
    m, ln2_cache = _layernorm_forward(h, g2, be2, eps, ws, "ln2")
    t = _apply(m, w1.transpose(0, 2, 1), ws.take("t", h.shape))
    np.tanh(t, out=t)
    h += _apply(t, w2.transpose(0, 2, 1), proj)

    pool = np.mean(h, axis=2, out=ws.take("pool", (*cbs[:2], d)))  # (C, B, d)
    logits = _apply(pool, wout.transpose(0, 2, 1), ws.take("logits", (*cbs[:2], k)))
    logits += bout[:, None, :]

    def backward(dlogits):
        grad = ws.take("grad", rows.shape)
        gwin, gln1, gwqkv, gwf, gln2, gw1, gw2, gwout, gbout = (
            grad[:, span] for span in spans)
        _outer(dlogits, pool, gwout.reshape(-1, k, d))
        _sum_batch(dlogits, gbout, ws)
        dpool = _apply(dlogits, wout, ws.take("dpool", pool.shape))
        # h and proj are dead after the pool.
        dh2 = np.divide(dpool[:, :, None, :], s, out=h)

        # MLP sub-block backward
        dt = _apply(dh2, w2, proj)
        _outer(dh2, t, gw2.reshape(-1, d, d))
        da1 = _tanh_backward(t, dt)
        _outer(da1, m, gw1.reshape(-1, d, d))
        dm = _apply(da1, w1, dt)  # over dt, then da1 is the scratch
        dh1 = _layernorm_backward(dm, g2, ln2_cache, gln2, da1, ws)
        dh1 += dh2  # residual

        # attention sub-block backward
        dao = _apply(dh1, wf, dh2)  # over dh2, dead after the residual add
        _outer(dh1, ao, gwf.reshape(-1, d, d))
        datt = np.matmul(dao, v.swapaxes(-1, -2), out=ws.take("datt", att.shape))
        dqkv = ws.take("dqkv", qkv.shape)  # (C, B, S, 3d): dq, dk, dv
        np.matmul(att.swapaxes(-1, -2), dao, out=dqkv[..., 2 * d :])
        datt -= _sum_last(np.multiply(datt, att, out=ws.take("datt.att", att.shape)))
        dscores = np.multiply(att, datt, out=datt)
        dq = np.matmul(dscores, kk, out=dqkv[..., :d])
        dq /= np.sqrt(d)
        dk = np.matmul(dscores.swapaxes(-1, -2), q, out=dqkv[..., d : 2 * d])
        dk /= np.sqrt(d)
        _outer(u, dqkv, gwqkv.reshape(-1, d, 3 * d))
        du = _apply(dqkv, wqkv.transpose(0, 2, 1), dao)  # over dao
        dh0 = _layernorm_backward(du, g1, ln1_cache, gln1, da1, ws)
        dh0 += dh1  # residual
        _outer(dh0, x, gwin.reshape(-1, d, f))
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

    rows are the clients' parameters, inputs (C, B, ...) and labels (C, B)
    their minibatches; `count` and `valid` are as in the cross-entropy
    gradient. The caller has validated the data against the model. The
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
    out, _ = _FORWARD[spec.kind](spec, params[None, :], batch.inputs[None], ws)
    pred = np.argmax(out[0], axis=1)
    return _cross_entropy(out[0], batch.labels), float(np.mean(pred == batch.labels))
