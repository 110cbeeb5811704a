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
dL/dlogits to the (C, P) gradient rows. The public ``loss``, ``grad``,
``logits`` and ``evaluate`` validate their arguments (the parameters'
layout against ``ModelSpec.layout()`` with ``Layout.require_same``, the
inputs with ``check_inputs``) and run the kernel on a cohort of one;
``cohort_grad`` runs it unchecked on data that the caller validated once.

Gradients are hand-derived closed forms; ``finite_diff_grad`` is the
independent central-difference oracle used to check them.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    kind: ModelKind
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

    @property
    def size(self) -> int:
        return int(self.labels.shape[0])


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


def check_inputs(spec: ModelSpec, inputs: np.ndarray, labels=None) -> None:
    """Raise StructureError unless inputs (and labels) fit the model."""
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
    if labels is not None and np.any(labels >= spec.num_classes):
        raise StructureError("label out of range for num_classes")


def _softmax(z: np.ndarray) -> np.ndarray:
    # Max-subtraction for stability.
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _per_client(v: np.ndarray, ndim: int) -> np.ndarray:
    """(C, n) per-client vectors shaped to broadcast over (C, ..., n)."""
    return v.reshape(v.shape[0], *([1] * (ndim - 2)), v.shape[-1])


def _layernorm_forward(z, gain, bias, eps):
    # The steps of z.var, so var is bitwise z.var, on deviations that then
    # become xhat in place.
    xhat = z - z.mean(axis=-1, keepdims=True)
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / z.shape[-1]
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    return gain * xhat + bias, (xhat, inv)


def _layernorm_backward(dy, gain, cache):
    """dL/dz and the (C, n) gain and bias gradients, summed per client."""
    xhat, inv = cache
    batch_axes = tuple(range(1, dy.ndim - 1))
    dgain = (dy * xhat).sum(axis=batch_axes)
    dbias = dy.sum(axis=batch_axes)
    gdy = gain * dy
    dz = inv * (
        gdy
        - gdy.mean(axis=-1, keepdims=True)
        - xhat * (gdy * xhat).mean(axis=-1, keepdims=True)
    )
    return dz, dgain, dbias


def _apply(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a (C, ..., n) times the per-client matrices w (C, n, m)."""
    c = a.shape[0]
    out = a.reshape(c, -1, a.shape[-1]) @ w
    return out.reshape(*a.shape[:-1], w.shape[-1])


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-client sum over the middle axes of a[..., i] * b[..., j]: (C, i, j)."""
    c = a.shape[0]
    return a.reshape(c, -1, a.shape[-1]).transpose(0, 2, 1) @ b.reshape(
        c, -1, b.shape[-1]
    )


def _cross_entropy(logits, labels) -> float:
    """Mean cross-entropy of the labels under softmax(logits)."""
    n = labels.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    return float(np.mean(lse - shifted[np.arange(n), labels]))


def _cross_entropy_grad(logits, labels, count, valid=None):
    """Gradient of each client's mean cross-entropy w.r.t. its logits.

    logits are (C, B, K) and labels (C, B); `count` is the number of real
    examples per client, a scalar or (C, 1, 1). Padding examples, where
    `valid` (C, B) is False, get a zero gradient.
    """
    c, b = labels.shape
    p = _softmax(logits)
    p[np.arange(c)[:, None], np.arange(b), labels] -= 1.0
    p /= count
    if valid is not None:
        p *= valid[..., None]
    return p


# -- per-kind forward/backward over a cohort ----------------------------------


def _layers(spec, rows):
    return [rows[:, span] for span in spec.layout().slices]


def _grad_rows(grads) -> np.ndarray:
    return np.concatenate([g.reshape(g.shape[0], -1) for g in grads], axis=1)


def _linear_softmax(spec, rows, x):
    f, k = spec.input_dim, spec.num_classes
    w, b = _layers(spec, rows)
    w = w.reshape(-1, k, f)
    logits = _apply(x, w.transpose(0, 2, 1)) + b[:, None, :]

    def backward(dlogits):
        return _grad_rows([_outer(dlogits, x), dlogits.sum(axis=1)])

    return logits, backward


def _mlp_layernorm(spec, rows, x):
    f, k, d = spec.input_dim, spec.num_classes, spec.hidden_dim
    eps = spec.layernorm_epsilon
    w1, b1, ln, w2, b2 = _layers(spec, rows)
    w1 = w1.reshape(-1, d, f)
    gain, bias = _per_client(ln[:, :d], x.ndim), _per_client(ln[:, d:], x.ndim)
    w2 = w2.reshape(-1, k, d)

    z1 = _apply(x, w1.transpose(0, 2, 1)) + b1[:, None, :]
    h, ln_cache = _layernorm_forward(z1, gain, bias, eps)
    a = np.tanh(h)
    logits = _apply(a, w2.transpose(0, 2, 1)) + b2[:, None, :]

    def backward(dlogits):
        dw2 = _outer(dlogits, a)
        db2 = dlogits.sum(axis=1)
        da = _apply(dlogits, w2)
        dh = (1.0 - a * a) * da
        dz1, dgain, dbias = _layernorm_backward(dh, gain, ln_cache)
        dw1 = _outer(dz1, x)
        db1 = dz1.sum(axis=1)
        return _grad_rows([dw1, db1, dgain, dbias, dw2, db2])

    return logits, backward


def _tiny_attention(spec, rows, x):
    f, k, d = spec.input_dim, spec.num_classes, spec.hidden_dim
    s = spec.seq_len
    eps = spec.layernorm_epsilon
    win, ln1, wqkv, wf, ln2, w1, w2, wout, bout = _layers(spec, rows)
    win = win.reshape(-1, d, f)
    g1, be1 = _per_client(ln1[:, :d], x.ndim), _per_client(ln1[:, d:], x.ndim)
    wqkv = wqkv.reshape(-1, d, 3 * d)
    wf = wf.reshape(-1, d, d)
    g2, be2 = _per_client(ln2[:, :d], x.ndim), _per_client(ln2[:, d:], x.ndim)
    w1 = w1.reshape(-1, d, d)
    w2 = w2.reshape(-1, d, d)
    wout = wout.reshape(-1, k, d)

    # x is (C, B, S, F)
    h0 = _apply(x, win.transpose(0, 2, 1))  # (C, B, S, d)

    # pre-LN attention sub-block
    u, ln1_cache = _layernorm_forward(h0, g1, be1, eps)
    qkv = _apply(u, wqkv)  # (C, B, S, 3d)
    q, kk, v = qkv[..., :d], qkv[..., d : 2 * d], qkv[..., 2 * d :]
    scores = q @ kk.swapaxes(-1, -2) / np.sqrt(d)  # (C, B, S, S)
    att = _softmax(scores)
    ao = att @ v  # (C, B, S, d)
    h1 = h0 + _apply(ao, wf.transpose(0, 2, 1))

    # pre-LN MLP sub-block
    m, ln2_cache = _layernorm_forward(h1, g2, be2, eps)
    t = np.tanh(_apply(m, w1.transpose(0, 2, 1)))
    h2 = h1 + _apply(t, w2.transpose(0, 2, 1))

    pool = h2.mean(axis=2)  # (C, B, d)
    logits = _apply(pool, wout.transpose(0, 2, 1)) + bout[:, None, :]

    def backward(dlogits):
        dwout = _outer(dlogits, pool)
        dbout = dlogits.sum(axis=1)
        dpool = _apply(dlogits, wout)  # (C, B, d)
        dh2 = np.repeat(dpool[:, :, None, :], s, axis=2) / s

        # MLP sub-block backward
        dt = _apply(dh2, w2)
        dw2 = _outer(dh2, t)
        da1 = (1.0 - t * t) * dt
        dw1 = _outer(da1, m)
        dm = _apply(da1, w1)
        dh1, dg2, dbe2 = _layernorm_backward(dm, g2, ln2_cache)
        dh1 = dh1 + dh2  # residual

        # attention sub-block backward
        dao = _apply(dh1, wf)
        dwf = _outer(dh1, ao)
        datt = dao @ v.swapaxes(-1, -2)  # (C, B, S, S)
        dv = att.swapaxes(-1, -2) @ dao
        dscores = att * (datt - (datt * att).sum(axis=-1, keepdims=True))
        dq = dscores @ kk / np.sqrt(d)
        dk = dscores.swapaxes(-1, -2) @ q / np.sqrt(d)
        dqkv = np.concatenate([dq, dk, dv], axis=-1)  # (C, B, S, 3d)
        dwqkv = _outer(u, dqkv)
        du = _apply(dqkv, wqkv.transpose(0, 2, 1))
        dh0, dg1, dbe1 = _layernorm_backward(du, g1, ln1_cache)
        dh0 = dh0 + dh1  # residual
        dwin = _outer(dh0, x)

        return _grad_rows(
            [dwin, dg1, dbe1, dwqkv, dwf, dg2, dbe2, dw1, dw2, dwout, dbout]
        )

    return logits, backward


_FORWARD = {
    ModelKind.LINEAR_SOFTMAX: _linear_softmax,
    ModelKind.MLP_LAYERNORM: _mlp_layernorm,
    ModelKind.TINY_ATTENTION: _tiny_attention,
}


def cohort_grad(spec: ModelSpec, rows: np.ndarray, inputs: np.ndarray,
                labels: np.ndarray, count, valid=None) -> np.ndarray:
    """(C, P) gradients of C clients' mean cross-entropy, unchecked.

    rows are the clients' parameters, inputs (C, B, ...) and labels (C, B)
    their minibatches; `count` and `valid` are as in the cross-entropy
    gradient. The caller has validated the data against the model.
    """
    out, backward = _FORWARD[spec.kind](spec, rows, inputs)
    return backward(_cross_entropy_grad(out, labels, count, valid))


def _forward(spec: ModelSpec, params: ParamTree, inputs: np.ndarray, labels=None):
    """Validated forward pass of one client: (C=1 logits, backward closure)."""
    spec.layout().require_same(params.layout)
    check_inputs(spec, inputs, labels)
    return _FORWARD[spec.kind](spec, params.flat[None, :], inputs[None])


def loss(spec: ModelSpec, params: ParamTree, batch: Batch) -> float:
    """Mean cross-entropy over the batch."""
    out, _ = _forward(spec, params, batch.inputs, batch.labels)
    return _cross_entropy(out[0], batch.labels)


def grad(spec: ModelSpec, params: ParamTree, batch: Batch) -> ParamTree:
    """Analytic gradient of `loss` w.r.t. every parameter."""
    out, backward = _forward(spec, params, batch.inputs, batch.labels)
    rows = backward(_cross_entropy_grad(out, batch.labels[None], batch.size))
    return params.with_flat(rows[0])


def logits(spec: ModelSpec, params: ParamTree, inputs: np.ndarray) -> np.ndarray:
    inputs = np.asarray(inputs, dtype=np.float64)
    return _forward(spec, params, inputs)[0][0]


def evaluate(spec: ModelSpec, params: ParamTree, batch: Batch) -> tuple[float, float]:
    """Mean cross-entropy and accuracy from one forward pass."""
    out, _ = _forward(spec, params, batch.inputs, batch.labels)
    pred = np.argmax(out[0], axis=1)
    return _cross_entropy(out[0], batch.labels), float(np.mean(pred == batch.labels))


def finite_diff_grad(
    spec: ModelSpec, params: ParamTree, batch: Batch, h: float = 1e-5
) -> ParamTree:
    """Central-difference gradient oracle: (L(p+h e_i) - L(p-h e_i)) / 2h.

    h around 1e-5 balances truncation against roundoff; very large h (say
    1.0) is accepted but inaccurate.
    """
    if h <= 0:
        raise ValueError("finite difference step must be positive")
    flat = np.array(params.flat, copy=True)
    g = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lp = loss(spec, params.with_flat(flat), batch)
        flat[i] = orig - h
        lm = loss(spec, params.with_flat(flat), batch)
        flat[i] = orig
        g[i] = (lp - lm) / (2.0 * h)
    return params.with_flat(g)
