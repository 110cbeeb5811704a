"""Small differentiable classifiers with named parameter groups.

Three model kinds, all trained with mean cross-entropy over a batch:

* ``linear_softmax``: logits = x W^T + b.
* ``mlp_layernorm``: linear -> LayerNorm -> tanh -> linear.
* ``tiny_attention``: one pre-LayerNorm transformer block (single-head
  attention, tanh MLP), mean-pooled over positions, linear head. Its
  parameter groups are named wqkv, wf, ln1, w1, w2, ln2 plus input/output
  projections, so per-layer telemetry buckets match the usual transformer
  group names.

Gradients are hand-derived closed forms; ``finite_diff_grad`` is the
independent central-difference oracle used to check them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import StructureError
from .param_tree import ParamTree


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

    def layer_layout(self) -> tuple[tuple[str, int], ...]:
        """Layer names and flat sizes, in tree order."""
        f, k, d = self.input_dim, self.num_classes, self.hidden_dim
        if self.kind == ModelKind.LINEAR_SOFTMAX:
            return (("w", k * f), ("b", k))
        if self.kind == ModelKind.MLP_LAYERNORM:
            return (
                ("w1", d * f),
                ("b1", d),
                ("ln", 2 * d),
                ("w2", k * d),
                ("b2", k),
            )
        # tiny_attention; LayerNorm layers pack gains then biases.
        return (
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


@dataclass(frozen=True)
class Batch:
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

    def take(self, idx: np.ndarray) -> "Batch":
        return Batch(self.inputs[idx], self.labels[idx])


def init_params(spec: ModelSpec, seed: int) -> ParamTree:
    """Deterministic init: weights ~ N(0, 1/fan_in), LN gains 1, biases 0."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0xA11D))))
    f, k, d = spec.input_dim, spec.num_classes, spec.hidden_dim
    fan_in = {
        "w": f, "w1": d if spec.kind == ModelKind.TINY_ATTENTION else f,
        "w2": d, "win": f, "wqkv": d, "wf": d, "wout": d,
    }
    layers = []
    for name, size in spec.layer_layout():
        if name in ("b", "b1", "b2", "bout"):
            values = np.zeros(size)
        elif name in ("ln", "ln1", "ln2"):
            half = size // 2
            values = np.concatenate([np.ones(half), np.zeros(half)])
        else:
            values = rng.normal(size=size) / np.sqrt(fan_in[name])
        layers.append((name, values))
    return ParamTree(layers)


def _check_layout(spec: ModelSpec, params: ParamTree) -> None:
    layout = spec.layer_layout()
    if params.names != tuple(n for n, _ in layout) or params.dims != tuple(
        s for _, s in layout
    ):
        raise StructureError(
            f"params {params!r} do not match {spec.kind.value} layout {layout}"
        )


def _check_inputs(spec: ModelSpec, inputs: np.ndarray) -> None:
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


def _softmax(z: np.ndarray) -> np.ndarray:
    # Max-subtraction for stability.
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _layernorm_forward(z, gain, bias, eps):
    mu = z.mean(axis=-1, keepdims=True)
    var = z.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (z - mu) * inv
    return gain * xhat + bias, (xhat, inv)


def _layernorm_backward(dy, gain, cache):
    xhat, inv = cache
    dgain = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    dbias = dy.sum(axis=tuple(range(dy.ndim - 1)))
    gdy = gain * dy
    dz = inv * (
        gdy
        - gdy.mean(axis=-1, keepdims=True)
        - xhat * (gdy * xhat).mean(axis=-1, keepdims=True)
    )
    return dz, dgain, dbias


def _cross_entropy(logits, labels) -> float:
    """Mean cross-entropy of the labels under softmax(logits)."""
    n = labels.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    return float(np.mean(lse - shifted[np.arange(n), labels]))


def _cross_entropy_grad(logits, labels):
    """Gradient of `_cross_entropy` w.r.t. the logits."""
    n = labels.shape[0]
    p = _softmax(logits)
    p[np.arange(n), labels] -= 1.0
    return p / n


# -- per-kind forward/backward ----------------------------------------------
# Each returns the logits and a closure mapping dL/dlogits to the per-layer
# gradients in tree order.


def _linear_softmax(spec, params, x):
    f, k = spec.input_dim, spec.num_classes
    w = params["w"].reshape(k, f)
    b = params["b"]
    logits = x @ w.T + b

    def backward(dlogits):
        dw = dlogits.T @ x
        db = dlogits.sum(axis=0)
        return [dw.reshape(-1), db]

    return logits, backward


def _mlp_layernorm(spec, params, x):
    f, k, d = spec.input_dim, spec.num_classes, spec.hidden_dim
    eps = spec.layernorm_epsilon
    w1 = params["w1"].reshape(d, f)
    b1 = params["b1"]
    ln = params["ln"]
    gain, bias = ln[:d], ln[d:]
    w2 = params["w2"].reshape(k, d)
    b2 = params["b2"]

    z1 = x @ w1.T + b1
    h, ln_cache = _layernorm_forward(z1, gain, bias, eps)
    a = np.tanh(h)
    logits = a @ w2.T + b2

    def backward(dlogits):
        dw2 = dlogits.T @ a
        db2 = dlogits.sum(axis=0)
        da = dlogits @ w2
        dh = (1.0 - a * a) * da
        dz1, dgain, dbias = _layernorm_backward(dh, gain, ln_cache)
        dw1 = dz1.T @ x
        db1 = dz1.sum(axis=0)
        return [
            dw1.reshape(-1),
            db1,
            np.concatenate([dgain, dbias]),
            dw2.reshape(-1),
            db2,
        ]

    return logits, backward


def _tiny_attention(spec, params, x):
    f, k, d = spec.input_dim, spec.num_classes, spec.hidden_dim
    s = spec.seq_len
    eps = spec.layernorm_epsilon
    win = params["win"].reshape(d, f)
    ln1 = params["ln1"]
    g1, be1 = ln1[:d], ln1[d:]
    wqkv = params["wqkv"].reshape(d, 3 * d)
    wf = params["wf"].reshape(d, d)
    ln2 = params["ln2"]
    g2, be2 = ln2[:d], ln2[d:]
    w1 = params["w1"].reshape(d, d)
    w2 = params["w2"].reshape(d, d)
    wout = params["wout"].reshape(k, d)
    bout = params["bout"]

    # x is (B, S, F)
    h0 = x @ win.T  # (B, S, d)

    # pre-LN attention sub-block
    u, ln1_cache = _layernorm_forward(h0, g1, be1, eps)
    qkv = u @ wqkv  # (B, S, 3d)
    q, kk, v = qkv[..., :d], qkv[..., d : 2 * d], qkv[..., 2 * d :]
    scores = q @ kk.transpose(0, 2, 1) / np.sqrt(d)  # (B, S, S)
    att = _softmax(scores)
    ao = att @ v  # (B, S, d)
    h1 = h0 + ao @ wf.T

    # pre-LN MLP sub-block
    m, ln2_cache = _layernorm_forward(h1, g2, be2, eps)
    a1 = m @ w1.T
    t = np.tanh(a1)
    h2 = h1 + t @ w2.T

    pool = h2.mean(axis=1)  # (B, d)
    logits = pool @ wout.T + bout

    def backward(dlogits):
        dwout = dlogits.T @ pool
        dbout = dlogits.sum(axis=0)
        dpool = dlogits @ wout  # (B, d)
        dh2 = np.repeat(dpool[:, None, :], s, axis=1) / s

        # MLP sub-block backward
        dt = dh2 @ w2
        dw2 = np.einsum("bsd,bse->de", dh2, t)
        da1 = (1.0 - t * t) * dt
        dw1 = np.einsum("bsd,bse->de", da1, m)
        dm = da1 @ w1
        dh1, dg2, dbe2 = _layernorm_backward(dm, g2, ln2_cache)
        dh1 = dh1 + dh2  # residual

        # attention sub-block backward
        dao = dh1 @ wf
        dwf = np.einsum("bsd,bse->de", dh1, ao)
        datt = dao @ v.transpose(0, 2, 1)  # (B, S, S)
        dv = att.transpose(0, 2, 1) @ dao
        dscores = att * (datt - (datt * att).sum(axis=-1, keepdims=True))
        dq = dscores @ kk / np.sqrt(d)
        dk = dscores.transpose(0, 2, 1) @ q / np.sqrt(d)
        dqkv = np.concatenate([dq, dk, dv], axis=-1)  # (B, S, 3d)
        dwqkv = np.einsum("bsd,bse->de", u, dqkv)
        du = dqkv @ wqkv.T
        dh0, dg1, dbe1 = _layernorm_backward(du, g1, ln1_cache)
        dh0 = dh0 + dh1  # residual
        dwin = np.einsum("bsd,bsf->df", dh0, x)

        return [
            dwin.reshape(-1),
            np.concatenate([dg1, dbe1]),
            dwqkv.reshape(-1),
            dwf.reshape(-1),
            np.concatenate([dg2, dbe2]),
            dw1.reshape(-1),
            dw2.reshape(-1),
            dwout.reshape(-1),
            dbout,
        ]

    return logits, backward


_FORWARD = {
    ModelKind.LINEAR_SOFTMAX: _linear_softmax,
    ModelKind.MLP_LAYERNORM: _mlp_layernorm,
    ModelKind.TINY_ATTENTION: _tiny_attention,
}


def _forward(spec: ModelSpec, params: ParamTree, inputs: np.ndarray, labels=None):
    """Validated forward pass: (logits, backward closure)."""
    _check_layout(spec, params)
    _check_inputs(spec, inputs)
    if labels is not None and np.any(labels >= spec.num_classes):
        raise StructureError("label out of range for num_classes")
    return _FORWARD[spec.kind](spec, params, inputs)


def loss(spec: ModelSpec, params: ParamTree, batch: Batch) -> float:
    """Mean cross-entropy over the batch."""
    out, _ = _forward(spec, params, batch.inputs, batch.labels)
    return _cross_entropy(out, batch.labels)


def grad(spec: ModelSpec, params: ParamTree, batch: Batch) -> ParamTree:
    """Analytic gradient of `loss` w.r.t. every parameter."""
    out, backward = _forward(spec, params, batch.inputs, batch.labels)
    return params.replace(backward(_cross_entropy_grad(out, batch.labels)))


def logits(spec: ModelSpec, params: ParamTree, inputs: np.ndarray) -> np.ndarray:
    inputs = np.asarray(inputs, dtype=np.float64)
    return _forward(spec, params, inputs)[0]


def evaluate(spec: ModelSpec, params: ParamTree, batch: Batch) -> tuple[float, float]:
    """Mean cross-entropy and accuracy from one forward pass."""
    out, _ = _forward(spec, params, batch.inputs, batch.labels)
    pred = np.argmax(out, axis=1)
    return _cross_entropy(out, batch.labels), float(np.mean(pred == batch.labels))


def finite_diff_grad(
    spec: ModelSpec, params: ParamTree, batch: Batch, h: float = 1e-5
) -> ParamTree:
    """Central-difference gradient oracle: (L(p+h e_i) - L(p-h e_i)) / 2h.

    h around 1e-5 balances truncation against roundoff; very large h (say
    1.0) is accepted but inaccurate.
    """
    if h <= 0:
        raise ValueError("finite difference step must be positive")
    out = []
    arrays = [np.array(a, copy=True) for a in params.arrays()]
    for li, arr in enumerate(arrays):
        g = np.zeros_like(arr)
        for i in range(arr.size):
            orig = arr[i]
            arr[i] = orig + h
            lp = loss(spec, params.replace(arrays), batch)
            arr[i] = orig - h
            lm = loss(spec, params.replace(arrays), batch)
            arr[i] = orig
            g[i] = (lp - lm) / (2.0 * h)
        out.append(g)
    return params.replace(out)
