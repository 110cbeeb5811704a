"""Reference forms of fldp's code for the oracles.

Per-tree forms of the row code: norms and clipping act on a one-row stack,
noise on the flat vector, the algebra on the flat vectors, and the sum and
mean add the rows one at a time in sequence order. Per-client forms of the flat
partition: a client's examples as a ``Batch`` view, a partition built from
per-client batches, and the per-client population generator that the flat
one replaced. Single-client forms of the model calls, each the engine's
own kernel entry on a cohort of one, and the central-difference gradient
oracle. Plain-numpy forms of the model kernels' softmax, cross-entropy
gradient and LayerNorm backward pass, each reduction one numpy call.
"""

import numpy as np

from fldp.clipping import clip_rows
from fldp.data import (
    _STREAM_COUNTS,
    _STREAM_INPUTS,
    _STREAM_LABELS,
    _STREAM_MEANS,
    _STREAM_PROBE,
    Batch,
    ClientPartition,
)
from fldp import dp
from fldp.dp import FULL_MASK
from fldp.models import _FORWARD, Workspace, cohort_grad, evaluate
from fldp.param_tree import ParamTree, norm_rows
from fldp.streams import generator

_STREAM_SHUFFLE = 16  # iid_shuffle's stream tag, apart from every fldp tag


def global_norm(tree):
    return float(norm_rows(tree.flat[None, :], tree.layout)[1][0])


def layer_norms(tree):
    norms = norm_rows(tree.flat[None, :], tree.layout)[0][0]
    return {n: float(v) for n, v in zip(tree.names, norms)}


def axpy(alpha, x, y):
    x.layout.require_same(y.layout)
    return ParamTree(alpha * x.flat + y.flat, x.layout)


def sub(x, y):
    x.layout.require_same(y.layout)
    return ParamTree(x.flat - y.flat, x.layout)


def scale(alpha, x):
    return ParamTree(alpha * x.flat, x.layout)


def zeros_like(x):
    return ParamTree(np.zeros(x.layout.total), x.layout)


def sum_rows(rows):
    """Sum of equal-length vectors, added in sequence order."""
    acc = np.array(rows[0], dtype=np.float64, copy=True)
    for row in rows[1:]:
        acc += row
    return acc


def mean_rows(rows):
    """Arithmetic mean of equal-length vectors, summed in sequence order."""
    return sum_rows(rows) / float(len(rows))


def tree_sum(trees):
    """Sum, reduced in list order."""
    return ParamTree(sum_rows([t.flat for t in trees]), trees[0].layout)


def tree_mean(trees):
    """Arithmetic mean, reduced in list order."""
    return ParamTree(mean_rows([t.flat for t in trees]), trees[0].layout)


def clip_tree(tree, spec):
    clipped = clip_rows(tree.flat[None, :], tree.layout, spec)[0]
    return ParamTree(clipped[0], tree.layout)


def add_noise(delta, sigma, mask=FULL_MASK, seed=0):
    """Noise drawn from ``Generator(Philox(seed))``."""
    mask.validate_against(delta.names)
    if sigma == 0.0:
        return delta
    rng = np.random.Generator(np.random.Philox(seed))
    return ParamTree(dp.add_noise(delta.flat, delta.layout, sigma, mask, rng),
                     delta.layout)


def take(batch, idx):
    return Batch(batch.inputs[idx], batch.labels[idx])


def client_batches(partition):
    """Each client's examples as a Batch view, None for an empty client."""
    spans = zip(partition.offsets[:-1].tolist(), partition.offsets[1:].tolist())
    return [Batch(partition.inputs[lo:hi], partition.labels[lo:hi]) if hi > lo
            else None for lo, hi in spans]


def partition_from_batches(batches, probe, num_classes):
    """The flat partition of per-client batches, None marking an empty client."""
    held = [b for b in batches if b is not None]
    sizes = [0 if b is None else b.labels.size for b in batches]
    return ClientPartition(
        np.concatenate([probe.inputs[:0]] + [b.inputs for b in held]),
        np.concatenate([probe.labels[:0]] + [b.labels for b in held]),
        np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)]),
        probe, num_classes)


def iid_shuffle(partition, seed):
    """Every example moved to a uniformly random client; clients may end empty."""
    rng = generator(seed, _STREAM_SHUFFLE)
    assignment = rng.integers(0, partition.num_clients,
                              size=partition.total_examples())
    order = np.argsort(assignment, kind="stable")
    sizes = np.bincount(assignment, minlength=partition.num_clients)
    return ClientPartition(partition.inputs[order], partition.labels[order],
                           np.concatenate([[0], np.cumsum(sizes)]),
                           partition.probe, partition.num_classes)


def _draw_inputs(rng, means, labels, spec):
    if spec.seq_len is None:
        shape = (labels.size, spec.input_dim)
        base = means[labels]
    else:
        shape = (labels.size, spec.seq_len, spec.input_dim)
        base = means[labels][:, None, :]
    level = np.asarray(spec.noise_level)  # scalar or per-dimension stds
    noise = rng.normal(0.0, 1.0, size=shape) * level
    return spec.input_scale * (base + noise)


def per_client_population(spec):
    """The per-client generator: one ``normal`` draw and one Batch per client."""
    means = (
        generator(spec.seed, _STREAM_MEANS).normal(
            size=(spec.num_classes, spec.input_dim)
        )
        * spec.mean_separation
    )
    counts = spec.examples_per_client.sample(
        generator(spec.seed, _STREAM_COUNTS), spec.num_clients
    )
    priors = np.asarray(
        spec.class_priors
        if spec.class_priors is not None
        else [1.0 / spec.num_classes] * spec.num_classes
    )
    label_rng = generator(spec.seed, _STREAM_LABELS)
    input_rng = generator(spec.seed, _STREAM_INPUTS)

    clients = []
    concentration = spec.label_skew_alpha * spec.num_classes * priors
    for cid in range(spec.num_clients):
        class_dist = label_rng.dirichlet(concentration)
        labels = label_rng.choice(spec.num_classes, size=counts[cid], p=class_dist)
        inputs = _draw_inputs(input_rng, means, labels, spec)
        clients.append(Batch(inputs, labels))

    probe_rng = generator(spec.seed, _STREAM_PROBE)
    probe_labels = probe_rng.choice(spec.num_classes, size=spec.probe_size, p=priors)
    probe_inputs = _draw_inputs(probe_rng, means, probe_labels, spec)
    return partition_from_batches(clients, Batch(probe_inputs, probe_labels),
                                  spec.num_classes)


def logits(spec, params, inputs):
    """One client's (B, K) logits: the kernel's first output."""
    return _FORWARD[spec.kind](spec, params.flat[None, :], inputs[None], Workspace())[0][0]


def loss(spec, params, batch):
    """Mean cross-entropy over the batch."""
    return evaluate(spec, params.flat, batch, Workspace())[0]


def grad(spec, params, batch):
    """Gradient of `loss`: ``cohort_grad`` on a one-row cohort."""
    rows = cohort_grad(spec, params.flat[None, :], batch.inputs[None],
                       batch.labels[None], batch.labels.size,
                       np.ones((1, batch.labels.size), dtype=bool), Workspace())
    return ParamTree(rows[0], params.layout)


def finite_diff_grad(spec, params, batch, h=1e-5):
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
        lp = loss(spec, ParamTree(flat, params.layout), batch)
        flat[i] = orig - h
        lm = loss(spec, ParamTree(flat, params.layout), batch)
        flat[i] = orig
        g[i] = (lp - lm) / (2.0 * h)
    return ParamTree(g, params.layout)


def softmax(z):
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy_grad(logits, labels, count, valid):
    c, b = labels.shape
    p = softmax(logits)
    p[np.arange(c)[:, None], np.arange(b), labels] -= 1.0
    p /= count
    p *= valid[..., None]
    return p


def layernorm_backward(dy, gain, cache):
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
