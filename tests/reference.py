"""Per-tree forms of fldp's row code for the oracles: norms, clipping and
noise act on a one-row stack, the algebra on the flat vectors."""

import numpy as np

from fldp.clipping import clip_rows
from fldp.data import Batch, ClientDataset, ClientPartition
from fldp.dp import FULL_MASK, add_noise_rows
from fldp.param_tree import ParamTree, global_norm_rows, layer_norm_rows, mean_rows
from fldp.streams import generator

_STREAM_SHUFFLE = 16  # iid_shuffle's stream tag, apart from every fldp tag


def global_norm(tree):
    return float(global_norm_rows(tree.flat[None, :], tree.layout)[0])


def layer_norms(tree):
    norms = layer_norm_rows(tree.flat[None, :], tree.layout)[0]
    return {n: float(v) for n, v in zip(tree.names, norms)}


def axpy(alpha, x, y):
    x.require_congruent(y)
    return x.with_flat(alpha * x.flat + y.flat)


def sub(x, y):
    x.require_congruent(y)
    return x.with_flat(x.flat - y.flat)


def scale(alpha, x):
    return x.with_flat(alpha * x.flat)


def zeros_like(x):
    return x.with_flat(np.zeros(x.layout.total))


def tree_mean(trees):
    """Arithmetic mean, reduced in list order."""
    return trees[0].with_flat(mean_rows([t.flat for t in trees]))


def clip_tree(tree, spec):
    """Unscaled layers keep their identity, not only their bits."""
    rows = tree.flat[None, :]
    clipped, factors = clip_rows(rows, tree.layout, spec)
    if clipped is rows:
        return tree
    return ParamTree((name, arr if factor == 1.0 else clipped[0, span])
                     for (name, arr), factor, span
                     in zip(tree.items(), factors[0], tree.layout.slices))


def add_noise(delta, sigma_client, mask=FULL_MASK, seed=0):
    """Noise drawn from ``Generator(Philox(seed))``."""
    mask.validate_against(delta.names)
    if sigma_client == 0.0:
        return delta
    key = np.random.Philox(seed).state["state"]["key"]
    noised = add_noise_rows(delta.flat[None, :], delta.layout, sigma_client,
                            mask, key[None, :])
    return delta.with_flat(noised[0])


def take(batch, idx):
    return Batch(batch.inputs[idx], batch.labels[idx])


def iid_shuffle(partition, seed):
    """Every example moved to a uniformly random client; empty clients stay."""
    stacks = [c.data for c in partition.clients if c.data is not None]
    whole = Batch(np.concatenate([b.inputs for b in stacks]),
                  np.concatenate([b.labels for b in stacks]))
    rng = generator(seed, _STREAM_SHUFFLE)
    assignment = rng.integers(0, partition.num_clients, size=whole.size)
    clients = []
    for cid in range(partition.num_clients):
        idx = np.nonzero(assignment == cid)[0]
        clients.append(ClientDataset(cid, take(whole, idx) if idx.size else None))
    return ClientPartition(tuple(clients), partition.probe, partition.num_classes)
