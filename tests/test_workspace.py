"""The kernels' workspace: held arrays change no bit of any result.

A ``Workspace`` hands its arrays back with whatever the last user left in
them, so every kernel must write each array before it reads it. The oracle
is a fresh workspace per call: results from a reused workspace, and from
one whose every array was filled with NaN between calls, must have its
bytes. The pins check the numpy forms the kernels moved to (per-client
matmuls on the strided views of batch-major stacks, into an ``out=`` view,
residual adds in place) against the fresh-array forms on contiguous
client-first stacks, and each row of a cohort's gradient against the
client's gradient alone. A run in a process that already ran another
model must write the bytes of the same run made alone.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import fldp
from fldp import models
from fldp.cli import main
from fldp.models import (
    Batch,
    ModelKind,
    ModelSpec,
    Workspace,
    _apply,
    _outer,
    cohort_grad,
    evaluate,
    init_params,
)

SPECS = {
    ModelKind.LINEAR_SOFTMAX: ModelSpec(ModelKind.LINEAR_SOFTMAX, input_dim=5,
                                        num_classes=3),
    ModelKind.MLP_LAYERNORM: ModelSpec(ModelKind.MLP_LAYERNORM, input_dim=5,
                                       num_classes=3, hidden_dim=6),
    ModelKind.TINY_ATTENTION: ModelSpec(ModelKind.TINY_ATTENTION, input_dim=5,
                                        num_classes=3, hidden_dim=6, seq_len=4),
}
BATCH = 7


def example_shape(spec):
    if spec.kind == ModelKind.TINY_ATTENTION:
        return (spec.seq_len, spec.input_dim)
    return (spec.input_dim,)


def cohort(spec, clients, seed, batch=BATCH):
    """Parameter rows, batch-major minibatches and a padding mask of
    `clients` clients."""
    rng = np.random.default_rng(seed)
    start = init_params(spec, seed).flat
    rows = start + 0.3 * rng.normal(size=(clients, start.size))
    inputs = rng.normal(size=(batch, clients, *example_shape(spec)))
    labels = rng.integers(0, spec.num_classes, size=(batch, clients))
    valid = rng.random((batch, clients)) < 0.8
    valid[0] = True
    count = valid.sum(axis=0)[:, None]
    return rows, inputs, labels, count, valid


def clients_of(args, lo, hi):
    """Clients lo to hi of a cohort's arguments."""
    rows, inputs, labels, count, valid = args
    return (rows[lo:hi], inputs[:, lo:hi], labels[:, lo:hi], count[lo:hi],
            valid[:, lo:hi])


def probe(spec, seed):
    rng = np.random.default_rng(seed)
    params = init_params(spec, seed).flat
    params = params + 0.3 * rng.normal(size=params.size)
    inputs = rng.normal(size=(40, *example_shape(spec)))
    return params, Batch(inputs, rng.integers(0, spec.num_classes, size=40))


def calls(spec):
    """Gradient calls on shrinking prefixes, then a larger cohort, then probes.

    The prefixes are an epochs cohort's steps; the larger cohort grows every
    array after the smaller ones.
    """
    args = cohort(spec, 6, 1)
    out = [("grad", clients_of(args, 0, k)) for k in (6, 4, 4, 1)]
    out.append(("grad", cohort(spec, 9, 2)))
    out += [("probe", probe(spec, 3)), ("grad", cohort(spec, 3, 4)),
            ("probe", probe(spec, 5))]
    return out


def run(spec, call, workspace):
    kind, args = call
    if kind == "grad":
        return cohort_grad(spec, *args, workspace).tobytes()
    params, batch = args
    return np.array(evaluate(spec, params, batch, workspace)).tobytes()


def poison(workspace):
    for held in workspace.held.values():
        held.fill(np.nan)


@pytest.fixture(params=["column", "numpy"])
def reductions(request, monkeypatch):
    """Force the short-axis helpers' column forms on (cut-offs 0) or off."""
    cut = 0 if request.param == "column" else 10**12
    for name in ("_SUM_ROWS_PER_COLUMN", "_MAX_ROWS_PER_COLUMN"):
        monkeypatch.setattr(models, name, cut)


@pytest.mark.parametrize("kind", list(ModelKind))
def test_reused_and_poisoned_workspaces_give_the_bytes_of_a_fresh_one(
        kind, reductions):
    spec = SPECS[kind]
    fresh = [run(spec, call, Workspace()) for call in calls(spec)]
    reused, poisoned = Workspace(), Workspace()
    for call, want in zip(calls(spec), fresh):
        assert run(spec, call, reused) == want
        assert run(spec, call, poisoned) == want
        poison(poisoned)
    assert poisoned.held and all(np.isnan(a).all() for a in poisoned.held.values())


@pytest.mark.parametrize("kind", list(ModelKind))
def test_calls_at_the_same_or_a_smaller_shape_allocate_no_array(kind):
    spec = SPECS[kind]
    args = cohort(spec, 6, 1)
    params, batch = probe(spec, 3)
    ws = Workspace()
    cohort_grad(spec, *args, ws)
    evaluate(spec, params, batch, ws)
    held = dict(ws.held)
    for k in (6, 5, 2):
        cohort_grad(spec, *clients_of(args, 0, k), ws)
        evaluate(spec, params, batch, ws)
    assert ws.held.keys() == held.keys()
    assert all(ws.held[name] is array for name, array in held.items())


def test_take_hands_out_a_prefix_of_the_held_array():
    ws = Workspace()
    big = ws.take("a", (3, 4, 5))
    small = ws.take("a", (2, 5))
    assert small.flags.c_contiguous and small.shape == (2, 5)
    assert np.shares_memory(big, small) and ws.held["a"].size == 60
    grown = ws.take("a", (7, 10))
    assert ws.held["a"].size == 70 and not np.shares_memory(big, grown)


# -- pins: the out= forms are the fresh-array forms, bit for bit ----------------

# The paper's mlp stack, an attention training stack and the attention
# probe, client-first: (C, B, n) and (C, B, S, n).
STACKS = [(1025, 12, 8), (32, 8, 8, 16), (1, 512, 8, 16)]


@st.composite
def stacks(draw):
    shape = draw(st.sampled_from(STACKS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    scale = draw(st.sampled_from([1e-3, 1.0, 50.0]))
    a = rng.normal(scale=scale, size=shape)
    rows = a.reshape(-1, shape[-1])
    for i in draw(st.lists(st.integers(0, rows.shape[0] - 1), max_size=3)):
        rows[i] = draw(st.sampled_from([0.0, -0.0, 1e4, -3e6]))
    return a, rng


def poisoned_like(shape):
    return np.full(shape, np.nan)


def batch_major(a):
    """A client-first (C, ..., n) stack as the kernels hold it, (..., C, n)."""
    return np.ascontiguousarray(np.moveaxis(a, 0, -2))


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(case=stacks(), width=st.sampled_from([4, 16, 48]), transposed=st.booleans())
def test_apply_into_a_view_is_the_fresh_matmul_bitwise(
        case, width, transposed):
    # A client's rows of a batch-major stack are a strided matrix; their
    # product must be the product of the client's contiguous rows.
    a, rng = case
    c, n = a.shape[0], a.shape[-1]
    w = rng.normal(size=(c, width, n) if transposed else (c, n, width))
    w = w.transpose(0, 2, 1) if transposed else w  # the kernels' w^T views
    want = batch_major((a.reshape(c, -1, n) @ w).reshape(*a.shape[:-1], width))
    got = _apply(batch_major(a), w, poisoned_like(want.shape))
    assert got.tobytes() == want.tobytes()


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(case=stacks(), width=st.sampled_from([4, 8, 16]))
def test_outer_into_gradient_columns_is_the_fresh_matmul_bitwise(case, width):
    # The gradient of a (width, n) layer goes straight into its columns of
    # the (C, P) gradient rows: a view with the row stride of P.
    a, rng = case
    c, n = a.shape[0], a.shape[-1]
    b = rng.normal(size=(*a.shape[:-1], width))
    want = a.reshape(c, -1, n).transpose(0, 2, 1) @ b.reshape(c, -1, width)
    grad = poisoned_like((c, 3 + n * width + 5))
    view = grad[:, 3 : 3 + n * width].reshape(c, n, width)
    assert np.shares_memory(view, grad)
    _outer(batch_major(a), batch_major(b), view)
    assert view.tobytes() == want.tobytes()
    assert np.isnan(grad[:, :3]).all() and np.isnan(grad[:, 3 + n * width :]).all()


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(case=stacks())
def test_attention_matmuls_into_column_blocks_are_the_fresh_matmul_bitwise(case):
    # The scores and their products run per (example, client) on
    # (B, C, S, d) views of the (B, S, C, 3d) stream, and dq, dk and dv go
    # into such views; each must be the product of contiguous matrices.
    a, rng = case
    if a.ndim != 4:
        a = a.reshape(a.shape[0], -1, 4, a.shape[-1])
    d, s = a.shape[-1], a.shape[-2]
    qkv = np.concatenate([a, rng.normal(size=a.shape), rng.normal(size=a.shape)],
                         axis=-1)  # client-first, (C, B, S, 3d)
    stream = np.ascontiguousarray(qkv.transpose(1, 2, 0, 3))  # (B, S, C, 3d)
    views = [stream[..., i * d : (i + 1) * d].swapaxes(1, 2) for i in range(3)]
    q, k, v = views
    dense = [np.ascontiguousarray(x) for x in views]
    want_scores = dense[0] @ dense[1].swapaxes(-1, -2)
    scores = np.matmul(q, k.swapaxes(-1, -2), out=poisoned_like(want_scores.shape))
    assert scores.tobytes() == want_scores.tobytes()
    att = rng.random(size=(*q.shape[:-1], s))
    out = poisoned_like(stream.shape)
    for j, i in enumerate((2, 0, 1)):  # dv, dq, dk
        want = att.swapaxes(-1, -2) @ dense[i]
        got = np.matmul(att.swapaxes(-1, -2), views[i],
                        out=out[..., j * d : (j + 1) * d].swapaxes(1, 2))
        assert got.tobytes() == want.tobytes()
    assert not np.isnan(out).any()


# The paper's mlp cohort, 1025 clients with minibatches of 12, and the
# attention_epochs cohort, 32 clients with minibatches of 8; then one-wide
# inputs and hidden layers, whose products BLAS runs as matrix-vector ones.
ROW_CASES = {
    "mlp": (ModelSpec(ModelKind.MLP_LAYERNORM, input_dim=8, num_classes=4,
                      hidden_dim=8), 1025, 12),
    "attention": (ModelSpec(ModelKind.TINY_ATTENTION, input_dim=8, num_classes=4,
                            hidden_dim=16, seq_len=8), 32, 8),
    "mlp-one-wide": (ModelSpec(ModelKind.MLP_LAYERNORM, input_dim=1, num_classes=3,
                               hidden_dim=1), 40, 12),
    "attention-one-wide": (ModelSpec(ModelKind.TINY_ATTENTION, input_dim=1,
                                     num_classes=3, hidden_dim=1, seq_len=8), 16, 8),
}


@pytest.mark.parametrize("case", list(ROW_CASES))
def test_each_row_of_a_cohort_gradient_is_the_client_alone_bitwise(case):
    spec, clients, batch = ROW_CASES[case]
    args = cohort(spec, clients, 6, batch=batch)
    rows = cohort_grad(spec, *args, Workspace())
    alone = Workspace()
    for c in range(clients):
        one = cohort_grad(spec, *clients_of(args, c, c + 1), alone)
        assert one[0].tobytes() == rows[c].tobytes(), c


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(case=stacks())
def test_residual_add_in_place_is_the_fresh_add_bitwise(case):
    h, rng = case
    proj = rng.normal(scale=rng.choice([1e-3, 1.0, 1e6]), size=h.shape)
    want = h + proj
    h += proj
    assert h.tobytes() == want.tobytes()


# -- no state outlives a run ------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent

ATTENTION_CONFIG = {
    "model": {"kind": "tiny_attention", "input_dim": 8, "num_classes": 4,
              "hidden_dim": 16, "seq_len": 8},
    "population": {
        "num_clients": 512,
        "examples_per_client": {"kind": "power", "exponent": 1.5, "scale": 4.0,
                                "cap": 64},
        "label_skew_alpha": 0.3, "noise_level": 0.6, "probe_size": 512, "seed": 7,
    },
    "federation": {
        "rounds": 3, "seed": 123,
        "cohort": {"mode": "fixed_size", "size": 32},
        "local": {"mode": "epochs", "count": 1, "batch_size": 8, "lr": 0.05,
                  "clip_bound": 1.0},
        "fedprox_mu": 0.1,
        "clip": {"variant": "dim", "bound": 0.01},
        "privacy": {"sigma": 1.0e-3, "sigma_kind": "client", "delta": 1.0e-9},
        "central": {"optimizer": "adam",
                    "schedule": {"kind": "constant", "base_lr": 0.01}},
    },
}


def demo_config():
    raw = yaml.safe_load((ROOT / "configs" / "demo.yaml").read_text())
    raw["federation"]["rounds"] = 3
    return raw


def test_a_run_after_another_model_writes_the_bytes_of_the_run_made_alone(
        tmp_path, capsys):
    configs = {"attention": ATTENTION_CONFIG, "demo": demo_config()}
    for name, raw in configs.items():
        (tmp_path / f"{name}.yaml").write_text(yaml.safe_dump(raw))
    # Both in this process, one after the other.
    for name in configs:
        assert main(["simulate", "--config", str(tmp_path / f"{name}.yaml"),
                     "--out", str(tmp_path / "together" / name)]) == 0
    capsys.readouterr()
    # Each alone, in a fresh interpreter.
    env = dict(os.environ, PYTHONPATH=str(Path(fldp.__file__).resolve().parent.parent))
    for name in configs:
        subprocess.run(
            [sys.executable, "-m", "fldp.cli", "simulate",
             "--config", str(tmp_path / f"{name}.yaml"),
             "--out", str(tmp_path / "alone" / name)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        for artifact in ("metrics.jsonl", "final_params.json"):
            alone = (tmp_path / "alone" / name / artifact).read_bytes()
            assert (tmp_path / "together" / name / artifact).read_bytes() == alone
        assert len(alone) > 0
