import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import clip_tree, global_norm, layer_norms

from fldp.clipping import (
    ClipSpec,
    ClipVariant,
    PER_LAYER_VARIANTS,
    bound_vector,
    clip_rows,
)
from fldp.errors import ConfigError
from fldp.param_tree import Layout, ParamTree


def random_tree(rng, num_layers=None, scale=1.0):
    k = num_layers or int(rng.integers(1, 6))
    return ParamTree(
        (f"l{i}", scale * rng.normal(size=int(rng.integers(1, 9))))
        for i in range(k)
    )


def bounds_by_name(spec, tree):
    return dict(zip(tree.names, bound_vector(spec, tree.layout)))


def per_layer_spec(variant, bound, tree=None):
    if variant == ClipVariant.PER_LAYER_WEIGHTED:
        weights = {name: 1.0 + i for i, name in enumerate(tree.names)}
        return ClipSpec(bound, variant, weights)
    return ClipSpec(bound, variant)


def test_clip_global_within_bound_is_identity():
    t = ParamTree([("a", [0.3]), ("b", [0.4])])  # norm 0.5
    out = clip_tree(t, ClipSpec(1.0))
    assert out == t
    # bitwise pass-through, not a rescaled copy
    assert out["a"].tobytes() == t["a"].tobytes()


def test_clip_global_scales_to_bound():
    t = ParamTree([("a", [1.2]), ("b", [1.6])])  # norm 2
    out = clip_tree(t, ClipSpec(1.0))
    assert global_norm(out) == pytest.approx(1.0, rel=1e-15)
    np.testing.assert_allclose(out["a"], [0.6])


def test_clip_global_zero_bound_gives_zero_tree():
    t = ParamTree([("a", [1.0, -2.0])])
    out = clip_tree(t, ClipSpec(0.0))
    assert np.all(out["a"] == 0.0)


def test_clip_global_zero_tree_unchanged():
    t = ParamTree([("a", [0.0, 0.0])])
    assert clip_tree(t, ClipSpec(0.0)) == t


def test_uniform_bounds_k4():
    t = ParamTree((f"l{i}", [1.0]) for i in range(4))
    bounds = bounds_by_name(ClipSpec(0.01, ClipVariant.PER_LAYER_UNIFORM), t)
    assert all(b == 0.005 for b in bounds.values())


def test_dim_bounds_3_1():
    t = ParamTree([("big", [1.0, 1.0, 1.0]), ("small", [1.0])])
    bounds = bounds_by_name(ClipSpec(2.0, ClipVariant.PER_LAYER_DIM), t)
    assert bounds["big"] == pytest.approx(math.sqrt(3.0), rel=1e-15)
    assert bounds["small"] == pytest.approx(1.0, rel=1e-15)


def test_weighted_bounds_and_missing_weight_error():
    t = ParamTree([("a", [1.0, 1.0]), ("b", [1.0])])
    spec = ClipSpec(1.0, ClipVariant.PER_LAYER_WEIGHTED, {"a": 3.0, "b": 2.0})
    bounds = bounds_by_name(spec, t)
    assert bounds["a"] == pytest.approx(math.sqrt(6.0 / 8.0), rel=1e-15)
    assert bounds["b"] == pytest.approx(math.sqrt(2.0 / 8.0), rel=1e-15)
    bad = ClipSpec(1.0, ClipVariant.PER_LAYER_WEIGHTED, {"a": 3.0})
    with pytest.raises(ConfigError, match="missing weights"):
        clip_rows(t.flat[None, :], t.layout, bad)


@pytest.mark.parametrize("variant", PER_LAYER_VARIANTS, ids=lambda v: v.value)
def test_budget_identity(variant):
    rng = np.random.default_rng(5)
    for _ in range(50):
        t = random_tree(rng)
        spec = per_layer_spec(variant, 0.37, t)
        bounds = bounds_by_name(spec, t)
        assert sum(b**2 for b in bounds.values()) == pytest.approx(
            spec.bound**2, rel=1e-12
        )


@pytest.mark.parametrize(
    "variant",
    [ClipVariant.GLOBAL, *PER_LAYER_VARIANTS],
    ids=lambda v: v.value,
)
def test_fuzzed_postclip_norm_and_idempotence(variant):
    rng = np.random.default_rng(77)
    bound = 0.05
    for _ in range(1000):
        t = random_tree(rng, scale=float(rng.uniform(1e-4, 10.0)))
        spec = per_layer_spec(variant, bound, t)
        clipped = clip_tree(t, spec)
        assert global_norm(clipped) <= bound * (1 + 1e-12)
        again = clip_tree(clipped, spec)
        assert again == clipped


_VALUES = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
_SLACK = 1 + 1e-12


@st.composite
def tree_and_spec(draw, variant):
    layers = draw(st.lists(st.lists(_VALUES, min_size=1, max_size=8),
                           min_size=1, max_size=5))
    tree = ParamTree((f"l{i}", values) for i, values in enumerate(layers))
    bound = draw(st.floats(0.0, 1e3, allow_subnormal=False))
    weights = None
    if variant == ClipVariant.PER_LAYER_WEIGHTED:
        weights = {name: draw(st.floats(0.1, 10.0)) for name in tree.names}
    return tree, ClipSpec(bound, variant, weights)


@pytest.mark.parametrize("variant", list(ClipVariant), ids=lambda v: v.value)
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data())
def test_clip_tree_properties(variant, data):
    tree, spec = data.draw(tree_and_spec(variant))
    out = clip_tree(tree, spec)
    assert global_norm(out) <= spec.bound * _SLACK
    if variant == ClipVariant.GLOBAL:
        # The whole tree is the one clipping unit.
        bounds = {name: spec.bound for name in tree.names}
        before = {name: global_norm(tree) for name in tree.names}
    else:
        bounds = bounds_by_name(spec, tree)
        before = layer_norms(tree)
        after = layer_norms(out)
        for name in tree.names:
            assert after[name] <= bounds[name] * _SLACK
    for name in tree.names:
        if before[name] <= bounds[name]:
            assert out[name].tobytes() == tree[name].tobytes()


# Row scales whose squared entries underflow to subnormals or to zero.
_ROW_SCALES = st.sampled_from([1.0, 1e-160, 1e-200, 0.0])


@st.composite
def stack_and_spec(draw, variant):
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    layout = Layout.of(tuple(f"l{i}" for i in range(len(sizes))), tuple(sizes))
    rows = [
        np.array(draw(st.lists(_VALUES, min_size=layout.total,
                               max_size=layout.total))) * draw(_ROW_SCALES)
        for _ in range(draw(st.integers(1, 6)))
    ]
    bound = draw(st.floats(0.0, 1e3, allow_subnormal=False)) * draw(
        st.sampled_from([1.0, 1e-160]))
    weights = None
    if variant == ClipVariant.PER_LAYER_WEIGHTED:
        weights = {name: draw(st.floats(0.1, 10.0)) for name in layout.names}
    return np.array(rows), layout, ClipSpec(bound, variant, weights)


@pytest.mark.parametrize("variant", list(ClipVariant), ids=lambda v: v.value)
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data())
def test_clip_rows_clips_each_row_like_clip_tree(variant, data):
    # One clipping implementation: every row of a stack, underflowing rows
    # included, clips bit for bit like clip_tree on that row alone.
    rows, layout, spec = data.draw(stack_and_spec(variant))
    clipped, factors = clip_rows(rows, layout, spec)
    assert clipped.shape == rows.shape
    assert factors.shape == (rows.shape[0], len(layout.names))
    for row, got in zip(rows, clipped):
        want = clip_tree(ParamTree(row, layout), spec)
        assert got.tobytes() == want.flat.tobytes()
        assert global_norm(want) <= spec.bound * _SLACK


def test_per_layer_never_increases_any_layer_norm():
    rng = np.random.default_rng(9)
    for _ in range(200):
        t = random_tree(rng, scale=2.0)
        spec = ClipSpec(0.1, ClipVariant.PER_LAYER_UNIFORM)
        before = layer_norms(t)
        after = layer_norms(clip_tree(t, spec))
        for name in t.names:
            assert after[name] <= before[name] * (1 + 1e-15)


def test_per_layer_leaves_small_layers_bitwise_unchanged():
    t = ParamTree([("tiny", [1e-6]), ("huge", [10.0, 10.0])])
    spec = ClipSpec(0.01, ClipVariant.PER_LAYER_UNIFORM)
    out = clip_tree(t, spec)
    assert out["tiny"].tobytes() == t["tiny"].tobytes()
    assert layer_norms(out)["huge"] == pytest.approx(0.01 / math.sqrt(2), rel=1e-15)


def test_clip_global_infinite_bound_identity():
    rng = np.random.default_rng(10)
    t = random_tree(rng, scale=100.0)
    assert clip_tree(t, ClipSpec(math.inf)) == t


def test_clipspec_validation():
    with pytest.raises(ConfigError):
        ClipSpec(-1.0)
    with pytest.raises(ConfigError):
        ClipSpec(1.0, ClipVariant.PER_LAYER_WEIGHTED, None)
    with pytest.raises(ConfigError):
        ClipSpec(1.0, ClipVariant.PER_LAYER_UNIFORM, {"a": 1.0})
    with pytest.raises(ConfigError):
        bound_vector(ClipSpec(1.0, ClipVariant.GLOBAL), Layout.of(("a",), (1,)))


@pytest.mark.parametrize("variant", list(ClipVariant))
def test_row_whose_squares_overflow_clips_without_a_warning(variant):
    # 1e200 squared overflows float64; the norm is rescued, not warned about
    # (the suite turns numpy's RuntimeWarnings into errors).
    layout = Layout.of(("a", "b"), (2, 1))
    rows = np.array([[1e200, -3e199, 0.5]])
    spec = per_layer_spec(variant, 0.1, ParamTree(rows[0], layout))
    clipped, factors = clip_rows(rows, layout, spec)
    assert np.all(factors < 1.0)
    if variant == ClipVariant.GLOBAL:
        assert global_norm(ParamTree(clipped[0], layout)) == pytest.approx(0.1, rel=1e-12)
        assert factors[0, 0] == pytest.approx(0.1 / math.hypot(*rows[0]), rel=1e-12)
    else:
        bounds = bound_vector(spec, layout)
        for k, span in enumerate(layout.slices):
            assert factors[0, k] == pytest.approx(
                bounds[k] / math.hypot(*rows[0, span]), rel=1e-12)
