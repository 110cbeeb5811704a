import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import axpy, global_norm, layer_norms, scale, sub, tree_mean, zeros_like

from fldp import param_tree
from fldp.errors import StructureError
from fldp.param_tree import Layout, ParamTree, norm_rows


def random_tree(rng, num_layers=3, max_dim=17):
    layers = []
    for i in range(num_layers):
        dim = int(rng.integers(1, max_dim + 1))
        layers.append((f"layer{i}", rng.normal(size=dim)))
    return ParamTree(layers)


def flat_norm_oracle(tree):
    # Independent scalar loop over the flat concatenation.
    total = 0.0
    for _, arr in tree.items():
        for v in arr:
            total += float(v) * float(v)
    return math.sqrt(total)


def test_global_norm_345_triangle():
    t = ParamTree([("a", [3.0]), ("b", [4.0])])
    assert global_norm(t) == 5.0


def test_global_norm_zero_tree():
    t = ParamTree([("a", [0.0, 0.0]), ("b", [0.0])])
    assert global_norm(t) == 0.0


def test_global_norm_matches_flat_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        t = random_tree(rng)
        assert global_norm(t) == pytest.approx(flat_norm_oracle(t), rel=1e-12)


@pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e200])
def test_norms_survive_underflow_and_overflow_of_squares(scale):
    # The squares of these entries under- or overflow float64.
    t = ParamTree([("a", [3.0 * scale]), ("b", [4.0 * scale])])
    assert global_norm(t) == pytest.approx(5.0 * scale, rel=1e-15)
    norms = layer_norms(ParamTree([("a", [3.0 * scale, 4.0 * scale])]))
    assert norms["a"] == pytest.approx(5.0 * scale, rel=1e-15)


def test_layer_norms_simple():
    t = ParamTree([("a", [3.0, 4.0]), ("b", [0.0])])
    assert layer_norms(t) == {"a": 5.0, "b": 0.0}


def test_layer_norms_all_zero():
    t = ParamTree([("a", [0.0, 0.0]), ("b", [0.0, 0.0, 0.0])])
    assert all(v == 0.0 for v in layer_norms(t).values())


def test_layer_norms_matches_scalar_loop():
    rng = np.random.default_rng(7)
    t = random_tree(rng, num_layers=4)
    for name, arr in t.items():
        expected = math.sqrt(sum(float(v) ** 2 for v in arr))
        assert layer_norms(t)[name] == pytest.approx(expected, rel=1e-12)


def test_norm_decomposition_identity_fuzzed():
    # global_norm(t)^2 == sum of squared layer norms, relative 1e-12.
    rng = np.random.default_rng(1234)
    for _ in range(200):
        t = random_tree(rng, num_layers=int(rng.integers(1, 6)))
        lhs = global_norm(t) ** 2
        rhs = sum(v**2 for v in layer_norms(t).values())
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


# Each row is ordinary, all tiny (squares underflow) or all huge (squares
# overflow), or mixes the three entry by entry.
ROW_SCALES = {"ordinary": [1.0], "tiny": [1e-170], "huge": [1e200],
              "mixed": [1.0, 1e-170, 1e200]}


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data(), sizes=st.lists(st.integers(1, 12), min_size=1, max_size=4),
       kinds=st.lists(st.sampled_from(sorted(ROW_SCALES)), min_size=1, max_size=5))
def test_norm_rows_of_a_stack_are_those_of_each_row(data, sizes, kinds):
    layout = Layout.of(tuple(f"l{i}" for i in range(len(sizes))), tuple(sizes))
    rows = np.array([
        [data.draw(st.floats(-2.0, 2.0)) * data.draw(st.sampled_from(ROW_SCALES[kind]))
         for _ in range(layout.total)]
        for kind in kinds
    ])
    layer_norms, row_norms = norm_rows(rows, layout)
    one_rows = [norm_rows(rows[i:i + 1], layout) for i in range(len(rows))]
    with np.errstate(over="ignore"):  # huge rows overflow their squares
        layer_sqs = np.add.reduceat(rows * rows, layout.starts, axis=1).tolist()
    assert layer_norms.shape == (len(kinds), len(sizes))
    assert row_norms.shape == (len(kinds),)
    for i, (row, (one_layer, one_row), layer_sq) in enumerate(
            zip(rows, one_rows, layer_sqs)):
        assert layer_norms[i].tobytes() == one_layer[0].tobytes()
        assert row_norms[i].tobytes() == one_row[0].tobytes()
        # Unrescued norms are the square roots of the plain sums of squares,
        # the row's sum adding the layer sums in layer order.
        row_sq = 0.0
        for value in layer_sq:
            row_sq += value
        for k, value in enumerate(layer_sq):
            if 1e-290 <= value < math.inf:
                assert layer_norms[i, k] == math.sqrt(value)
            assert layer_norms[i, k] == pytest.approx(
                math.hypot(*row[layout.slices[k]]), rel=1e-12)
        if 1e-290 <= row_sq < math.inf:
            assert row_norms[i] == math.sqrt(row_sq)
        assert row_norms[i] == pytest.approx(math.hypot(*row), rel=1e-12)


def _no_rescue(*args):
    raise AssertionError("an in-range stack took the rescue path")


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(sizes=st.lists(st.integers(1, 12), min_size=1, max_size=6),
       num_rows=st.integers(0, 9), exponent=st.integers(-100, 100),
       seed=st.integers(0, 2**32 - 1))
def test_norm_rows_of_an_in_range_stack_never_rescue(sizes, num_rows, exponent, seed):
    layout = Layout.of(tuple(f"l{i}" for i in range(len(sizes))), tuple(sizes))
    rng = np.random.default_rng(seed)
    rows = rng.uniform(0.5, 2.0, (num_rows, layout.total)) * 10.0 ** exponent
    rows *= rng.choice([-1.0, 1.0], rows.shape)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(param_tree, "_rescaled_norm", _no_rescue)
        mp.setattr(param_tree, "_needs_rescue", _no_rescue)  # not even scanned
        layer_norms, row_norms = norm_rows(rows, layout)
    layer_sq = np.add.reduceat(rows * rows, layout.starts, axis=1)
    row_sq = np.zeros(num_rows)
    for k in range(len(sizes)):  # a row's sum adds its layer sums in order
        row_sq += layer_sq[:, k]
    assert layer_norms.tobytes() == np.sqrt(layer_sq).tobytes()
    assert row_norms.tobytes() == np.sqrt(row_sq).tobytes()


# Stacks whose sums of squares leave [1e-290, inf), with the norms the
# rescue gives them; the scales are powers of two, so the norms are exact.
RESCUED = {
    # layer a's sum 25 * 2**-1400 underflows to zero
    "underflowing-layer": ((2, 2), [[3 * 2.0**-700, 4 * 2.0**-700, 1.0, 0.0]],
                           [[5 * 2.0**-700, 1.0]], [1.0], 1),
    # each layer's sum is 2.25 * 2**1022, the row's overflows
    "overflowing-row": ((1, 1), [[1.5 * 2.0**511, -1.5 * 2.0**511], [3.0, 4.0]],
                        [[1.5 * 2.0**511, 1.5 * 2.0**511], [3.0, 4.0]],
                        [1.5 * 2.0**511 * math.sqrt(2.0), 5.0], 1),
    "nan-entry": ((2, 1), [[math.nan, 1.0, 2.0]], [[math.nan, 2.0]], [math.nan], 2),
}


@pytest.mark.parametrize("case", sorted(RESCUED))
def test_norm_rows_rescues_sums_out_of_range(case, monkeypatch):
    sizes, rows, want_layer, want_row, rescues = RESCUED[case]
    layout = Layout.of(tuple(f"l{i}" for i in range(len(sizes))), sizes)
    rescued, calls = param_tree._rescaled_norm, []

    def spy(values, sum_sq):
        calls.append(sum_sq)
        return rescued(values, sum_sq)

    monkeypatch.setattr(param_tree, "_rescaled_norm", spy)
    with np.errstate(over="ignore", invalid="ignore"):
        layer_norms, row_norms = norm_rows(np.array(rows), layout)
    assert len(calls) == rescues
    np.testing.assert_array_equal(layer_norms, want_layer, strict=True)
    np.testing.assert_array_equal(row_norms, want_row, strict=True)


def test_norm_rows_of_exact_zeros_never_rescue(monkeypatch):
    # A zero sum of squares is below the rescue floor, but a layer or row of
    # exact zeros (of either sign) has the norm +0.0 without one.
    layout = Layout.of(("a", "b", "c"), (5, 1, 7))
    rows = np.zeros((40, layout.total))
    rows[::3] = -0.0
    monkeypatch.setattr(param_tree, "_rescaled_norm", _no_rescue)
    layer_norms, row_norms = norm_rows(rows, layout)
    assert layer_norms.tobytes() == np.zeros((40, 3)).tobytes()
    assert row_norms.tobytes() == np.zeros(40).tobytes()


def test_norm_rows_rescues_only_the_underflowing_layer_beside_zeros(monkeypatch):
    layout = Layout.of(("a", "b", "c"), (2, 2, 1))
    tiny = [3 * 2.0**-700, 4 * 2.0**-700]
    rows = np.array([[0.0, 0.0, *tiny, 1.0], [0.0, -0.0, 0.0, 0.0, 0.0]])
    rescued, calls = param_tree._rescaled_norm, []

    def spy(values, sum_sq):
        calls.append(values.tolist())
        return rescued(values, sum_sq)

    monkeypatch.setattr(param_tree, "_rescaled_norm", spy)
    layer_norms, row_norms = norm_rows(rows, layout)
    assert calls == [tiny]
    np.testing.assert_array_equal(layer_norms, [[0.0, 5 * 2.0**-700, 1.0],
                                                [0.0, 0.0, 0.0]], strict=True)
    np.testing.assert_array_equal(row_norms, [1.0, 0.0], strict=True)
    assert not np.signbit(layer_norms).any() and not np.signbit(row_norms).any()


def test_axpy_alpha_zero_copies_y():
    rng = np.random.default_rng(0)
    x, y = random_tree(rng), None
    y = ParamTree(rng.normal(size=x.layout.total), x.layout)
    assert axpy(0.0, x, y) == y


def test_axpy_identity_cases():
    rng = np.random.default_rng(1)
    x = random_tree(rng)
    zero = zeros_like(x)
    assert axpy(1.0, x, zero) == x
    assert axpy(-1.0, x, x) == zero


def test_axpy_exact_for_integers():
    x = ParamTree([("a", [1.0, 2.0, 3.0]), ("b", [4.0])])
    y = ParamTree([("a", [10.0, 20.0, 30.0]), ("b", [40.0])])
    out = axpy(2.0, x, y)
    assert out["a"].tolist() == [12.0, 24.0, 36.0]
    assert out["b"].tolist() == [48.0]


def test_axpy_rejects_non_congruent_naming_layer():
    x = ParamTree([("a", [1.0]), ("b", [2.0])])
    y = ParamTree([("a", [1.0]), ("c", [2.0])])
    with pytest.raises(StructureError, match="'b' vs 'c'"):
        axpy(1.0, x, y)
    z = ParamTree([("a", [1.0]), ("b", [2.0, 3.0])])
    with pytest.raises(StructureError, match="layer 'b' dim mismatch"):
        axpy(1.0, x, z)


def test_operations_preserve_congruence_and_inputs():
    rng = np.random.default_rng(3)
    x = random_tree(rng)
    y = ParamTree(rng.normal(size=x.layout.total), x.layout)
    x_before = x.flat.copy()
    for out in (axpy(2.5, x, y), axpy(1.0, x, y), sub(x, y), scale(-3.0, x)):
        out.layout.require_same(x.layout)
    assert np.array_equal(x.flat, x_before)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data(), sizes=st.lists(st.integers(1, 6), min_size=1, max_size=5),
       edit=st.sampled_from(["none", "rename", "drop_tail", "resize"]),
       resize_last=st.booleans())
def test_require_same_names_the_first_differing_layer(data, sizes, edit, resize_last):
    names, sizes = tuple(f"l{i}" for i in range(len(sizes))), tuple(sizes)
    other_names, other_sizes = list(names), list(sizes)
    i = data.draw(st.integers(0, len(names) - 1))
    # (message of layout.require_same(other), of other.require_same(layout))
    messages = None
    if edit == "rename":
        other_names[i] = "renamed"
        messages = (f"layer {i} name mismatch: {names[i]!r} vs 'renamed'",
                    f"layer {i} name mismatch: 'renamed' vs {names[i]!r}")
    elif edit == "drop_tail":
        del other_names[i:], other_sizes[i:]
        unmatched = f"(first unmatched layer {names[i]!r})"
        messages = (f"layer count mismatch: {len(names)} vs {i} {unmatched}",
                    f"layer count mismatch: {i} vs {len(names)} {unmatched}")
    elif edit == "resize":
        other_sizes[i] = data.draw(st.integers(1, 7).filter(lambda s: s != sizes[i]))
        messages = (f"layer {names[i]!r} dim mismatch: {sizes[i]} vs {other_sizes[i]}",
                    f"layer {names[i]!r} dim mismatch: {other_sizes[i]} vs {sizes[i]}")
    if resize_last and edit in ("rename", "resize") and i < len(names) - 1:
        other_sizes[-1] += 1  # a later difference is not the one reported
    # Fresh layouts, so equal ones are not the same object.
    layout = Layout(names, sizes)
    other = Layout(tuple(other_names), tuple(other_sizes))
    differ = (layout.names, layout.sizes) != (other.names, other.sizes)
    assert differ == (messages is not None)
    for a, b, k in ((layout, other, 0), (other, layout, 1)):
        if messages is None:
            a.require_same(b)
        else:
            with pytest.raises(StructureError) as info:
                a.require_same(b)
            assert str(info.value) == messages[k]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(layers=st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=1, max_size=5),
                       min_size=1, max_size=5))
def test_constructors_agree_and_layers_are_read_only_views(layers):
    pairs = [(f"l{i}", np.array(values)) for i, values in enumerate(layers)]
    tree = ParamTree(pairs)
    flat = np.concatenate([values for _, values in pairs])
    assert tree == ParamTree(flat, tree.layout)
    assert tree.flat.tobytes() == flat.tobytes()
    assert ParamTree(tree.flat, tree.layout).flat is tree.flat
    for (name, values), (item_name, item) in zip(pairs, tree.items()):
        assert item_name == name
        for layer in (tree[name], item):
            assert np.shares_memory(layer, tree.flat)
            assert not layer.flags.writeable
            assert layer.tobytes() == values.tobytes()


def test_arrays_are_read_only():
    t = ParamTree([("a", [1.0, 2.0])])
    with pytest.raises(ValueError):
        t["a"][0] = 9.0


def test_duplicate_layer_names_rejected():
    with pytest.raises(StructureError, match="duplicate"):
        ParamTree([("a", [1.0]), ("a", [2.0])])


def test_empty_layer_rejected():
    with pytest.raises(StructureError, match="empty"):
        ParamTree([("a", [])])


def test_json_round_trip_preserves_order_and_values():
    rng = np.random.default_rng(11)
    t = random_tree(rng, num_layers=5)
    back = ParamTree.from_json(t.to_json())
    assert back == t
    assert back.names == t.names


def test_tree_mean():
    a = ParamTree([("w", [1.0, 2.0])])
    b = ParamTree([("w", [3.0, 6.0])])
    assert tree_mean([a]) == a
    assert tree_mean([a, scale(-1.0, a)]) == zeros_like(a)
    m = tree_mean([b, b, b])
    assert m == b


def test_tree_mean_reduces_in_list_order():
    # 1 + 1e16 rounds to 1e16, so only the list order gives exactly 0.
    trees = [ParamTree([("w", [v])]) for v in (1.0, 1e16, -1e16)]
    assert tree_mean(trees)["w"][0] == 0.0
    assert tree_mean(trees[::-1])["w"][0] == 1.0 / 3.0
