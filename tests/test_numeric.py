"""Forward oracles and gradient checks for the tape-based numeric core.

Expected values are computed independently inside each test (explicit loops
or closed-form math), never by calling the code under test twice.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mvnet.model import attention_scores, attention_weights, select
from mvnet.numeric import (
    Graph,
    NumericError,
    ShapeError,
    attend_heads,
    concat_rows,
    cross_entropy,
    finite_diff_check,
    gather_rows,
    linear,
    matvec,
    mean_scalars,
    mul,
    pool_windows,
    require_finite,
    reshape,
    softmax_vec,
    sum_all,
    tanh_ew,
    transpose,
)
import reference
from reference import padded, unfold, unstack

def _leaf(graph, array):
    return graph.tensor(np.asarray(array, dtype=np.float64), requires_grad=True)


def _window_pool_loop(table, ids, filters, biases):
    """pool_windows by explicit loops: row k * B + b is the largest response
    of filter k over text b's windows p <= max(length - n, 0), each window
    the text's rows p..p+n-1 end to end, the pad row (row 0) past its end."""
    out = []
    for f, bias in zip(filters, biases):
        n = f.shape[1] // table.shape[1]
        for row in ids:
            length = sum(1 for s in row if s >= 0)
            text = [table[max(s, 0)] for s in row]
            responses = [np.tanh(f @ np.concatenate(text[p:p + n]) + bias)
                         for p in range(max(length - n, 0) + 1)]
            out.append(np.max(responses, axis=0))
    return np.array(out)


def _pool_results(op, table, ids, filters, biases, weights):
    """``op``'s pooled rows and the gradients of the table, every filter and
    every bias under the loss sum(weights * pooled), each on a fresh graph."""
    g = Graph()
    leaves = [_leaf(g, table), *(_leaf(g, f) for f in filters), *(_leaf(g, b) for b in biases)]
    out = op(leaves[0], ids, leaves[1:1 + len(filters)], leaves[1 + len(filters):])
    g.backward(sum_all(mul(out, g.tensor(weights))))
    return [out.value, *(leaf.grad for leaf in leaves)]


def _assert_same_bytes(results, expected):
    assert len(results) == len(expected)
    for got, want in zip(results, expected):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@st.composite
def pool_batches(draw):
    """A batch for pool_windows: B texts of up to T positions, each text's
    rows then -1, over a table of 2-8 rows (so windows repeat), and 2-4
    filters of unsorted orders up to T + 3, some wider than every text."""
    batch, positions = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    rows, width = draw(st.integers(2, 8)), draw(st.integers(1, 4))
    orders = draw(st.lists(st.integers(1, positions + 3), min_size=2, max_size=4))
    lengths = draw(st.lists(st.integers(0, positions), min_size=batch, max_size=batch))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return batch, positions, rows, width, orders, lengths, seed


def _attention_leaves(graph, rng, rows, width, heads, size=3):
    """A (rows, width) table and ``heads`` transforms and score vectors."""
    return (_leaf(graph, rng.normal(size=(rows, width))),
            [_leaf(graph, rng.normal(size=(size, width)) * 0.6) for _ in range(heads)],
            [_leaf(graph, rng.normal(size=size)) for _ in range(heads)])


# Each text's rows of a 5-row table: unpadded, padded (False past a text's
# end, where ``padded`` writes -1) and with a row repeated within and across
# texts.
ATTENTION_BATCHES = {
    "unpadded": ([[1, 2, 3], [4, 0, 2]], None),
    "padded": ([[1, 2, 3, 4], [3, 1, 0, 0]], [[True] * 4, [True, True, False, False]]),
    "repeated": ([[2, 2, 1, 2], [2, 4, 4, 0]], [[True] * 4, [True, True, True, False]]),
}


class TestForwardOracles:
    def test_matvec_matches_loop(self, rng):
        a = rng.normal(size=(3, 4))
        x = rng.normal(size=4)
        expected = np.array([sum(a[i, k] * x[k] for k in range(4)) for i in range(3)])
        g = Graph()
        out = matvec(_leaf(g, a), _leaf(g, x))
        np.testing.assert_allclose(out.value, expected, rtol=0, atol=1e-14)

    def test_unfold_matches_window_loop(self, rng):
        a = rng.normal(size=(5, 3))
        expected = np.array([np.concatenate([a[p + k] for k in range(3)])
                             for p in range(5 - 3 + 1)])
        g = Graph()
        out = unfold(_leaf(g, a), 3)
        assert out.shape == (3, 9)
        np.testing.assert_array_equal(out.value, expected)

    def test_pool_windows_matches_window_loop(self, rng):
        # Orders 1 and 3 over a padded batch; the 2-token text is shorter
        # than the order-3 window and keeps its single padded window.
        table = rng.normal(size=(6, 4))
        ids = np.array([[1, 2, 3, 4, 5], [5, 5, -1, -1, -1], [2, 1, 4, -1, -1]])
        filters = [rng.normal(size=(4, 4)), rng.normal(size=(4, 12)) * 0.5]
        biases = [rng.normal(size=4), rng.normal(size=4)]
        g = Graph()
        out = pool_windows(_leaf(g, table), ids, [_leaf(g, f) for f in filters],
                           [_leaf(g, b) for b in biases])
        assert out.shape == (6, 4)
        np.testing.assert_allclose(out.value, _window_pool_loop(table, ids, filters, biases),
                                   rtol=1e-13, atol=1e-15)

    def test_linear_matches_loop(self, rng):
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(2, 4))
        b = rng.normal(size=2)
        expected = np.array([[sum(x[i, k] * w[j, k] for k in range(4)) + b[j]
                              for j in range(2)] for i in range(3)])
        g = Graph()
        rows = linear(_leaf(g, x), _leaf(g, w), _leaf(g, b))
        np.testing.assert_allclose(rows.value, expected, rtol=0, atol=1e-14)
        vector = linear(_leaf(g, x[1]), _leaf(g, w), _leaf(g, b))
        np.testing.assert_allclose(vector.value, expected[1], rtol=0, atol=1e-14)
        unbiased = linear(_leaf(g, x), _leaf(g, w))
        np.testing.assert_allclose(unbiased.value, expected - b, rtol=0, atol=1e-14)

    def test_softmax_matches_direct_formula(self):
        x = np.array([0.5, -1.0, 2.0, 0.0])
        expected = np.exp(x) / np.exp(x).sum()
        g = Graph()
        out = softmax_vec(_leaf(g, x))
        np.testing.assert_allclose(out.value, expected, rtol=1e-15)

    def test_softmax_survives_large_logits(self):
        g = Graph()
        out = softmax_vec(_leaf(g, np.array([1000.0, 1000.0, 999.0])))
        assert np.isfinite(out.value).all()
        assert out.value.sum() == pytest.approx(1.0, abs=1e-12)

    def test_cross_entropy_is_negative_log_probability(self):
        x = np.array([0.2, 1.3, -0.7])
        probs = np.exp(x) / np.exp(x).sum()
        g = Graph()
        out = cross_entropy(_leaf(g, x), 1)
        assert out.item() == pytest.approx(-math.log(probs[1]), rel=1e-12)

    def test_cross_entropy_rejects_bad_label(self):
        g = Graph()
        logits = _leaf(g, np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="label"):
            cross_entropy(logits, 2)
        with pytest.raises(ValueError, match="label"):
            cross_entropy(logits, -1)

    def test_mean_scalars_matches_plain_mean(self, rng):
        values = rng.normal(size=6)
        g = Graph()
        parts = [sum_all(_leaf(g, v)) for v in values]
        assert mean_scalars(parts).item() == pytest.approx(values.mean(), rel=1e-15)


class TestBackwardOracles:
    def test_tanh_gradient_is_one_minus_square(self, rng):
        x = rng.normal(size=5)
        g = Graph()
        tx = _leaf(g, x)
        g.backward(sum_all(tanh_ew(tx)))
        np.testing.assert_allclose(tx.grad, 1.0 - np.tanh(x) ** 2, rtol=1e-14)

    def test_cross_entropy_gradient_is_probs_minus_onehot(self):
        x = np.array([0.2, 1.3, -0.7])
        probs = np.exp(x) / np.exp(x).sum()
        g = Graph()
        tx = _leaf(g, x)
        g.backward(cross_entropy(tx, 1))
        onehot = np.array([0.0, 1.0, 0.0])
        np.testing.assert_allclose(tx.grad, probs - onehot, rtol=1e-12)

    def test_softmax_jacobian_vector_product(self, rng):
        x = rng.normal(size=4)
        c = rng.normal(size=4)
        g = Graph()
        tx = _leaf(g, x)
        y = softmax_vec(tx)
        g.backward(sum_all(mul(y, g.tensor(c))))
        p = np.exp(x - x.max())
        p /= p.sum()
        expected = p * (c - float(c @ p))
        np.testing.assert_allclose(tx.grad, expected, rtol=1e-12, atol=1e-14)

    def test_gather_rows_accumulates_repeated_indices(self):
        g = Graph()
        table = _leaf(g, np.arange(6.0).reshape(3, 2))
        g.backward(sum_all(gather_rows(table, [0, 2, 0])))
        np.testing.assert_array_equal(table.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])

    def test_pool_windows_routes_ties_to_first_window(self):
        # Rows 1 and 2 are equal, so the order-1 windows at positions 0 and
        # 1 tie; the gradient goes to the first one's row alone.
        g = Graph()
        table = _leaf(g, [[0.0], [0.5], [0.5], [0.1]])
        weight = _leaf(g, [[1.0]])
        bias = _leaf(g, [0.0])
        g.backward(sum_all(pool_windows(table, [[1, 2, 3]], [weight], [bias])))
        slope = 1.0 - np.tanh(0.5) ** 2
        np.testing.assert_allclose(table.grad, [[0.0], [slope], [0.0], [0.0]], rtol=1e-15)
        np.testing.assert_allclose(weight.grad, [[0.5 * slope]], rtol=1e-15)
        np.testing.assert_allclose(bias.grad, [slope], rtol=1e-15)

    def test_pool_windows_routes_equal_tanh_to_the_larger_pre_activation(self):
        # 5.0 and the next double up have the same tanh but different
        # pre-activations: the gradient goes to the larger one, row 2.
        above = np.nextafter(5.0, np.inf)
        assert np.tanh(5.0) == np.tanh(above)
        g = Graph()
        table = _leaf(g, [[0.0], [5.0], [above]])
        weight = _leaf(g, [[1.0]])
        bias = _leaf(g, [0.0])
        g.backward(sum_all(pool_windows(table, [[1, 2]], [weight], [bias])))
        slope = 1.0 - np.tanh(5.0) ** 2
        np.testing.assert_array_equal(table.grad, [[0.0], [0.0], [slope]])
        np.testing.assert_array_equal(weight.grad, [[above * slope]])

    @pytest.mark.parametrize("center", [0.0, 1.0, -1.0, 5.0, -5.0, 19.0, -19.0])
    def test_tanh_is_non_decreasing_over_adjacent_doubles(self, center):
        # pool_windows takes tanh after the max, which needs tanh(a) <=
        # tanh(b) for every a <= b, rounding included.
        below, above = [center], [center]
        for _ in range(2000):
            below.append(np.nextafter(below[-1], -np.inf))
            above.append(np.nextafter(above[-1], np.inf))
        run = np.array(below[:0:-1] + above)
        assert (np.diff(run) > 0).all()
        assert (np.diff(np.tanh(run)) >= 0).all()

    def test_unfold_routes_gradient_to_every_window(self):
        # Order-2 windows of 4 rows: the end rows sit in one window each,
        # the middle rows in two.
        g = Graph()
        a = _leaf(g, np.arange(8.0).reshape(4, 2))
        g.backward(sum_all(unfold(a, 2)))
        np.testing.assert_array_equal(
            a.grad, [[1.0, 1.0], [2.0, 2.0], [2.0, 2.0], [1.0, 1.0]])

    def test_unreached_leaf_gets_zero_gradient(self):
        g = Graph()
        used = _leaf(g, np.ones(3))
        unused = _leaf(g, np.ones(2))
        assert g.backward(sum_all(used)) is None
        np.testing.assert_array_equal(unused.grad, np.zeros(2))

    def test_shared_subexpression_accumulates_both_paths(self):
        g = Graph()
        x = _leaf(g, np.array([2.0]))
        y = concat_rows([mul(x, x), x])  # d/dx (x^2 + x) = 2x + 1
        g.backward(sum_all(y))
        np.testing.assert_allclose(x.grad, [5.0], rtol=1e-15)

    def test_backward_is_bit_identical_across_calls(self, rng):
        g = Graph()
        a = _leaf(g, rng.normal(size=(4, 3)))
        b = _leaf(g, rng.normal(size=(3, 3)))
        loss = sum_all(tanh_ew(linear(a, b)))
        g.backward(loss)
        first = [a.grad.tobytes(), b.grad.tobytes()]
        g.backward(loss)
        assert [a.grad.tobytes(), b.grad.tobytes()] == first


class TestBatchesAndMasks:
    def test_masked_softmax_ignores_padding(self, rng):
        scores = rng.normal(size=(2, 5)) * 50.0
        mask = np.array([[True] * 5, [True, True, False, False, False]])
        out = softmax_vec(Graph().tensor(scores), mask).value
        for row, valid in zip(range(2), mask):
            kept = np.exp(scores[row][valid] - scores[row][valid].max())
            np.testing.assert_allclose(out[row][valid], kept / kept.sum(), rtol=1e-13)
        assert (out[1, 2:] == 0.0).all()

    def test_masked_softmax_gradient_skips_padding(self, rng):
        g = Graph()
        x = _leaf(g, rng.normal(size=(1, 4)))
        mask = np.array([[True, False, True, False]])
        y = softmax_vec(x, mask)
        g.backward(sum_all(mul(y, g.tensor(rng.normal(size=(1, 4))))))
        assert (x.grad[~mask] == 0.0).all()

    def test_pool_windows_ignores_windows_past_the_text(self):
        # The pad row (row 0) would win every window it joins: a 2-token
        # text pools its one full window only, a 1-token text its single
        # window padded with the pad row.
        g = Graph()
        table = _leaf(g, [[9.0], [0.25], [0.5]])
        weight = _leaf(g, [[1.0, 1.0]])
        bias = _leaf(g, [0.0])
        out = pool_windows(table, [[1, 2, -1], [2, -1, -1]], [weight], [bias])
        np.testing.assert_allclose(out.value, np.tanh([[0.75], [9.5]]), rtol=1e-15)
        g.backward(sum_all(mul(out, g.tensor([[1.0], [0.0]]))))
        slope = 1.0 - np.tanh(0.75) ** 2
        np.testing.assert_allclose(table.grad, [[0.0], [slope], [slope]], rtol=1e-15)

    @pytest.mark.parametrize("op", [softmax_vec])
    def test_mask_must_leave_a_valid_entry(self, op):
        a = Graph().tensor(np.ones((2, 3)))
        mask = np.array([[True, False, False], [False, False, False]])
        with pytest.raises(ShapeError, match="valid"):
            op(a, mask)

    def test_gather_rows_takes_an_index_array_of_any_shape(self):
        g = Graph()
        table = _leaf(g, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = gather_rows(table, np.array([[2, 0], [0, 0]]))
        assert out.shape == (2, 2, 2)
        np.testing.assert_array_equal(out.value[0, 0], [5.0, 6.0])
        g.backward(sum_all(out))
        np.testing.assert_array_equal(table.grad, [[3.0, 3.0], [0.0, 0.0], [1.0, 1.0]])

    @pytest.mark.parametrize("source_shape,indices", [
        ((6, 3), [4, 0, 4, 4, 2, 0]),
        ((7, 2, 3), [[1, 5, 1], [5, 5, 0]]),
        ((5,), [[3, 3], [0, 3], [3, 1]]),
    ])
    def test_gather_rows_backward_matches_add_at(self, rng, source_shape, indices):
        # Repeated indices, an N-D index array and a 1-D source; rows never
        # gathered (the last row of each table) must get exact zeros.
        g = Graph()
        table = _leaf(g, rng.normal(size=source_shape))
        idx = np.array(indices)
        upstream = rng.normal(size=idx.shape + source_shape[1:])
        g.backward(sum_all(mul(gather_rows(table, idx), g.tensor(upstream))))
        expected = np.zeros(source_shape)
        np.add.at(expected, idx.reshape(-1), upstream.reshape((-1,) + source_shape[1:]))
        np.testing.assert_allclose(table.grad, expected, rtol=1e-12, atol=1e-15)
        missing = sorted(set(range(source_shape[0])) - set(idx.reshape(-1).tolist()))
        assert missing and not table.grad[missing].any()

    def test_batched_ops_match_each_example(self, rng):
        g = Graph()
        table = g.tensor(rng.normal(size=(5, 2)))
        filters = [g.tensor(rng.normal(size=(2, 2 * n))) for n in (2, 3)]
        biases = [g.tensor(rng.normal(size=2)) for _ in filters]
        ids = np.array([[1, 2, 3, 4, 1], [4, 4, 3, -1, -1], [2, -1, -1, -1, -1]])
        pooled = pool_windows(table, ids, filters, biases).value.reshape(2, 3, 2)
        for b, row in enumerate(ids):
            alone = pool_windows(table, row[None, :max(3, (row >= 0).sum())],
                                 filters, biases).value
            np.testing.assert_allclose(pooled[:, b], alone, rtol=1e-14)

    def test_results_without_a_gradient_stay_off_the_tape(self):
        g = Graph()
        x = g.tensor(np.ones(3))
        w = _leaf(g, np.ones(3))
        z = mul(tanh_ew(x), w)
        assert g.nodes == [w, z]

    def test_cross_entropy_of_a_batch_is_the_mean(self, rng):
        logits = rng.normal(size=(3, 4))
        labels = [0, 3, 1]
        g = Graph()
        batch = cross_entropy(g.tensor(logits), labels).item()
        single = [cross_entropy(g.tensor(row), label).item()
                  for row, label in zip(logits, labels)]
        assert batch == pytest.approx(sum(single) / 3, rel=1e-14)

    def test_cross_entropy_needs_one_label_per_row(self):
        with pytest.raises(ShapeError, match="labels"):
            cross_entropy(Graph().tensor(np.zeros((3, 2))), [0, 1])

    def test_concat_along_the_last_axis_chains_batched_vectors(self):
        g = Graph()
        out = concat_rows([g.tensor(np.ones((2, 3))), g.tensor(np.zeros((2, 1)))], axis=-1)
        np.testing.assert_array_equal(out.value, [[1, 1, 1, 0], [1, 1, 1, 0]])


class TestAttendHeads:
    @pytest.mark.parametrize("batch", ATTENTION_BATCHES)
    @pytest.mark.parametrize("heads", [1, 3])
    def test_matches_the_per_head_chain(self, rng, batch, heads):
        # The model's per-head steps, one node each: score the table, gather
        # the scores per entry, softmax over each text's valid entries, mix
        # the gathered rows.
        ids, valid = (None if v is None else np.array(v) for v in ATTENTION_BATCHES[batch])
        c = rng.normal(size=(heads, len(ids), 4))
        fused, chain = Graph(), Graph()
        seed = int(rng.integers(1 << 30))
        table, transforms, scores = _attention_leaves(fused, np.random.default_rng(seed), 5, 4,
                                                      heads)
        ref_table, ref_transforms, ref_scores = _attention_leaves(
            chain, np.random.default_rng(seed), 5, 4, heads)
        out, weights = attend_heads(table, padded(ids, valid), transforms, scores)
        fused.backward(sum_all(mul(out, fused.tensor(c))))

        columns = transpose(gather_rows(ref_table, ids))
        ref_weights = [attention_weights(gather_rows(attention_scores(ref_table, t, s), ids),
                                         valid) for t, s in zip(ref_transforms, ref_scores)]
        selections = concat_rows([select(w, columns) for w in ref_weights])
        chain.backward(sum_all(mul(selections, chain.tensor(c.reshape(-1, 4)))))

        np.testing.assert_allclose(out.value.reshape(-1, 4), selections.value,
                                   rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(weights, [w.value for w in ref_weights],
                                   rtol=1e-13, atol=1e-13)
        for leaf, ref in zip([table, *transforms, *scores],
                             [ref_table, *ref_transforms, *ref_scores]):
            np.testing.assert_allclose(leaf.grad, ref.grad, rtol=1e-13, atol=1e-13)

    def test_masked_entries_get_weight_exactly_zero(self, rng):
        g = Graph()
        table, transforms, scores = _attention_leaves(g, rng, 4, 3, 2)
        ids = np.array([[-1, 2, -1, -1], [3, 1, 2, -1]])
        out, weights = attend_heads(table, ids, transforms, scores)
        assert (weights[:, 0] == [0.0, 1.0, 0.0, 0.0]).all()
        assert (weights[:, 1, 3] == 0.0).all()
        # Weight 1 on one row and 0 elsewhere select that row bit for bit.
        for selection in out.value[:, 0]:
            assert selection.tobytes() == table.value[2].tobytes()

    def test_unstack_hands_each_block_its_gradient(self, rng):
        g = Graph()
        a = _leaf(g, rng.normal(size=(3, 2, 4)))
        parts = unstack(a)
        assert [p.shape for p in parts] == [(2, 4)] * 3
        # The last block is left out of the loss, so it gets a zero gradient.
        g.backward(sum_all(mul(concat_rows(parts[:2]), g.tensor(np.arange(16.0).reshape(4, 4)))))
        np.testing.assert_array_equal(a.grad, np.r_[np.arange(16.0), np.zeros(8)].reshape(3, 2, 4))

    @pytest.mark.parametrize("table_shape,ids,valid,transform_shapes,score_shapes", [
        ((4,), [[0, 1]], None, [(3, 4)], [(3,)]),                # table is not a matrix
        ((4, 2), [[0, 1]], None, [(3, 4)], [(3,)]),              # transform width differs
        ((4, 2), [[0, 1]], None, [(3, 2), (2, 2)], [(3,), (2,)]),  # head sizes differ
        ((4, 2), [[0, 1]], None, [(3, 2)], [(2,)]),              # score vector length differs
        ((4, 2), [[0, 1]], None, [(3, 2), (3, 2)], [(3,)]),      # one score vector short
        ((4, 2), [[0, 1]], None, [], []),                        # no heads
        ((4, 2), [[0, 4]], None, [(3, 2)], [(3,)]),              # index past the table
        ((4, 2), [[0, -2]], None, [(3, 2)], [(3,)]),             # index below -1
        ((4, 2), [0, 1], None, [(3, 2)], [(3,)]),                # index is not (B, R)
        ((4, 2), np.zeros((1, 0)), None, [(3, 2)], [(3,)]),      # no entries
        ((4, 2), [[0, 1], [2, 3]], [[True, False], [False, False]],
         [(3, 2)], [(3,)]),                                      # a row with no valid entry
    ])
    def test_rejects_bad_shapes(self, table_shape, ids, valid, transform_shapes,
                                score_shapes):
        g = Graph()
        with pytest.raises(ShapeError, match="attend_heads"):
            attend_heads(_leaf(g, np.ones(table_shape)),
                         padded(ids, valid),
                         [_leaf(g, np.ones(s)) for s in transform_shapes],
                         [_leaf(g, np.ones(s)) for s in score_shapes])


class TestErrors:
    @pytest.mark.parametrize("shape,order", [
        ((3, 2), 0), ((3, 2), 4), ((6,), 2), ((), 1),
    ])
    def test_unfold_rejects_bad_order_or_shape(self, shape, order):
        with pytest.raises(ShapeError, match="unfold"):
            unfold(_leaf(Graph(), np.ones(shape)), order)

    @pytest.mark.parametrize("table_shape,ids,filter_shapes,bias_shapes", [
        ((4, 2), [1, 2, 3], [(2, 4)], [(2,)]),           # ids are not (B, T)
        ((4, 2), [[1, 4, 2]], [(2, 4)], [(2,)]),         # id past the table
        ((4, 2), [[1, -2, 2]], [(2, 4)], [(2,)]),        # id below -1
        ((4, 2), [[1, 2, 3]], [(2, 5)], [(2,)]),         # filter is not (d, n * d)
        ((4, 2), [[1, 2, 3]], [(2, 4)], [(3,)]),         # bias does not match d
        ((4, 2), [[1, 2, 3]], [(2, 4), (2, 6)], [(2,)]),  # one bias per filter
        ((4,), [[1, 2, 3]], [(2, 4)], [(2,)]),           # table is not rows
        ((4, 2), [[1, 2, 3]], [], []),                   # no filters
        ((0, 2), [[-1, -1]], [(2, 4)], [(2,)]),          # no pad row for -1
    ])
    def test_pool_windows_rejects_bad_shapes(self, table_shape, ids, filter_shapes,
                                             bias_shapes):
        g = Graph()
        with pytest.raises(ShapeError, match="pool_windows"):
            pool_windows(_leaf(g, np.ones(table_shape)), ids,
                         [_leaf(g, np.ones(s)) for s in filter_shapes],
                         [_leaf(g, np.ones(s)) for s in bias_shapes])

    @pytest.mark.parametrize("x_shape,w_shape,b_shape", [
        ((2, 3), (4, 2), (4,)),     # inner widths differ
        ((3,), (4, 2), None),       # vector width differs
        ((2, 3), (3,), None),       # weight is not a matrix
        ((), (4, 3), None),         # input is a scalar, not rows
        ((2, 3), (4, 3), (3,)),     # bias does not match the output width
        ((3,), (4, 3), (4, 1)),     # bias is not a vector
    ])
    def test_linear_rejects_bad_shapes(self, x_shape, w_shape, b_shape):
        g = Graph()
        bias = None if b_shape is None else _leaf(g, np.ones(b_shape))
        with pytest.raises(ShapeError, match="linear"):
            linear(_leaf(g, np.ones(x_shape)), _leaf(g, np.ones(w_shape)), bias)

    @pytest.mark.parametrize("index", [-1, 3, -2**62, 2**62])
    def test_gather_rows_rejects_out_of_range_index(self, index):
        table = _leaf(Graph(), np.ones((3, 2)))
        with pytest.raises(ShapeError, match=r"^gather_rows: row index out of range for 3 rows$"):
            gather_rows(table, np.array([[0, 2], [index, 1]]))

    def test_cross_graph_operands_rejected(self):
        a = _leaf(Graph(), np.ones((2, 2)))
        b = _leaf(Graph(), np.ones((2, 2)))
        with pytest.raises(NumericError, match="graph"):
            linear(a, b)

    def test_backward_requires_scalar_loss(self):
        g = Graph()
        a = _leaf(g, np.ones(3))
        with pytest.raises(NumericError, match="scalar"):
            g.backward(tanh_ew(a))

    def test_backward_rejects_foreign_loss(self):
        g = Graph()
        other = Graph()
        loss = sum_all(_leaf(other, np.ones(2)))
        _leaf(g, np.ones(2))
        with pytest.raises(NumericError, match="graph"):
            g.backward(loss)

    def test_overflow_to_infinity_is_rejected(self):
        g = Graph()
        big = _leaf(g, np.array([1e308]))
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="non-finite"):
            mul(big, big)

    def test_finite_screen_does_not_warn(self):
        # +inf and -inf sum to NaN and two huge values overflow the sum: the
        # screen raises on the first and passes the second, warning on neither.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"^op: 'x' contains non-finite values$"):
                require_finite("op", np.array([np.inf, 1.0, -np.inf]), "'x'")
            require_finite("op", np.array([1e308, 1e308]))

    def test_nan_input_rejected_at_leaf(self):
        with pytest.raises(NumericError, match="non-finite"):
            Graph().tensor(np.array([np.nan]))


class TestProperties:
    @given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=8))
    def test_softmax_is_a_distribution(self, values):
        g = Graph()
        out = softmax_vec(g.tensor(np.array(values)))
        assert out.value.sum() == pytest.approx(1.0, abs=1e-9)
        assert (out.value > 0).all()

    @given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=8),
           st.floats(min_value=-50, max_value=50))
    def test_softmax_is_shift_invariant(self, values, shift):
        x = np.array(values)
        a = softmax_vec(Graph().tensor(x)).value
        b = softmax_vec(Graph().tensor(x + shift)).value
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3))
    def test_concat_then_slice_recovers_parts(self, rows_a, rows_b, rows_c, cols):
        rng = np.random.default_rng(rows_a * 64 + rows_b * 8 + rows_c + cols)
        blocks = [rng.normal(size=(r, cols)) for r in (rows_a, rows_b, rows_c)]
        g = Graph()
        stacked = concat_rows([g.tensor(b) for b in blocks])
        start = 0
        for block in blocks:
            np.testing.assert_array_equal(stacked.value[start:start + block.shape[0]], block)
            start += block.shape[0]

    @settings(max_examples=200, deadline=None)
    @given(pool_batches())
    @example((1, 5, 4, 3, [2, 5, 3], [5], 0))
    @example((4, 3, 6, 2, [4, 6, 5, 5], [3, 1, 0, 2], 1))
    def test_pool_windows_matches_the_tap_gather(self, case):
        # The node against the form that gathered every window's taps and
        # took tanh before the max, bit for bit in the pooled rows and in
        # every leaf gradient. Filters scaled to 1 / sqrt(n * d) keep the
        # pre-activations well inside tanh's range, where two different
        # windows all but never round to the same tanh; that case follows
        # a different tie rule, tested on its own above.
        batch, positions, rows, width, orders, lengths, seed = case
        # The reference sums taps with an indicator matrix product, which
        # BLAS adds in tap order as a matrix-matrix product but not as a
        # matrix-vector one: a lone filter, or one window of one text of
        # one channel. Those reference sums round by the BLAS kernel, so
        # a lone filter is checked against its rows beside the others.
        assume(not (batch == width == 1 and max(positions, *orders) == min(orders)))
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, rows, size=(batch, positions))
        ids[np.arange(positions) >= np.array(lengths)[:, None]] = -1
        table = rng.normal(size=(rows, width))
        filters = [rng.normal(size=(width, n * width)) / np.sqrt(n * width) for n in orders]
        biases = [rng.normal(size=width) * 0.5 for _ in orders]
        weights = rng.normal(size=(len(orders) * batch, width))
        got = _pool_results(pool_windows, table, ids, filters, biases, weights)
        _assert_same_bytes(got, _pool_results(reference.pool_windows, table, ids, filters,
                                              biases, weights))
        g = Graph()
        for k, (f, b) in enumerate(zip(filters, biases)):
            alone = pool_windows(g.tensor(table), ids, [g.tensor(f)], [g.tensor(b)]).value
            assert alone.tobytes() == got[0][k * batch:(k + 1) * batch].tobytes()

    def test_pool_windows_finds_a_winner_past_the_int16_range(self, rng):
        # 2 ** 15 + 6 positions: a window index past 32,767 must survive in
        # the winner's integer type. The one largest window sits near the end.
        positions = 2 ** 15 + 6
        ids = rng.integers(1, 4, size=(1, positions))
        ids[0, positions - 3] = 4
        table = np.array([[0.0], [0.1], [-0.2], [0.3], [0.9]])
        filters, biases = [np.array([[0.7, 0.4]])], [np.array([0.05])]
        expected = _pool_results(reference.pool_windows, table, ids, filters, biases, [[1.0]])
        assert expected[1][4, 0] != 0.0
        _assert_same_bytes(_pool_results(pool_windows, table, ids, filters, biases, [[1.0]]),
                           expected)

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_composite_gradient_passes_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        params = {
            "w": rng.normal(size=(3, 4)) * 0.5,
            "x": rng.normal(size=(4, 2)) * 0.5,
            "b": rng.normal(size=2) * 0.5,
        }

        def build(graph, leaves):
            h = tanh_ew(linear(leaves["w"], transpose(leaves["x"]), leaves["b"]))
            return sum_all(mul(h, h))

        assert finite_diff_check(build, params) < 1e-6


class TestFiniteDifferences:
    def test_quadratic_gradient_is_numerically_exact(self, rng):
        params = {"x": rng.normal(size=6)}

        def build(graph, leaves):
            x = leaves["x"]
            # (x.x + 3 sum(x)) / 2
            return mean_scalars([sum_all(mul(x, x)),
                                 sum_all(mul(x, graph.tensor(np.full(6, 3.0))))])

        # Central differences are exact for quadratics, so only rounding remains.
        assert finite_diff_check(build, params) < 1e-8

    def test_deep_tanh_chain(self, rng):
        params = {"a": rng.normal(size=(4, 4)) * 0.3, "v": rng.normal(size=4)}

        def build(graph, leaves):
            h = leaves["v"]
            for _ in range(3):
                h = tanh_ew(matvec(leaves["a"], h))
            return sum_all(h)

        assert finite_diff_check(build, params) < 1e-6

    def test_every_structural_op_in_one_graph(self, rng):
        params = {
            "table": rng.normal(size=(5, 3)),
            "w": rng.normal(size=(3, 3)) * 0.5,
            "filter": rng.normal(size=(3, 6)) * 0.5,
            "b": rng.normal(size=3) * 0.5,
        }

        weights = rng.normal(size=(3, 2))

        def build(graph, leaves):
            rows = gather_rows(leaves["table"], [0, 2, 2, 4])
            h = tanh_ew(linear(rows, leaves["w"]))
            pooled = pool_windows(h, [[1, 2, 3, -1], [3, 3, 1, 2]],
                                  [leaves["filter"]], [leaves["b"]])
            flat = reshape(pooled, (6,))
            mixed = sum_all(mul(transpose(pooled), graph.tensor(weights)))
            return mean_scalars([sum_all(mul(flat, flat)), mixed,
                                 cross_entropy(linear(pooled, h), [1, 3])])

        assert finite_diff_check(build, params) < 1e-6

    @pytest.mark.parametrize("ids", [
        [[1, 2, 3, 4, 5, 6, 1], [6, 5, 4, 3, 2, 1, 3]],
        [[1, 2, 3, 4, 5, 6, 2], [3, 1, -1, -1, -1, -1, -1]],
        [[4, -1, -1, -1, -1]],
        [[1, 2, 3, 4, 5, -1], [6, 2, 5, 4, 3, 1]],
        [[2, 2, 2, 1, 2, 2, 3], [5, 5, 5, 5, -1, -1, -1]],
    ], ids=["unpadded", "padded", "one-token", "five-tokens", "repeated-tokens"])
    def test_pool_windows_passes_finite_differences(self, rng, ids):
        params = {"table": rng.normal(size=(7, 3)),
                  "c": rng.normal(size=(4 * len(ids), 3))}
        for n in (2, 3, 4, 5):
            params[f"filter{n}"] = rng.normal(size=(3, 3 * n)) * 0.4
            params[f"bias{n}"] = rng.normal(size=3) * 0.2

        def build(graph, leaves):
            # A weighted sum of squares gives every pooled entry its own
            # gradient, so a winner routed to the wrong slot or tap shows up.
            out = pool_windows(leaves["table"], ids,
                               [leaves[f"filter{n}"] for n in (2, 3, 4, 5)],
                               [leaves[f"bias{n}"] for n in (2, 3, 4, 5)])
            return sum_all(mul(mul(out, out), leaves["c"]))

        assert finite_diff_check(build, params) < 1e-8

    @pytest.mark.parametrize("rows,order", [(4, 1), (4, 2), (4, 4), (1, 1)])
    def test_unfold_passes_finite_differences(self, rng, rows, order):
        params = {"a": rng.normal(size=(rows, 3)),
                  "c": rng.normal(size=(rows - order + 1, order * 3))}

        def build(graph, leaves):
            # A weighted sum of squares gives every output entry its own
            # gradient, so a window routed to the wrong row shows up.
            out = unfold(leaves["a"], order)
            return sum_all(mul(mul(out, out), leaves["c"]))

        assert finite_diff_check(build, params) < 1e-8

    @pytest.mark.parametrize("x_shape,biased", [
        ((3, 4), True), ((4,), True), ((3, 4), False), ((4,), False),
    ])
    def test_linear_passes_finite_differences(self, rng, x_shape, biased):
        params = {"x": rng.normal(size=x_shape), "w": rng.normal(size=(2, 4)) * 0.5}
        if biased:
            params["b"] = rng.normal(size=2)

        def build(graph, leaves):
            return sum_all(tanh_ew(linear(leaves["x"], leaves["w"], leaves.get("b"))))

        assert finite_diff_check(build, params) < 1e-6

    @pytest.mark.parametrize("batch", ATTENTION_BATCHES)
    @pytest.mark.parametrize("heads", [1, 3])
    def test_attend_heads_passes_finite_differences(self, rng, batch, heads):
        ids, valid = (None if v is None else np.array(v) for v in ATTENTION_BATCHES[batch])
        params = {"table": rng.normal(size=(5, 4)),
                  "c": rng.normal(size=(len(ids), heads * 4))}
        for i in range(heads):
            params[f"transform{i}"] = rng.normal(size=(3, 4)) * 0.6
            params[f"score{i}"] = rng.normal(size=3)

        def build(graph, leaves):
            # A weighted sum of squares of the unstacked selections gives
            # every selected entry its own gradient.
            out, _ = attend_heads(leaves["table"], padded(ids, valid),
                                  [leaves[f"transform{i}"] for i in range(heads)],
                                  [leaves[f"score{i}"] for i in range(heads)])
            joined = concat_rows(unstack(out), axis=-1)
            return sum_all(mul(mul(joined, joined), leaves["c"]))

        assert finite_diff_check(build, params) < 1e-8

    def test_batched_masked_ops_pass_finite_differences(self, rng):
        # A padded batch of two "documents" of 4 and 2 tokens through every
        # op that takes a batch axis, a mask or padded ids; row 0 is the pad
        # row.
        ids = np.array([[1, 2, 2, 4], [3, 1, -1, -1]])
        params = {
            "table": rng.normal(size=(5, 3)),
            "w": rng.normal(size=(3, 3)) * 0.5,
            "b": rng.normal(size=3) * 0.5,
            "filter": rng.normal(size=(3, 6)) * 0.5,
            "filter_bias": rng.normal(size=3) * 0.5,
            "score": rng.normal(size=3),
            "out": rng.normal(size=(3, 6)) * 0.5,
        }

        def build(graph, leaves):
            token_rows = tanh_ew(linear(leaves["table"], leaves["w"], leaves["b"]))
            pooled = pool_windows(token_rows, ids, [leaves["filter"]], [leaves["filter_bias"]])
            h = gather_rows(token_rows, np.maximum(ids, 0))
            weights = softmax_vec(matvec(h, leaves["score"]), ids >= 0)
            selected = matvec(transpose(h), weights)
            joined = concat_rows([pooled, selected], axis=-1)
            return cross_entropy(linear(joined, leaves["out"]), [2, 0])

        assert finite_diff_check(build, params) < 1e-6

    def test_probe_arrays_are_restored(self, rng):
        x = rng.normal(size=4)
        params = {"x": x.copy()}

        def build(graph, leaves):
            return sum_all(mul(leaves["x"], leaves["x"]))

        finite_diff_check(build, params)
        np.testing.assert_array_equal(params["x"], x)
