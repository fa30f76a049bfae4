"""Optimizer oracles, dropout sampling, metrics, and the fit loop."""

import dataclasses
import gc
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from mvnet import training
from mvnet.analysis import extract_view_representations
from mvnet.config import TrainConfig
from mvnet.numeric import Graph, NumericError, Tensor
from mvnet.training import (
    ADADELTA_BLOCK,
    AdadeltaState,
    RngStreams,
    adadelta_step,
    build_model,
    compute_metrics,
    evaluate,
    fit,
    sample_dropout_mask,
    train_epoch,
)


def _live_tensors() -> int:
    return sum(isinstance(o, Tensor) for o in gc.get_objects())


def reference_adadelta_scalar(x, grad_fn, steps, lr, rho, eps):
    """Straight-line float implementation of the accumulated-update rule,
    written independently of the optimizer under test."""
    eg = 0.0
    ex = 0.0
    history = []
    for _ in range(steps):
        g = grad_fn(x)
        eg = eg * rho + (1.0 - rho) * g * g
        delta = -math.sqrt(ex + eps) / math.sqrt(eg + eps) * g
        ex = ex * rho + (1.0 - rho) * delta * delta
        x = x + lr * delta
        history.append(x)
    return history


class TestAdadelta:
    def test_first_step_matches_closed_form(self):
        rho, eps = 0.95, 1e-6
        params = {"x": np.array([10.0])}
        grads = {"x": np.array([1.0])}
        state = AdadeltaState.for_params(params)
        adadelta_step(params, grads, state, 1.0, rho, eps)
        # From zero accumulators with unit gradient the update is
        # -sqrt(eps) / sqrt((1 - rho) + eps), about -4.47e-3.
        expected = -math.sqrt(eps) / math.sqrt((1.0 - rho) + eps)
        assert params["x"][0] - 10.0 == pytest.approx(expected, rel=1e-12)
        assert abs(expected + 4.47e-3) < 1e-5

    def test_hundred_steps_track_scalar_reference(self):
        lr, rho, eps = 1.0, 0.95, 1e-6
        grad_fn = lambda x: 2.0 * (x - 3.0)
        expected = reference_adadelta_scalar(10.0, grad_fn, 100, lr, rho, eps)
        params = {"x": np.array([10.0])}
        state = AdadeltaState.for_params(params)
        history = []
        for _ in range(100):
            grads = {"x": np.array([grad_fn(params["x"][0])])}
            adadelta_step(params, grads, state, lr, rho, eps)
            history.append(params["x"][0])
        np.testing.assert_allclose(history, expected, rtol=0, atol=1e-12)

    def test_zero_gradient_from_rest_changes_nothing(self):
        params = {"x": np.array([1.0, -2.0])}
        state = AdadeltaState.for_params(params)
        adadelta_step(params, {"x": np.zeros(2)}, state, 1.0, 0.95, 1e-6)
        np.testing.assert_array_equal(params["x"], [1.0, -2.0])
        np.testing.assert_array_equal(state.sq_grad["x"], np.zeros(2))
        np.testing.assert_array_equal(state.sq_update["x"], np.zeros(2))

    def test_zero_gradient_never_moves_parameters(self):
        params = {"x": np.array([5.0])}
        state = AdadeltaState.for_params(params)
        adadelta_step(params, {"x": np.array([2.0])}, state, 1.0, 0.95, 1e-6)
        moved = params["x"].copy()
        adadelta_step(params, {"x": np.zeros(1)}, state, 1.0, 0.95, 1e-6)
        np.testing.assert_array_equal(params["x"], moved)

    def test_zero_scale_freezes_parameters_but_not_state(self):
        params = {"x": np.array([5.0])}
        state = AdadeltaState.for_params(params)
        adadelta_step(params, {"x": np.array([2.0])}, state, 0.0, 0.95, 1e-6)
        np.testing.assert_array_equal(params["x"], [5.0])
        assert state.sq_grad["x"][0] > 0.0

    def test_update_direction_opposes_gradient(self):
        params = {"x": np.array([0.0, 0.0])}
        state = AdadeltaState.for_params(params)
        adadelta_step(params, {"x": np.array([3.0, -4.0])}, state, 1.0, 0.95, 1e-6)
        assert params["x"][0] < 0.0
        assert params["x"][1] > 0.0

    def test_shape_mismatch_rejected(self):
        params = {"x": np.zeros(2)}
        state = AdadeltaState.for_params(params)
        with pytest.raises(ValueError, match="shape"):
            adadelta_step(params, {"x": np.zeros(3)}, state, 1.0, 0.95, 1e-6)

    def test_blocked_step_is_bit_identical_to_whole_array_expression(self):
        rho, eps, lr = 0.95, 1e-6, 0.7
        rng = np.random.default_rng(5)
        sizes = {"one": 1, "under": ADADELTA_BLOCK - 1, "over": ADADELTA_BLOCK + 1,
                 "several": 3 * ADADELTA_BLOCK + 7}
        params = {name: rng.normal(size=n) for name, n in sizes.items()}
        params["matrix"] = rng.normal(size=(7, ADADELTA_BLOCK // 3))
        expected = {name: x.copy() for name, x in params.items()}
        sq_grad = {name: np.zeros_like(x) for name, x in params.items()}
        sq_update = {name: np.zeros_like(x) for name, x in params.items()}
        state = AdadeltaState.for_params(params)
        for _ in range(4):
            grads = {name: rng.normal(size=x.shape) * 10.0 ** rng.uniform(-4, 4, x.shape)
                     for name, x in params.items()}
            adadelta_step(params, grads, state, lr, rho, eps)
            for name, x in expected.items():
                g = grads[name]
                sq_grad[name] *= rho
                sq_grad[name] += (1.0 - rho) * g * g
                delta = -np.sqrt(sq_update[name] + eps) / np.sqrt(sq_grad[name] + eps) * g
                sq_update[name] *= rho
                sq_update[name] += (1.0 - rho) * delta * delta
                x += lr * delta
        for name in params:
            assert params[name].tobytes() == expected[name].tobytes(), name
            assert state.sq_grad[name].tobytes() == sq_grad[name].tobytes(), name
            assert state.sq_update[name].tobytes() == sq_update[name].tobytes(), name

    def test_step_allocates_no_parameter_sized_temporary(self):
        # 300k float64 values are 2.4 MB; the step may use only its scratch.
        rng = np.random.default_rng(6)
        params = {"w": rng.normal(size=(500, 500)), "b": rng.normal(size=50_000)}
        grads = {name: rng.normal(size=x.shape) for name, x in params.items()}
        state = AdadeltaState.for_params(params)
        tracemalloc.start()
        try:
            adadelta_step(params, grads, state, 1.0, 0.95, 1e-6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_overflowing_update_names_the_parameter(self):
        # A finite gradient whose update overflows, in the second block of
        # "v": sqrt(1e300) / sqrt(0.05) * 1 times a learning rate of 1e300.
        params = {"w": np.zeros(3), "v": np.zeros(ADADELTA_BLOCK + 2)}
        grads = {name: np.ones_like(x) for name, x in params.items()}
        state = AdadeltaState.for_params(params)
        state.sq_update["v"][-1] = 1e300
        with np.errstate(over="ignore"), pytest.raises(
                NumericError, match=r"^adadelta_step: 'v' contains non-finite values$"):
            adadelta_step(params, grads, state, 1e300, 0.95, 1e-6)

    def test_non_contiguous_parameter_rejected(self):
        params = {"x": np.zeros((4, 3)).T}
        state = AdadeltaState.for_params(params)
        with pytest.raises(ValueError, match="contiguous"):
            adadelta_step(params, {"x": np.ones((3, 4))}, state, 1.0, 0.95, 1e-6)


class TestDropoutMask:
    def test_zero_rate_is_all_ones(self):
        mask = sample_dropout_mask(np.random.default_rng(0), 16, 0.0)
        np.testing.assert_array_equal(mask, np.ones(16))

    def test_values_are_zero_or_inverted_keep_rate(self):
        mask = sample_dropout_mask(np.random.default_rng(1), 1000, 0.2)
        assert set(np.round(np.unique(mask), 10)) <= {0.0, 1.25}

    def test_mask_preserves_expectation(self):
        mask = sample_dropout_mask(np.random.default_rng(2), 100_000, 0.2)
        assert mask.mean() == pytest.approx(1.0, abs=1e-2)
        assert (mask == 0).mean() == pytest.approx(0.2, abs=1e-2)


class TestMetrics:
    def test_matches_hand_computed_confusion(self):
        result = compute_metrics([0, 0, 1, 1, 2, 2], [0, 1, 1, 1, 2, 0], 3)
        assert result.confusion == [[1, 1, 0], [0, 2, 0], [1, 0, 1]]
        assert result.accuracy == pytest.approx(4 / 6)
        assert result.precision == pytest.approx([1 / 2, 2 / 3, 1.0])
        assert result.recall == pytest.approx([1 / 2, 1.0, 1 / 2])
        assert result.f1 == pytest.approx([1 / 2, 4 / 5, 2 / 3])
        assert result.support == [2, 2, 2]

    def test_empty_denominators_give_zero_not_nan(self):
        result = compute_metrics([0, 0], [1, 1], 2)
        assert result.precision == [0.0, 0.0]
        assert result.recall == [0.0, 0.0]
        assert result.f1 == [0.0, 0.0]

    def test_label_space_mismatch_rejected(self):
        with pytest.raises(ValueError, match="label-space"):
            compute_metrics([0, 3], [0, 1], 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="golds"):
            compute_metrics([0, 1], [0], 2)

    def test_perfect_predictions(self):
        result = compute_metrics([0, 1, 2], [0, 1, 2], 3)
        assert result.accuracy == 1.0
        assert result.f1 == [1.0, 1.0, 1.0]


class TestTrainEpoch:
    def test_is_deterministic_given_equal_seeds(self, tiny_corpus, tiny_config):
        train, _, _ = tiny_corpus
        outputs = []
        for _ in range(2):
            model = build_model(tiny_config, train)
            streams = RngStreams.from_seed(tiny_config.seed)
            state = AdadeltaState.for_params(model.params)
            train_epoch(model, train, tiny_config, streams, state)
            outputs.append({k: v.tobytes() for k, v in model.params.items()})
        assert outputs[0] == outputs[1]

    def test_partial_trailing_batch_is_used(self, tiny_corpus, tiny_config):
        train, _, _ = tiny_corpus
        config = dataclasses.replace(tiny_config, batch_size=150)  # 200 = 150 + 50
        model = build_model(config, train)
        before = model.copy_params()
        streams = RngStreams.from_seed(config.seed)
        state = AdadeltaState.for_params(model.params)
        assert train_epoch(model, train, config, streams, state) > 0.0
        changed = any(not np.array_equal(before[k], model.params[k]) for k in before)
        assert changed

    @pytest.mark.parametrize("batch_size", [30, 200])
    def test_every_update_goes_through_adadelta_step(self, tiny_corpus, tiny_config,
                                                     monkeypatch, batch_size):
        # The benchmark times training steps by wrapping the module-level
        # adadelta_step: it must run once per mini-batch, trailing partial
        # batch included (200 docs = 6 * 30 + 20), and make every update.
        train, _, _ = tiny_corpus
        config = dataclasses.replace(tiny_config, batch_size=batch_size)
        model = build_model(config, train)
        before = model.copy_params()
        calls = []
        monkeypatch.setattr(training, "adadelta_step",
                            lambda params, *rest: calls.append(params is model.params))
        train_epoch(model, train, config, RngStreams.from_seed(config.seed),
                    AdadeltaState.for_params(model.params))
        assert calls == [True] * math.ceil(len(train) / batch_size)
        for name, array in model.params.items():
            np.testing.assert_array_equal(array, before[name])

    def test_batch_tapes_are_freed_without_the_cyclic_collector(self, tiny_corpus,
                                                                 tiny_config):
        # With the collector off, a tensor outlives train_epoch only if its
        # batch graph was left in a reference cycle.
        train, _, _ = tiny_corpus
        config = dataclasses.replace(tiny_config, conv_features=True, dropout=0.2)
        model = build_model(config, train)
        streams = RngStreams.from_seed(config.seed)
        state = AdadeltaState.for_params(model.params)
        gc.collect()
        gc.disable()
        try:
            before = _live_tensors()
            train_epoch(model, train, config, streams, state)
            after = _live_tensors()
        finally:
            gc.enable()
        assert after == before

    def test_scoring_frees_its_tapes_without_the_cyclic_collector(self, tiny_corpus,
                                                                  tiny_config):
        train, _, test = tiny_corpus
        config = dataclasses.replace(tiny_config, conv_features=True)
        model = build_model(config, train)
        gc.collect()
        gc.disable()
        try:
            before = _live_tensors()
            evaluate(model, test[:30])
            after_evaluate = _live_tensors()
            extract_view_representations(model, test[:30])
            after_extract = _live_tensors()
            for doc in test[:10]:
                model.predict(doc)
            after_predict = _live_tensors()
        finally:
            gc.enable()
        assert (after_evaluate, after_extract, after_predict) == (before,) * 3

    def test_one_batch_graph_has_the_same_nodes_for_any_batch_size(
            self, tiny_corpus, tiny_config, monkeypatch):
        # One graph per batch: its size follows the views and n-gram orders,
        # never the number of documents or their padding.
        train, _, _ = tiny_corpus
        nodes = []
        backward = Graph.backward

        def counting(graph, loss):
            nodes.append(len(graph.nodes))
            return backward(graph, loss)

        monkeypatch.setattr(Graph, "backward", counting)
        config = dataclasses.replace(tiny_config, conv_features=True, dropout=0.2)
        for size in (1, 50):
            sized = dataclasses.replace(config, batch_size=size)
            model = build_model(sized, train)
            train_epoch(model, train[:size], sized, RngStreams.from_seed(0),
                        AdadeltaState.for_params(model.params))
        assert len(nodes) == 2 and nodes[0] == nodes[1]

    def test_ngram_batch_tape_holds_one_feature_table(self, tiny_corpus, tiny_config,
                                                      monkeypatch):
        # One attend_heads node scores and mixes one table of distinct rows
        # (projected tokens, then the pooled n-gram rows) for all 3 heads
        # through one row index, and one unstack node per head hands out its
        # selection; the dropout mask needs no gradient and stays off the
        # tape. 22 leaves: one per parameter; one pool_windows node makes
        # every pooled n-gram row.
        train, _, _ = tiny_corpus
        ops = []
        backward = Graph.backward

        def counting(graph, loss):
            ops.append(Counter(node.op for node in graph.nodes))
            return backward(graph, loss)

        monkeypatch.setattr(Graph, "backward", counting)
        config = dataclasses.replace(tiny_config, conv_features=True, dropout=0.2)
        model = build_model(config, train)
        train_epoch(model, train[:config.batch_size], config, RngStreams.from_seed(0),
                    AdadeltaState.for_params(model.params))
        assert ops == [Counter(
            leaf=22, gather_rows=1, linear=4, tanh_ew=3, pool_windows=1,
            concat_rows=3, transpose=1, attend_heads=1, unstack=3, mul=1,
            cross_entropy=1)]

    def test_wide_batch_tape_holds_one_attention_node(self, tiny_corpus, monkeypatch):
        # The wide-noconv shape (8 views, full links, no n-gram rows, the
        # hidden classifier layer, dropout) at small widths: 29 leaves and
        # 37 other nodes, of which one attend_heads node serves all 8 heads
        # and one unstack node per head hands out its selection.
        train, _, _ = tiny_corpus
        ops = []
        backward = Graph.backward

        def counting(graph, loss):
            ops.append(Counter(node.op for node in graph.nodes))
            return backward(graph, loss)

        monkeypatch.setattr(Graph, "backward", counting)
        config = TrainConfig(views=8, view_dim=4, embed_dim=6, batch_size=23, dropout=0.2,
                             conv_features=False, variant="full", seed=3)
        model = build_model(config, train)
        train_epoch(model, train[:config.batch_size], config, RngStreams.from_seed(0),
                    AdadeltaState.for_params(model.params))
        assert ops == [Counter(
            leaf=29, gather_rows=1, transpose=1, linear=9, tanh_ew=8, attend_heads=1,
            unstack=8, concat_rows=7, mul=1, cross_entropy=1)]
        assert sum(ops[0].values()) - ops[0]["leaf"] == 37

    def test_numeric_error_names_the_batch(self, tiny_corpus, tiny_config):
        train, _, _ = tiny_corpus
        # The first step's update is finite but vast, so the second batch's
        # forward pass is the first to overflow.
        config = dataclasses.replace(tiny_config, batch_size=50, lr_scale=1e300)
        model = build_model(config, train)
        streams = RngStreams.from_seed(config.seed)
        state = AdadeltaState.for_params(model.params)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError, match=r"^batch 2: \w+: result contains non-finite"):
            train_epoch(model, train, config, streams, state)

    def test_overflowing_update_names_the_batch(self, tiny_corpus, tiny_config):
        train, _, _ = tiny_corpus
        config = dataclasses.replace(tiny_config, batch_size=50, lr_scale=1e300)
        model = build_model(config, train)
        state = AdadeltaState.for_params(model.params)
        state.sq_update["classifier.out_bias"][:] = 1e300
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericError, match=r"^batch 1: adadelta_step: 'classifier.out_bias' "
                                    r"contains non-finite values$"):
            train_epoch(model, train, config, RngStreams.from_seed(config.seed), state)

    def test_empty_dataset_rejected(self, tiny_config):
        model_source = [  # one doc is enough to build the model itself
        ]
        with pytest.raises(ValueError):
            train_epoch(None, model_source, tiny_config, None, None)


class TestFit:
    def test_patience_zero_runs_exactly_one_epoch(self, tiny_corpus, tiny_config):
        train, dev, _ = tiny_corpus
        config = dataclasses.replace(tiny_config, patience=0, max_epochs=10)
        model = build_model(config, train)
        result = fit(model, train, dev, config)
        assert len(result.curve) == 1
        assert result.best_epoch == 1

    def test_frozen_learning_stops_after_patience_epochs(self, tiny_corpus, tiny_config):
        # lr 0 keeps dev metrics identical, so no epoch after the first
        # improves and early stopping fires exactly at the patience budget.
        train, dev, _ = tiny_corpus
        config = dataclasses.replace(tiny_config, lr_scale=0.0, patience=2,
                                     max_epochs=10)
        model = build_model(config, train)
        result = fit(model, train, dev, config)
        assert len(result.curve) == 3
        assert result.best_epoch == 1

    def test_model_ends_holding_best_parameters(self, tiny_corpus, tiny_config):
        train, dev, _ = tiny_corpus
        model = build_model(tiny_config, train)
        result = fit(model, train, dev, tiny_config)
        again = evaluate(model, dev)
        assert again.accuracy == result.best_dev_accuracy
        assert again.mean_loss == pytest.approx(result.best_dev_loss, rel=1e-12)

    def test_curve_records_every_epoch_once(self, tiny_corpus, tiny_config):
        train, dev, _ = tiny_corpus
        model = build_model(tiny_config, train)
        result = fit(model, train, dev, tiny_config)
        assert [r.epoch for r in result.curve] == list(range(1, len(result.curve) + 1))
        assert len(result.curve) <= tiny_config.max_epochs

    def test_two_fits_are_byte_identical(self, tiny_corpus, tiny_config):
        train, dev, _ = tiny_corpus
        snapshots = []
        for _ in range(2):
            model = build_model(tiny_config, train)
            result = fit(model, train, dev, tiny_config)
            snapshots.append((
                {k: v.tobytes() for k, v in model.params.items()},
                [(r.epoch, r.train_loss, r.dev_loss, r.dev_accuracy)
                 for r in result.curve],
            ))
        assert snapshots[0] == snapshots[1]

    def test_learns_the_keyword_task(self, tiny_corpus, tiny_config):
        train, dev, test = tiny_corpus
        config = dataclasses.replace(tiny_config, max_epochs=6)
        model = build_model(config, train)
        fit(model, train, dev, config)
        assert evaluate(model, test).accuracy >= 0.9


class TestBuildModel:
    def test_class_count_from_max_label(self, tiny_corpus, tiny_config):
        train, _, _ = tiny_corpus
        model = build_model(tiny_config, train)
        assert model.num_classes == 4

    def test_embeddings_file_used_for_covered_tokens(self, tiny_corpus, tiny_config,
                                                     tmp_path):
        train, _, _ = tiny_corpus
        token = train[0].tokens[0]
        path = tmp_path / "vectors.txt"
        values = " ".join(["0.25"] * tiny_config.embed_dim)
        path.write_text(f"{token} {values}\n")
        model = build_model(tiny_config, train, embeddings_path=str(path))
        row = model.params["embedding"][model.vocab.lookup(token)]
        np.testing.assert_array_equal(row, np.full(tiny_config.embed_dim, 0.25))

    def test_embedding_width_must_match_config(self, tiny_corpus, tiny_config,
                                               tmp_path):
        train, _, _ = tiny_corpus
        path = tmp_path / "vectors.txt"
        path.write_text("word 1.0 2.0\n")
        with pytest.raises(Exception, match="dimension"):
            build_model(tiny_config, train, embeddings_path=str(path))

    def test_empty_corpus_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            build_model(tiny_config, [])
