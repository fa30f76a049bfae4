"""Structural invariants, parameter accounting, and gradient checks for the
multi-view model."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvnet.config import (
    TrainConfig,
    VARIANT_CHAIN,
    VARIANT_FULL,
    VARIANT_NO_LINKS,
    VARIANTS,
)
from mvnet.analysis import extract_view_representations
from mvnet.data import LabeledDocument
from mvnet import model as model_module
from mvnet.features import (
    NGRAM_ORDERS,
    Vocabulary,
    augment_features,
    build_vocab,
    ngram_features,
    project,
)
from mvnet.model import (
    MvnModel,
    ViewBundle,
    attention_scores,
    attention_weights,
    classify,
    compose_views,
    init_parameters,
    parameter_layout,
    select,
    view_stack_param_count,
)
from mvnet.numeric import (
    Graph,
    NumericError,
    attend_heads,
    concat_rows,
    cross_entropy,
    finite_diff_check,
    gather_rows,
    reshape,
    transpose,
)
from mvnet.training import evaluate, sample_dropout_mask

WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]


def make_doc(n_tokens, label=0):
    return LabeledDocument(label=label, tokens=WORDS[:n_tokens],
                           raw=" ".join(WORDS[:n_tokens]))


def make_model(**overrides):
    defaults = dict(views=4, view_dim=6, embed_dim=5, dropout=0.0,
                    conv_features=True, seed=3)
    defaults.update(overrides)
    config = TrainConfig(**defaults)
    vocab = build_vocab([WORDS])
    rng = np.random.default_rng(17)
    return MvnModel.create(config, vocab, len(WORDS) // 2, rng)


class TestParameterCounts:
    def test_full_variant_reference_size(self):
        # d^2 * sum(i for i in 2..V-1) = 40000 * 27
        assert view_stack_param_count(8, 200, VARIANT_FULL) == 1_080_000

    def test_chain_variant_reference_size(self):
        # (V-2) matrices of d x 2d = 6 * 200 * 400
        assert view_stack_param_count(8, 200, VARIANT_CHAIN) == 480_000

    def test_no_links_has_no_combination_parameters(self):
        assert view_stack_param_count(8, 200, VARIANT_NO_LINKS) == 0

    def test_few_views_need_no_matrices(self):
        for variant in (VARIANT_FULL, VARIANT_CHAIN, VARIANT_NO_LINKS):
            assert view_stack_param_count(2, 64, variant) == 0

    def test_stored_matrices_match_the_count(self):
        for variant in (VARIANT_FULL, VARIANT_CHAIN):
            model = make_model(views=5, view_dim=3, variant=variant)
            stored = sum(v.size for k, v in model.params.items()
                         if k.endswith(".combine"))
            assert stored == view_stack_param_count(5, 3, variant)


class TestInitialization:
    def test_parameter_set_and_shapes(self):
        model = make_model(views=4, view_dim=6, embed_dim=5)
        d = 6
        expected = {
            "embedding": (10, 5),  # 8 words + padding + unknown
            "projection.weight": (5, d),
            "projection.bias": (d,),
            "classifier.out_bias": (4,),
        }
        for order in (2, 3, 4, 5):
            expected[f"ngram{order}.filter"] = (d, order * d)
            expected[f"ngram{order}.bias"] = (d,)
        for i in (1, 2, 3, 4):
            expected[f"head{i}.row_transform"] = (d, d)
            expected[f"head{i}.score_vector"] = (d,)
        expected["view2.combine"] = (d, 2 * d)
        expected["view3.combine"] = (d, 3 * d)
        hidden = 4 * d // 2
        expected["classifier.hidden_weight"] = (hidden, 4 * d)
        expected["classifier.hidden_bias"] = (hidden,)
        expected["classifier.out_weight"] = (4, hidden)
        assert {k: v.shape for k, v in model.params.items()} == expected

    def test_chain_matrices_all_two_wide(self):
        model = make_model(views=5, view_dim=3, variant=VARIANT_CHAIN)
        for i in (2, 3, 4):
            assert model.params[f"view{i}.combine"].shape == (3, 6)

    def test_biases_start_at_zero(self):
        model = make_model()
        for name, value in model.params.items():
            if name.endswith(".bias") or name.endswith("_bias"):
                assert (value == 0).all(), name

    def test_weights_respect_fan_based_limit(self):
        model = make_model(views=3, view_dim=8, embed_dim=10)
        w = model.params["projection.weight"]
        limit = np.sqrt(6.0 / (10 + 8))
        assert (np.abs(w) <= limit).all()
        assert np.abs(w).max() > 0.5 * limit  # actually spread out, not collapsed

    def test_embedding_rows_small_uniform(self):
        model = make_model()
        assert (np.abs(model.params["embedding"]) <= 0.05).all()

    def test_same_rng_reproduces_parameters(self):
        config = TrainConfig(views=3, view_dim=4, embed_dim=5, seed=0)
        vocab = build_vocab([WORDS])
        a = init_parameters(config, len(vocab), 3, np.random.default_rng(9))
        b = init_parameters(config, len(vocab), 3, np.random.default_rng(9))
        assert list(a) == list(b)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    def test_supplied_embedding_copied_not_aliased(self):
        config = TrainConfig(views=2, view_dim=4, embed_dim=3)
        vocab = Vocabulary.from_tokens(["a", "b"])
        table = np.zeros((4, 3))
        params = init_parameters(config, 4, 2, np.random.default_rng(0), table)
        params["embedding"][0, 0] = 99.0
        assert table[0, 0] == 0.0

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_parameter_rejected_at_construction(self, bad):
        model = make_model()
        params = model.copy_params()
        params["head2.score_vector"][1] = bad
        with pytest.raises(NumericError, match=r"^MvnModel: 'head2.score_vector' "
                                               r"contains non-finite values$"):
            MvnModel(model.config, model.vocab, model.num_classes, params)

    def test_supplied_embedding_shape_checked(self):
        config = TrainConfig(views=2, view_dim=4, embed_dim=3)
        with pytest.raises(ValueError):
            init_parameters(config, 4, 2, np.random.default_rng(0), np.zeros((4, 5)))


class TestBind:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("two_layer", [False, True])
    def test_one_leaf_per_parameter_in_layout_order(self, variant, two_layer):
        model = make_model(variant=variant, two_layer_classifier=two_layer)
        graph = Graph()
        leaves = model.bind(graph)
        layout = [name for name, _, _ in parameter_layout(
            model.config, len(model.vocab), model.num_classes)]
        assert list(leaves) == layout
        assert graph.nodes == list(leaves.values())
        for name, leaf in leaves.items():
            assert leaf.name == name and leaf.requires_grad
            assert np.shares_memory(leaf.value, model.params[name])
        # A premade map is checked by name and returned as it is.
        assert model.bind(graph, leaves) is leaves
        del leaves["classifier.out_bias"]
        with pytest.raises(ValueError, match="leaf names"):
            model.bind(graph, leaves)


class TestForwardStructure:
    def test_outer_views_equal_their_selections_bit_exact(self):
        model = make_model(views=5)
        _, bundle = model.forward(Graph(), make_doc(6))
        assert bundle.views[0].value.tobytes() == bundle.selections[0].value.tobytes()
        assert bundle.views[-1].value.tobytes() == bundle.selections[-1].value.tobytes()

    def test_attention_weights_form_distributions(self):
        model = make_model(views=4)
        _, bundle = model.forward(Graph(), make_doc(6))
        for weights in bundle.attention:
            assert abs(weights.value.sum() - 1.0) <= 1e-9
            assert (weights.value >= 0).all()

    def test_feature_rows_include_one_per_ngram_order(self):
        model = make_model(conv_features=True)
        _, bundle = model.forward(Graph(), make_doc(6))
        assert bundle.attention[0].shape == (6 + 4,)

    def test_conv_disabled_uses_word_rows_only(self):
        model = make_model(conv_features=False)
        _, bundle = model.forward(Graph(), make_doc(6))
        assert bundle.attention[0].shape == (6,)

    def test_short_document_padding_keeps_row_count(self):
        model = make_model(conv_features=True)
        _, bundle = model.forward(Graph(), make_doc(2))
        assert bundle.attention[0].shape == (2 + 4,)

    def test_logit_width_is_class_count(self):
        model = make_model()
        logits, _ = model.forward(Graph(), make_doc(4))
        assert logits.shape == (model.num_classes,)

    def test_empty_document_rejected(self):
        model = make_model()
        empty = LabeledDocument(label=0, tokens=[], raw="")
        with pytest.raises(ValueError, match="tokens"):
            model.forward(Graph(), empty)

    def test_unknown_mode_rejected(self):
        model = make_model()
        with pytest.raises(ValueError, match="mode"):
            model.forward(Graph(), make_doc(3), mode="test")

    def test_word_order_invariance_without_conv_features(self):
        # Attention pools rows by content, so shuffling tokens must not
        # change the output once position-sensitive n-gram rows are off.
        model = make_model(conv_features=False)
        doc = make_doc(6)
        shuffled = LabeledDocument(label=doc.label,
                                   tokens=list(reversed(doc.tokens)), raw=doc.raw)
        a, _ = model.forward(Graph(), doc)
        b, _ = model.forward(Graph(), shuffled)
        np.testing.assert_allclose(a.value, b.value, rtol=1e-12)

    def test_word_order_changes_output_with_conv_features(self):
        model = make_model(conv_features=True)
        doc = make_doc(6)
        shuffled = LabeledDocument(label=doc.label,
                                   tokens=list(reversed(doc.tokens)), raw=doc.raw)
        a, _ = model.forward(Graph(), doc)
        b, _ = model.forward(Graph(), shuffled)
        assert not np.allclose(a.value, b.value)


class TestVariantRelations:
    def test_no_links_views_are_selections(self):
        model = make_model(views=5, variant=VARIANT_NO_LINKS)
        _, bundle = model.forward(Graph(), make_doc(6))
        for view, selection in zip(bundle.views, bundle.selections):
            assert view.value.tobytes() == selection.value.tobytes()

    @pytest.mark.parametrize("views", [1, 2])
    def test_all_variants_coincide_without_interior_views(self, views):
        base = make_model(views=views, variant=VARIANT_FULL)
        outputs = []
        for variant in (VARIANT_FULL, VARIANT_NO_LINKS, VARIANT_CHAIN):
            model = MvnModel(dataclasses.replace(base.config, variant=variant),
                             base.vocab, base.num_classes, base.copy_params())
            logits, _ = model.forward(Graph(), make_doc(5))
            outputs.append(logits.value.tobytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_full_equals_chain_with_three_views_and_shared_weights(self):
        # With one interior view, "all earlier views" and "the previous view"
        # are the same single vector, so the two wirings compute identically.
        full = make_model(views=3, variant=VARIANT_FULL)
        chain = MvnModel(dataclasses.replace(full.config, variant=VARIANT_CHAIN),
                         full.vocab, full.num_classes, full.copy_params())
        a, _ = full.forward(Graph(), make_doc(6))
        b, _ = chain.forward(Graph(), make_doc(6))
        assert a.value.tobytes() == b.value.tobytes()

    def test_full_and_chain_diverge_with_four_views(self):
        full = make_model(views=4, variant=VARIANT_FULL)
        # chain matrices are (d, 2d); reuse the leading block of each full matrix
        chain_params = full.copy_params()
        chain_params["view3.combine"] = chain_params["view3.combine"][:, :12].copy()
        chain = MvnModel(dataclasses.replace(full.config, variant=VARIANT_CHAIN),
                         full.vocab, full.num_classes, chain_params)
        a, _ = full.forward(Graph(), make_doc(6))
        b, _ = chain.forward(Graph(), make_doc(6))
        assert not np.allclose(a.value, b.value)


class TestGradients:
    def test_full_model_gradient_against_finite_differences(self):
        model = make_model(views=3, view_dim=4, embed_dim=4, dropout=0.5,
                           conv_features=True)
        doc = make_doc(3)  # shorter than the largest window: exercises padding
        mask_size = model.config.views * model.config.view_dim
        mask = np.where(np.arange(mask_size) % 3 == 0, 0.0, 2.0)

        def build(graph, leaves):
            bound = model.bind(graph, leaves)
            logits, _ = model.forward(graph, doc, mode="train",
                                      dropout_mask=mask, bound=bound)
            return cross_entropy(logits, doc.label)

        assert finite_diff_check(build, model.params) < 1e-4

    @pytest.mark.parametrize("variant", [VARIANT_NO_LINKS, VARIANT_CHAIN])
    def test_variant_gradients(self, variant):
        model = make_model(views=4, view_dim=3, embed_dim=3, variant=variant,
                           conv_features=False)
        doc = make_doc(5, label=1)

        def build(graph, leaves):
            bound = model.bind(graph, leaves)
            logits, _ = model.forward(graph, doc, bound=bound)
            return cross_entropy(logits, doc.label)

        assert finite_diff_check(build, model.params) < 1e-4


class TestBatchedForward:
    @settings(max_examples=40, deadline=None)
    @given(lengths=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=8),
           variant=st.sampled_from(VARIANTS), conv=st.booleans(),
           two_layer=st.booleans(), seed=st.integers(min_value=0, max_value=2**16))
    def test_batch_matches_one_document_passes(self, lengths, variant, conv,
                                               two_layer, seed):
        # The padded batch must give each document its own logits, and the
        # batch-mean loss the mean of the one-document gradients.
        rng = np.random.default_rng(seed)
        model = make_model(views=4, view_dim=5, embed_dim=4, dropout=0.3,
                           variant=variant, conv_features=conv,
                           two_layer_classifier=two_layer)
        words = WORDS + ["unseen"]
        docs = [LabeledDocument(label=int(rng.integers(model.num_classes)),
                                tokens=[words[i] for i in rng.integers(len(words), size=n)],
                                raw="") for n in lengths]
        masks = sample_dropout_mask(rng, (len(docs), 4 * 5), model.config.dropout)

        graph = Graph()
        bound = model.bind(graph)
        logits, _ = model.forward_batch(graph, docs, dropout_mask=masks, bound=bound)
        graph.backward(cross_entropy(logits, [doc.label for doc in docs]))

        expected = {name: np.zeros_like(array) for name, array in model.params.items()}
        for row, (doc, mask) in enumerate(zip(docs, masks)):
            single_graph = Graph()
            single_bound = model.bind(single_graph)
            single, _ = model.forward(single_graph, doc, mode="train",
                                      dropout_mask=mask, bound=single_bound)
            np.testing.assert_allclose(logits.value[row], single.value,
                                       rtol=1e-12, atol=1e-15)
            single_graph.backward(cross_entropy(single, doc.label))
            for name, leaf in single_bound.items():
                expected[name] += leaf.grad / len(docs)
        for name, leaf in bound.items():
            np.testing.assert_allclose(leaf.grad, expected[name], rtol=1e-12,
                                       atol=1e-15, err_msg=name)

    @pytest.mark.parametrize("conv", [False, True])
    def test_each_distinct_token_is_projected_once(self, monkeypatch, conv):
        # Projection and attention scores run once per distinct row, the
        # scores of all heads in one node, and are gathered per position;
        # logits and gradients must match a reference that projects and
        # scores every padded position on its own, one head at a time.
        token_lists = [["alpha", "beta", "alpha"],
                       ["beta", "beta", "zzz", "qqq", "alpha", "gamma", "beta"],
                       ["gamma"]]
        docs = [LabeledDocument(label=i % 2, tokens=t, raw="")
                for i, t in enumerate(token_lists)]
        labels = [doc.label for doc in docs]
        projected = []
        scored = []

        def recording_project(rows, *params):
            projected.append(rows.shape[0])
            return project(rows, *params)

        def recording_attend(table, row_index, valid, transforms, score_vectors):
            scored.append((table.shape[0], len(transforms)))
            return attend_heads(table, row_index, valid, transforms, score_vectors)

        monkeypatch.setattr(model_module, "project", recording_project)
        monkeypatch.setattr(model_module, "attend_heads", recording_attend)
        for variant in VARIANTS:
            projected.clear()
            scored.clear()
            model = make_model(views=4, view_dim=4, embed_dim=5, variant=variant,
                               conv_features=conv)
            graph = Graph()
            bound = model.bind(graph)
            logits, _ = model.forward_batch(graph, docs, bound=bound)
            graph.backward(cross_entropy(logits, labels))
            # alpha, beta, gamma, <unk> (zzz and qqq) and <pad>, plus one
            # pooled row per n-gram order and document, scored once for all
            # 4 heads.
            assert projected == [5]
            pooled = len(NGRAM_ORDERS) * len(docs) if conv else 0
            assert scored == [(5 + pooled, 4)]

            ref_graph = Graph()
            ref = model.bind(ref_graph)
            lengths = np.array([len(t) for t in token_lists])
            width = max(lengths.max(), max(NGRAM_ORDERS))
            ids = np.full((len(docs), width), model.vocab.pad_index)
            for row, tokens in zip(ids, token_lists):
                row[:len(tokens)] = [model.vocab.lookup(t) for t in tokens]
            rows = project(gather_rows(ref["embedding"], ids),
                           ref["projection.weight"], ref["projection.bias"])
            valid = np.arange(width) < lengths[:, None]
            if conv:
                # Every position is its own row of the n-gram table, after
                # the pad row; -1 marks the positions past a text's end.
                pad_row = project(gather_rows(ref["embedding"], [model.vocab.pad_index]),
                                  ref["projection.weight"], ref["projection.bias"])
                positions = np.where(valid, 1 + np.arange(ids.size).reshape(ids.shape), -1)
                pooled_rows = ngram_features(
                    concat_rows([pad_row, reshape(rows, (ids.size, rows.shape[-1]))]),
                    ref, positions)
                rows = augment_features(rows, pooled_rows)
                valid = np.pad(valid, ((0, 0), (0, len(NGRAM_ORDERS))),
                               constant_values=True)
            columns = transpose(rows)
            selections = []
            for i in range(1, model.config.views + 1):
                scores = attention_scores(rows, ref[f"head{i}.row_transform"],
                                          ref[f"head{i}.score_vector"])
                selections.append(select(attention_weights(scores, valid), columns))
            ref_logits = classify(compose_views(selections, ref, variant), ref)
            ref_graph.backward(cross_entropy(ref_logits, labels))

            np.testing.assert_allclose(logits.value, ref_logits.value, rtol=1e-12, atol=0,
                                       err_msg=variant)
            for name, leaf in bound.items():
                np.testing.assert_allclose(leaf.grad, ref[name].grad, rtol=1e-12,
                                           atol=1e-18, err_msg=f"{variant} {name}")

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_token_texts_without_ngrams_attend_one_row(self, variant):
        # Without n-gram rows nothing pads a batch of 1-token texts: every
        # head gives weight exactly 1 to the text's one row, so each
        # selection is that projected row bit for bit, as it was when four
        # masked pad rows took weight exactly 0.
        model = make_model(conv_features=False, variant=variant)
        docs = [make_doc(1), LabeledDocument(label=1, tokens=["gamma"], raw=""),
                LabeledDocument(label=0, tokens=["unseen"], raw="")]
        graph = Graph()
        bound = model.bind(graph)
        logits, bundle = model.forward_batch(graph, docs, bound=bound)
        for weights in bundle.attention:
            assert weights.shape == (len(docs), 1)
            assert (weights.value == 1.0).all()
        ref = Graph()
        leaves = model.bind(ref, requires_grad=False)
        # The same distinct rows as the batch's table, <pad> first.
        table = project(gather_rows(leaves["embedding"],
                                    [model.vocab.pad_index] + [model.vocab.lookup(doc.tokens[0])
                                                               for doc in docs]),
                        leaves["projection.weight"], leaves["projection.bias"])
        rows = gather_rows(table, [1, 2, 3])
        expected = classify(compose_views([rows] * model.config.views, leaves, variant),
                            leaves)
        assert logits.value.tobytes() == expected.value.tobytes()

    @pytest.mark.parametrize("conv", [False, True])
    def test_every_leaf_gradient_is_c_contiguous(self, conv):
        # The optimizer updates each parameter through flat views of its
        # gradient, which would copy a gradient in any other order.
        model = make_model(conv_features=conv)
        docs = [make_doc(n, label=n % 2) for n in (2, 8, 5)]
        graph = Graph()
        bound = model.bind(graph)
        logits, _ = model.forward_batch(graph, docs, bound=bound)
        graph.backward(cross_entropy(logits, [doc.label for doc in docs]))
        for name, leaf in bound.items():
            assert leaf.grad.flags.c_contiguous, name

    def test_views_do_not_depend_on_the_batch(self):
        model = make_model()
        docs = [make_doc(n) for n in (1, 8, 3)]
        _, batched = model.forward_batch(Graph(), docs)
        for row, doc in enumerate(docs):
            _, bundle = model.forward(Graph(), doc)
            for block, view in zip(batched.views, bundle.views):
                np.testing.assert_allclose(block.value[row], view.value,
                                           rtol=1e-12, atol=1e-15)

    def test_padding_gets_no_attention(self):
        model = make_model()
        _, bundle = model.forward(Graph(), make_doc(2))
        for weights in bundle.attention:
            assert weights.value.sum() == pytest.approx(1.0, abs=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="no documents"):
            make_model().forward_batch(Graph(), [])


def shuffled_length_docs(model, seed=4):
    """23 documents of 3-60 tokens in shuffled order, lengths repeating, one
    document object listed twice."""
    rng = np.random.default_rng(seed)
    words = WORDS + ["unseen"]
    docs = [LabeledDocument(label=int(rng.integers(model.num_classes)),
                            tokens=[words[i] for i in rng.integers(len(words), size=n)],
                            raw="")
            for n in rng.integers(3, 61, size=22)]
    return docs[:5] + [docs[12]] + docs[5:]


class TestLengthOrderedScoring:
    # Scoring batches take each call's documents shortest first; every
    # result must still come out as if each document were scored alone.
    def test_evaluate_matches_one_document_batches(self):
        model = make_model(batch_size=4)
        single = MvnModel(dataclasses.replace(model.config, batch_size=1), model.vocab,
                          model.num_classes, model.params)
        docs = shuffled_length_docs(model)
        batched, alone = evaluate(model, docs), evaluate(single, docs)
        assert batched.accuracy == alone.accuracy
        assert batched.confusion == alone.confusion
        assert batched.mean_loss == pytest.approx(alone.mean_loss, rel=0, abs=1e-12)

    @staticmethod
    def record_batches(monkeypatch):
        batches = []
        forward_batch = MvnModel.forward_batch

        def recording(self, graph, batch, *args, **kwargs):
            batches.append([len(doc.tokens) for doc in batch])
            return forward_batch(self, graph, batch, *args, **kwargs)

        monkeypatch.setattr(MvnModel, "forward_batch", recording)
        return batches

    def test_batches_run_in_length_order(self, monkeypatch):
        # 23 documents at batch size 4 make 23 // 4 = 5 batches, the first
        # three one larger, rather than five batches of 4 and a runt of 3.
        model = make_model(batch_size=4)
        docs = shuffled_length_docs(model)
        batches = self.record_batches(monkeypatch)
        for score in (evaluate, extract_view_representations):
            batches.clear()
            score(model, docs)
            assert [len(b) for b in batches] == [5, 5, 5, 4, 4]
            lengths = [n for batch in batches for n in batch]
            assert lengths == sorted(len(doc.tokens) for doc in docs)

    def test_a_call_one_short_of_two_batches_is_one_batch(self, monkeypatch):
        model = make_model(batch_size=23)
        single = MvnModel(dataclasses.replace(model.config, batch_size=1), model.vocab,
                          model.num_classes, model.params)
        docs = shuffled_length_docs(model) + shuffled_length_docs(model, seed=5)[:2]
        assert len(docs) == 25
        alone = evaluate(single, docs)
        batches = self.record_batches(monkeypatch)
        batched = evaluate(model, docs)
        assert [len(b) for b in batches] == [25]
        assert batched.confusion == alone.confusion
        assert batched.mean_loss == pytest.approx(alone.mean_loss, rel=0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(lengths=st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=200),
           batch_size=st.integers(min_value=1, max_value=60))
    def test_batches_are_the_fewest_even_cuts_of_the_length_order(self, lengths,
                                                                    batch_size):
        model = make_model()
        model = MvnModel(dataclasses.replace(model.config, batch_size=batch_size),
                         model.vocab, model.num_classes, model.params)
        # Only the cut is under test: skip the forward pass itself.
        model.forward_batch = lambda graph, batch, **kwargs: (
            None, ViewBundle(selections=[], views=[], attention=[]))
        docs = [make_doc(n) for n in lengths]
        cuts = [(positions, batch) for positions, batch, _, _ in model.eval_batches(docs)]
        sizes = [len(positions) for positions, _ in cuts]
        n = len(docs)
        assert len(sizes) == max(1, n // batch_size)
        assert max(sizes) - min(sizes) <= 1
        if n >= batch_size:
            assert batch_size <= min(sizes) and max(sizes) <= 2 * batch_size - 1
        assert [i for positions, _ in cuts for i in positions] == sorted(
            range(n), key=lambda i: lengths[i])
        assert all(batch == [docs[i] for i in positions] for positions, batch in cuts)


class TestPredict:
    def test_predict_is_deterministic(self):
        model = make_model()
        doc = make_doc(5)
        assert model.predict(doc) == model.predict(doc)

    def test_predict_in_class_range(self):
        model = make_model()
        for n in (1, 3, 7):
            assert 0 <= model.predict(make_doc(n)) < model.num_classes

    def test_value_written_in_place_is_caught_by_the_forward_pass(self):
        # Binding does not screen the parameters again, but each of them
        # reaches a screened op in every forward pass.
        model = make_model(two_layer_classifier=True)
        for name, array in model.params.items():
            kept = array.flat[0]
            array.flat[0] = np.nan
            with pytest.raises(NumericError, match="non-finite"):
                model.predict(make_doc(5))
            array.flat[0] = kept

    def test_rejects_single_class(self):
        config = TrainConfig(views=2, view_dim=4, embed_dim=3)
        vocab = build_vocab([WORDS])
        with pytest.raises(ValueError, match="class"):
            MvnModel.create(config, vocab, 1, np.random.default_rng(0))
