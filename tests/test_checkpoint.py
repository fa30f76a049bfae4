"""Checkpoint container round trips and corruption handling."""

import json
import os
import struct
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvnet.checkpoint import (
    CheckpointError,
    FORMAT_VERSION,
    MAGIC,
    load_checkpoint,
    save_checkpoint,
)
from mvnet.config import TrainConfig
from mvnet.data import LabeledDocument
from mvnet.files import atomic_open
from mvnet.model import MvnModel
from mvnet.training import build_model


@pytest.fixture()
def model(tiny_corpus, tiny_config):
    train, _, _ = tiny_corpus
    return build_model(tiny_config, train)


def rewrite_header(path, mutate):
    """Load, modify, and re-serialize the JSON header in place."""
    raw = path.read_bytes()
    offset = len(MAGIC)
    (header_len,) = struct.unpack("<Q", raw[offset:offset + 8])
    start = offset + 8
    header = json.loads(raw[start:start + header_len])
    mutate(header)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob
                     + raw[start + header_len:])


class TestRoundTrip:
    def test_parameters_are_bit_exact(self, model, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        assert list(loaded.params) == list(model.params)
        for name in model.params:
            assert loaded.params[name].tobytes() == model.params[name].tobytes()
            assert loaded.params[name].dtype == np.float64

    def test_config_vocab_and_classes_survive(self, model, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        assert loaded.vocab.tokens == model.vocab.tokens
        assert loaded.vocab.index == model.vocab.index
        assert loaded.num_classes == model.num_classes

    def test_predictions_survive(self, model, tmp_path, tiny_corpus):
        _, _, test = tiny_corpus
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        for doc in test[:10]:
            assert loaded.predict(doc) == model.predict(doc)

    def test_save_is_deterministic(self, model, tmp_path):
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        save_checkpoint(a, model)
        save_checkpoint(b, model)
        assert a.read_bytes() == b.read_bytes()


class TestCorruption:
    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOTAMODEL" + b"\0" * 64)
        with pytest.raises(CheckpointError, match="not a model checkpoint"):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, model, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        rewrite_header(path, lambda h: h.update(format_version=FORMAT_VERSION + 1))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncated_tensor_data_rejected(self, model, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(CheckpointError, match="truncat"):
            load_checkpoint(path)

    def test_file_ending_inside_length_field_rejected(self, model, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        path.write_bytes(path.read_bytes()[:len(MAGIC) + 3])
        with pytest.raises(CheckpointError, match="truncated header length"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["tensors", "vocab", "config", "num_classes"])
    def test_header_without_required_key_rejected(self, model, tmp_path, key):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        rewrite_header(path, lambda h: h.pop(key))
        with pytest.raises(CheckpointError, match=f"lacks {key}"):
            load_checkpoint(path)

    def test_tensor_missing_from_layout_rejected(self, model, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        raw = path.read_bytes()

        def drop_out_bias(header):
            header["tensors"] = [t for t in header["tensors"]
                                 if t["name"] != "classifier.out_bias"]

        # The out bias is the last tensor, so dropping its bytes too leaves a
        # file whose tensor list and data agree with each other but not with
        # the stored config.
        path.write_bytes(raw[:-8 * model.num_classes])
        rewrite_header(path, drop_out_bias)
        with pytest.raises(CheckpointError, match="missing classifier.out_bias"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, model, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_unparseable_header_rejected(self, model, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        raw = bytearray(path.read_bytes())
        raw[len(MAGIC) + 8] = ord("!")  # clobber the JSON opening brace
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="header"):
            load_checkpoint(path)

    def test_reserved_vocab_slots_validated(self, model, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)

        def swap_pad(header):
            header["vocab"] = ["oops"] + header["vocab"][1:]

        rewrite_header(path, swap_pad)
        with pytest.raises(CheckpointError, match="vocab"):
            load_checkpoint(path)


    def test_huge_view_count_fails_fast_and_small(self, model, tmp_path):
        # The layout a config implies is walked only as far as the stored
        # tensor list and the file's bytes reach.
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        rewrite_header(path, lambda h: h["config"].update(views=10**6))
        tracemalloc.start()
        started = time.perf_counter()
        try:
            with pytest.raises(CheckpointError, match="tensors do not match"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20
        assert time.perf_counter() - started < 5.0

    def test_huge_declared_tensor_is_never_allocated(self, model, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        width = 10**9

        def widen_embedding(header):
            header["config"]["embed_dim"] = width
            for entry in header["tensors"]:
                if entry["name"] == "embedding":
                    entry["shape"][1] = width
                elif entry["name"] == "projection.weight":
                    entry["shape"][0] = width

        rewrite_header(path, widen_embedding)
        with pytest.raises(CheckpointError, match="truncated tensor 'embedding'"):
            load_checkpoint(path)

    def test_fractional_size_in_config_rejected(self, model, tmp_path):
        # 12.0 == 12, so the tensor list still matches; the size must be
        # refused before it reaches a read or a reshape.
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        rewrite_header(path, lambda h: h["config"].update(
            embed_dim=float(h["config"]["embed_dim"])))
        with pytest.raises(CheckpointError, match="embed_dim must be an integer"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected(self, model, tmp_path, value):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        raw = path.read_bytes()
        # The out bias is the last tensor.
        path.write_bytes(raw[:-8] + np.array([value], dtype="<f8").tobytes())
        with pytest.raises(CheckpointError, match="'classifier.out_bias'.*NaN or infinite"):
            load_checkpoint(path)


@pytest.fixture(scope="module")
def saved_checkpoint(tiny_corpus, tmp_path_factory):
    """A small two-view checkpoint with n-gram rows, its bytes and some
    documents to score."""
    train, _, test = tiny_corpus
    config = TrainConfig(views=2, view_dim=4, embed_dim=4, conv_features=True, seed=3)
    path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    save_checkpoint(path, build_model(config, train))
    return path, path.read_bytes(), test[:3]


class TestFuzzedCheckpoint:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_flipped_or_truncated_file_loads_or_is_rejected(self, saved_checkpoint, data):
        # The only outcomes allowed: CheckpointError, or a model that predicts.
        path, raw, docs = saved_checkpoint
        if data.draw(st.booleans(), label="truncate"):
            mutated = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
        else:
            at = data.draw(st.integers(0, len(raw) - 1), label="offset")
            byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[at]), label="byte")
            mutated = raw[:at] + bytes([byte]) + raw[at + 1:]
        broken = path.with_name("mutated.ckpt")
        broken.write_bytes(mutated)
        try:
            loaded = load_checkpoint(broken)
        except CheckpointError:
            return
        # A finite but vast weight may overflow an intermediate step that the
        # result does not keep; the CLI silences numpy's warnings the same way.
        with np.errstate(over="ignore", invalid="ignore"):
            for doc in docs:
                assert 0 <= loaded.predict(doc) < loaded.num_classes


class TestAtomicWrites:
    def test_failed_save_keeps_the_previous_checkpoint(self, model, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        before = path.read_bytes()
        params = model.copy_params()
        # The last tensor cannot be converted, so the save fails after the
        # header and every other tensor have been written.
        params["classifier.out_bias"] = np.array(["x"] * model.num_classes)
        broken = MvnModel(model.config, model.vocab, model.num_classes, params)
        with pytest.raises(ValueError):
            save_checkpoint(path, broken)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.ckpt"]

    def test_failed_text_write_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text("previous\n")
        with pytest.raises(TypeError):
            with atomic_open(path) as handle:
                json.dump({"ok": 1, "bad": object()}, handle)
        assert path.read_text() == "previous\n"
        assert os.listdir(tmp_path) == ["metrics.json"]

    def test_write_replaces_the_file_whole(self, tmp_path):
        path = tmp_path / "curve.jsonl"
        path.write_text("old\n")
        with atomic_open(path) as handle:
            handle.write("new\n")
        assert path.read_text() == "new\n"
        assert os.listdir(tmp_path) == ["curve.jsonl"]


class TestRobustness:
    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_reload_of_reload_is_identical(self, model, tmp_path):
        first = tmp_path / "first.ckpt"
        save_checkpoint(first, model)
        second = tmp_path / "second.ckpt"
        save_checkpoint(second, load_checkpoint(first))
        assert first.read_bytes() == second.read_bytes()
