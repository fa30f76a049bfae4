"""Checkpoint container round trips and corruption handling."""

import json
import struct

import numpy as np
import pytest

from mvnet.checkpoint import (
    CheckpointError,
    FORMAT_VERSION,
    MAGIC,
    load_checkpoint,
    save_checkpoint,
)
from mvnet.data import LabeledDocument
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
