"""Single-file model container: a JSON header followed by raw little-endian
float64 tensor bytes. Round trips are bit-exact."""

from __future__ import annotations

import json
import os
import struct
from collections import OrderedDict

import numpy as np

from .config import ConfigError, config_from_dict, config_to_dict
from .features import PAD_TOKEN, UNK_TOKEN, Vocabulary
from .model import MvnModel, parameter_layout

MAGIC = b"MVNCKPT1"
FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """Unreadable or inconsistent checkpoint file."""


def save_checkpoint(path, model: MvnModel) -> None:
    header = {
        "format_version": FORMAT_VERSION,
        "config": config_to_dict(model.config),
        "num_classes": model.num_classes,
        "vocab": model.vocab.tokens,
        "tensors": [{"name": name, "shape": list(array.shape)}
                    for name, array in model.params.items()],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(struct.pack("<Q", len(blob)))
        handle.write(blob)
        for array in model.params.values():
            handle.write(np.ascontiguousarray(array, dtype="<f8").tobytes())


def _read_exact(handle, size: int, path, what: str) -> bytes:
    data = handle.read(size)
    if len(data) != size:
        raise CheckpointError(f"{path}: truncated {what}")
    return data


def _read_header(handle, path) -> dict:
    if handle.read(len(MAGIC)) != MAGIC:
        raise CheckpointError(f"{path}: not a model checkpoint")
    (header_len,) = struct.unpack("<Q", _read_exact(handle, 8, path, "header length"))
    # Bound the length by the file before reading, so a corrupt length
    # cannot ask for an allocation larger than the file itself.
    if header_len > os.fstat(handle.fileno()).st_size - handle.tell():
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(handle.read(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: corrupt header: not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version "
                              f"{header.get('format_version')!r}")
    missing = [key for key in ("config", "num_classes", "vocab", "tensors")
               if key not in header]
    if missing:
        raise CheckpointError(f"{path}: header lacks {', '.join(missing)}")
    return header


def load_checkpoint(path) -> MvnModel:
    """Read a checkpoint, checking its header and tensor layout against the
    layout its stored config, vocabulary and class count imply."""
    with open(path, "rb") as handle:
        header = _read_header(handle, path)
        tokens = header["vocab"]
        if (not isinstance(tokens, list) or len(tokens) < 2
                or tokens[0] != PAD_TOKEN or tokens[1] != UNK_TOKEN
                or not all(isinstance(t, str) for t in tokens)):
            raise CheckpointError(f"{path}: vocabulary must be a list of strings "
                                  f"starting with the reserved entries")
        num_classes = header["num_classes"]
        if type(num_classes) is not int or num_classes < 2:
            raise CheckpointError(f"{path}: bad class count {num_classes!r}")
        try:
            config = config_from_dict(header["config"])
            layout = [(name, shape) for name, shape, _ in
                      parameter_layout(config, len(tokens), num_classes)]
        except (ConfigError, TypeError) as exc:
            raise CheckpointError(f"{path}: bad config: {exc}") from None
        expected = [{"name": name, "shape": list(shape)} for name, shape in layout]
        if header["tensors"] != expected:
            stored = header["tensors"] if isinstance(header["tensors"], list) else []
            names = {e.get("name") for e in stored if isinstance(e, dict)}
            absent = [name for name, _ in layout if name not in names]
            detail = f"missing {', '.join(absent)}" if absent else "names or shapes differ"
            raise CheckpointError(f"{path}: tensors do not match the stored config: {detail}")
        params: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for name, shape in layout:
            count = int(np.prod(shape, dtype=np.int64))
            raw = _read_exact(handle, count * 8, path, f"tensor {name!r}")
            params[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
        if handle.read(1):
            raise CheckpointError(f"{path}: trailing bytes after the last tensor")
    vocab = Vocabulary(tokens=list(tokens),
                       index={t: i for i, t in enumerate(tokens)})
    return MvnModel(config, vocab, num_classes, params)
