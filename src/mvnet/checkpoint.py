"""Single-file model container: a JSON header followed by raw little-endian
float64 tensor bytes. Round trips are bit-exact."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
from collections import OrderedDict

import numpy as np

from .config import ConfigError, config_from_dict
from .features import PAD_TOKEN, UNK_TOKEN, Vocabulary
from .files import atomic_open
from .model import MvnModel, parameter_layout
from .numeric import NumericError

MAGIC = b"MVNCKPT1"
FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """Unreadable or inconsistent checkpoint file."""


def save_checkpoint(path, model: MvnModel) -> None:
    """Write the model to ``path``, replacing any previous file only once the
    new one is complete."""
    header = {
        "format_version": FORMAT_VERSION,
        "config": dataclasses.asdict(model.config),
        "num_classes": model.num_classes,
        "vocab": model.vocab.tokens,
        "tensors": [{"name": name, "shape": list(array.shape)}
                    for name, array in model.params.items()],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_open(path, "wb") as handle:
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
    layout its stored config, vocabulary and class count imply.

    The layout is walked one tensor at a time and may not need more bytes
    than the file has left, so no header, however large the sizes it
    declares, makes the loader allocate more than the file holds. Tensors
    with NaN or infinite entries are rejected.
    """
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
        except ConfigError as exc:
            raise CheckpointError(f"{path}: bad config: {exc}") from None
        stored = header["tensors"]
        if not isinstance(stored, list):
            stored = []
        left = os.fstat(handle.fileno()).st_size - handle.tell()
        layout = []
        needed = 0
        for name, shape, _ in parameter_layout(config, len(tokens), num_classes):
            entry = {"name": name, "shape": list(shape)}
            if len(layout) == len(stored) or stored[len(layout)] != entry:
                names = {e.get("name") for e in stored if isinstance(e, dict)}
                detail = f"missing {name}" if name not in names else f"{name} differs"
                raise CheckpointError(
                    f"{path}: tensors do not match the stored config: {detail}")
            needed += 8 * math.prod(shape)
            if needed > left:
                raise CheckpointError(f"{path}: truncated tensor {name!r}")
            layout.append((name, shape))
        if len(layout) != len(stored):
            raise CheckpointError(f"{path}: tensors do not match the stored config: "
                                  f"{len(stored) - len(layout)} extra")
        if needed != left:
            raise CheckpointError(f"{path}: trailing bytes after the last tensor")
        params: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for name, shape in layout:
            raw = _read_exact(handle, 8 * math.prod(shape), path, f"tensor {name!r}")
            params[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    try:
        return MvnModel(config, Vocabulary(list(tokens)), num_classes, params)
    except NumericError as exc:  # a tensor holds NaN or infinite values
        raise CheckpointError(f"{path}: {exc}") from None
