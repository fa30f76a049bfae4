"""Atomic file replacement: a written file appears whole or not at all."""

from __future__ import annotations

import contextlib
import os
import secrets


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a new temporary file beside ``path`` for writing (``mode`` is
    "w" for UTF-8 text or "wb") and move it over ``path`` with ``os.replace``
    when the block ends. If the block raises, the temporary file is removed
    and ``path`` keeps its previous content. Nothing is synced to disk: this
    guards against a failing or killed writer, not against power loss."""
    path = os.fspath(path)
    directory, name = os.path.split(path)
    temp = os.path.join(directory, f".{name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(temp, mode.replace("w", "x"),
                  encoding=None if "b" in mode else "utf-8") as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temp)
        raise
