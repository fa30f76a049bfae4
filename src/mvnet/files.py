"""Atomic file replacement, so a written file appears whole or not at all,
and line-numbered reading of UTF-8 text inputs."""

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


def read_lines(path, error: type[Exception]):
    """Yield the number (from 1) and text of each line of a UTF-8 file, split
    and decoded as text mode reads it, newline kept. A line holding bytes
    that are not UTF-8 raises ``error("<path>:<line>: not UTF-8 text")``;
    text mode would stop at the first bad chunk without naming a line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for number, line in enumerate(handle, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise error(f"{path}:{number}: not UTF-8 text") from None
            yield number, line
