"""Labeled-document ingestion: one ``label<TAB>text`` line per document."""

from __future__ import annotations

from dataclasses import dataclass

from .features import tokenize
from .files import atomic_open, read_lines


# The share of a dataset file's non-blank lines that may be malformed.
MAX_MALFORMED_FRACTION = 0.01


class DatasetError(RuntimeError):
    """Unusable dataset file (missing, empty, or too many malformed lines)."""


@dataclass
class LabeledDocument:
    label: int
    tokens: list[str]
    raw: str


def load_dataset(path, classes: int | None = None) -> tuple[list[LabeledDocument], int]:
    """Parse a dataset file, returning documents and the malformed-line count.

    A line is malformed when it lacks a tab, its label is not a non-negative
    integer, or its text tokenizes to nothing. Malformed lines are skipped but
    counted; the whole load aborts when they exceed ``MAX_MALFORMED_FRACTION``
    of the non-blank lines. Given a model's class count ``classes``, a label
    at or above it aborts the load, naming the line.
    """
    docs: list[LabeledDocument] = []
    malformed = 0
    total = 0
    for number, raw in read_lines(path, DatasetError):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        total += 1
        if "\t" not in line:
            malformed += 1
            continue
        label_text, _, body = line.partition("\t")
        try:
            label = int(label_text.strip())
        except ValueError:
            malformed += 1
            continue
        if label < 0:
            malformed += 1
            continue
        if classes is not None and label >= classes:
            raise DatasetError(f"{path}:{number}: label {label} out of range "
                               f"for {classes} classes")
        tokens = tokenize(body)
        if not tokens:
            malformed += 1
            continue
        docs.append(LabeledDocument(label=label, tokens=tokens, raw=body))
    if total == 0:
        raise DatasetError(f"{path}: no documents")
    if malformed > MAX_MALFORMED_FRACTION * total:
        raise DatasetError(
            f"{path}: {malformed} of {total} lines malformed, "
            f"over the {MAX_MALFORMED_FRACTION:.0%} limit")
    return docs, malformed


def save_dataset(path, docs) -> None:
    """Write one ``label<TAB>text`` line per document, replacing ``path``
    whole or not at all."""
    with atomic_open(path) as handle:
        for doc in docs:
            handle.write(f"{doc.label}\t{doc.raw}\n")


def num_classes(docs) -> int:
    """Label count implied by the data: highest label plus one. More classes
    than documents are rejected: some class would have no example, and a
    stray huge label would size a huge classifier."""
    if not docs:
        raise DatasetError("num_classes: empty document list")
    count = max(doc.label for doc in docs) + 1
    if count > len(docs):
        raise DatasetError(f"label {count - 1} implies {count} classes, more than "
                           f"the {len(docs)} training documents")
    return count
