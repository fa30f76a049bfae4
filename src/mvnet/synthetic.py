"""Deterministic synthetic corpora for benchmarks, tests, and demos."""

from __future__ import annotations

from .config import seed_stream
from .data import LabeledDocument


def _make_doc(rng, label: int, noise: list[str], keywords: list[list[str]],
              min_len: int, max_len: int, min_keywords: int, max_keywords: int,
              ) -> LabeledDocument:
    length = int(rng.integers(min_len, max_len + 1))
    tokens = [noise[i] for i in rng.integers(len(noise), size=length).tolist()]
    plant = int(rng.integers(min_keywords, max_keywords + 1))
    for _ in range(plant):
        word = keywords[label][int(rng.integers(len(keywords[label])))]
        tokens.insert(int(rng.integers(len(tokens) + 1)), word)
    return LabeledDocument(label=label, tokens=tokens, raw=" ".join(tokens))


def keyword_corpus(num_classes: int = 4, train_size: int = 2000,
                   dev_size: int = 400, test_size: int = 400,
                   keywords_per_class: int = 5, noise_words: int = 30,
                   min_len: int = 10, max_len: int = 20,
                   min_keywords: int = 2, max_keywords: int = 4,
                   seed: int = 0):
    """Class-balanced documents of shared filler words with a few class
    keywords planted at random positions. Returns (train, dev, test)."""
    rng = seed_stream(seed, "data")
    noise = [f"filler{i:02d}" for i in range(noise_words)]
    keywords = [[f"class{c}word{j}" for j in range(keywords_per_class)]
                for c in range(num_classes)]

    def split(size: int) -> list[LabeledDocument]:
        return [_make_doc(rng, i % num_classes, noise, keywords,
                          min_len, max_len, min_keywords, max_keywords)
                for i in range(size)]

    return split(train_size), split(dev_size), split(test_size)


def random_label_corpus(size: int = 50, num_classes: int = 4,
                        vocab_size: int = 30, min_len: int = 5,
                        max_len: int = 10, seed: int = 0,
                        ) -> list[LabeledDocument]:
    """Documents of random tokens with labels drawn independently of the text;
    learnable only by memorization."""
    rng = seed_stream(seed, "data")
    words = [f"token{i:02d}" for i in range(vocab_size)]
    docs = []
    for _ in range(size):
        length = int(rng.integers(min_len, max_len + 1))
        tokens = [words[i] for i in rng.integers(vocab_size, size=length).tolist()]
        label = int(rng.integers(num_classes))
        docs.append(LabeledDocument(label=label, tokens=tokens, raw=" ".join(tokens)))
    return docs
