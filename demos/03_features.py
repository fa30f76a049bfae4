"""
From raw text to the feature matrix
===================================

A document becomes a matrix of feature rows in three steps: tokenize into a
vocabulary, project each word embedding through a shared tanh layer, and
append one max-pooled n-gram vector per filter order.
"""

import numpy as np

from mvnet.features import (
    NGRAM_ORDERS,
    augment_features,
    build_vocab,
    init_embeddings,
    ngram_features,
    project,
    tokenize,
)
from mvnet.numeric import Graph, gather_rows

# Tokenization lowercases, splits on whitespace, and strips edge punctuation.
text = "The film, despite flaws, is genuinely moving!"
tokens = tokenize(text)
print(f"tokens: {tokens}")

# The vocabulary reserves index 0 for padding and 1 for unknown words.
vocab = build_vocab([tokens])
print(f"vocabulary ({len(vocab)} entries): {vocab.tokens}")
print(f"unseen word maps to slot {vocab.lookup('zebra')}")

# Embedding rows start as small uniform noise when no file is given.
rng = np.random.default_rng(0)
embed_dim, feature_dim = 10, 6
table = init_embeddings(vocab, embed_dim, rng)

graph = Graph()
weight = graph.tensor(rng.normal(size=(embed_dim, feature_dim)) * 0.3)
bias = graph.tensor(np.zeros(feature_dim))
# Each distinct token is projected once. The vocabulary's slot 0 is <pad>,
# so the projected table starts with the pad row that fills short windows.
token_rows = project(graph.tensor(table), weight, bias)
ids = np.array([[vocab.lookup(t) for t in tokens]])
projected = gather_rows(token_rows, ids)
print(f"\nprojected word rows: {projected.shape}")

# One filter per n-gram order slides over the text's rows; max pooling keeps
# the strongest response per output coordinate. The filters are looked up by
# the names a model gives its parameters, and one node pools every order.
filters = {}
for order in NGRAM_ORDERS:
    filters[f"ngram{order}.filter"] = graph.tensor(
        rng.normal(size=(feature_dim, order * feature_dim)) * 0.2)
    filters[f"ngram{order}.bias"] = graph.tensor(np.zeros(feature_dim))
pooled = ngram_features(token_rows, filters, ids)
for order, vector in zip(NGRAM_ORDERS, pooled.value):
    print(f"  {order}-gram vector: {np.array_str(vector, precision=3)}")

# The final feature matrix stacks word rows and pooled vectors: with orders
# 2-5 a document of H words always yields H + 4 rows.
features = augment_features(projected, pooled)
print(f"\nfeature matrix: {features.shape[1:]} "
      f"({len(tokens)} word rows + {len(NGRAM_ORDERS)} pooled rows)")
