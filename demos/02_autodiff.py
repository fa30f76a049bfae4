"""
The tape-based autodiff core
============================

Every model in this package trains through one small reverse-mode engine:
a Graph records operations on float64 tensors, and backward() walks the
tape once to produce exact gradients.
"""

import numpy as np

from mvnet.numeric import (
    Graph,
    cross_entropy,
    finite_diff_check,
    linear,
    softmax_vec,
    sum_all,
    tanh_ew,
)

rng = np.random.default_rng(0)

# Forward: two input rows through a 4 -> 3 tanh layer, summed to a scalar.
graph = Graph()
weights = graph.tensor(rng.normal(size=(3, 4)) * 0.5, requires_grad=True, name="weights")
inputs = graph.tensor(rng.normal(size=(2, 4)), name="inputs")
hidden = tanh_ew(linear(inputs, weights))
loss = sum_all(hidden)
print(f"loss = {loss.item():.6f}")

# Backward: one call fills the grad of every requires_grad leaf.
graph.backward(loss)
print("gradient of the weights:")
print(np.array_str(weights.grad, precision=4))

# The same engine handles the classification head: softmax probabilities
# and the numerically stable cross-entropy.
graph = Graph()
logits = graph.tensor(np.array([2.0, -1.0, 0.5]), requires_grad=True)
print(f"\nsoftmax: {np.array_str(softmax_vec(logits).value, precision=4)}")
nll = cross_entropy(logits, 0)
print(f"cross-entropy against class 0: {nll.item():.6f}")
graph.backward(nll)
print(f"logit gradient (probabilities minus one-hot): "
      f"{np.array_str(logits.grad, precision=4)}")

# Trust but verify: central finite differences over every coordinate.
params = {"w": rng.normal(size=(3, 4)) * 0.5, "x": rng.normal(size=(2, 4))}


def build(graph, leaves):
    return sum_all(tanh_ew(linear(leaves["x"], leaves["w"])))


error = finite_diff_check(build, params)
print(f"\nworst finite-difference mismatch: {error:.2e}")
