"""Tour of the tensor core: build a computation, run backward, verify.

Every layer in this package is composed from these primitives, so the
whole model is differentiable end to end and checkable against central
finite differences.
"""

import numpy as np

from ctxformer import tensor as tn
from ctxformer.attention import scaled_dot_product_attention

rng = np.random.default_rng(0)

# A small expression: loss = cross_entropy(x W, targets)
x = tn.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
w = tn.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
targets = rng.integers(0, 5, size=3)

logits = tn.matmul(x, w)
loss = tn.cross_entropy(logits, targets)
loss.backward()

print("loss:", loss.item())
print("grad wrt x (first row):", np.round(x.grad[0], 4))
print("grad wrt w (first row):", np.round(w.grad[0], 4))

# Gradients accumulate across backward calls, which is what gradient
# accumulation over micro-batches relies on.
before = x.grad.copy()
loss2 = tn.cross_entropy(tn.matmul(x, w), targets)
loss2.backward()
print("second backward doubled the gradient:", np.allclose(x.grad, 2 * before))

# Central finite differences confirm the chain rule on any composition.
def f(probe):
    return tn.cross_entropy(tn.matmul(probe, w), targets)

report = tn.finite_difference_check(f, x, h=1e-4, tol=1e-4)
print(report)

# Causal attention gives later positions exactly zero weight: with identity
# values, each output row is its query's row of attention weights.
q = tn.Tensor(rng.normal(size=(3, 2)))
rows = scaled_dot_product_attention(q, q, tn.Tensor(np.eye(3)), causal=True)
print("causal attention rows:\n", np.round(rows.data, 4))
