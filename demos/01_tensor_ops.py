"""
Tensor primitives and their hand-written backward passes
========================================================

Every layer operation ships with an exact backward pass. This script runs
a convolution, pooling and batch-norm forward, then checks each gradient
against central finite differences.
"""

import numpy as np

from brainalign import ops
from brainalign.ops import ConvSpec

rng = np.random.default_rng(0)

# A small convolution: 2 input channels -> 3 filters, 3x3 kernel, padded.
# The kernel is the cross-correlation only, with no bias: the batch norm
# after each conv in the network would cancel one
spec = ConvSpec(in_channels=2, out_channels=3, kernel_size=3, stride=1, padding=1)
x = rng.normal(size=(2, 2, 6, 6))
w = rng.normal(size=spec.weight_shape)
out = ops.conv2d_forward(x, w, spec)
print("conv output shape:", out.shape)

# Backward: gradients of a random scalar projection of the output, from
# the two gradient kernels (the input gradient is also the transposed
# convolution)
proj = rng.normal(size=out.shape)
gx = ops.conv2d_input_grad(proj, w, spec, x.shape[2:])
gw = ops.conv2d_weight_grad(proj, x, spec)


def fd(f, t, eps=1e-5):
    g = np.zeros_like(t)
    it = np.nditer(t, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = t[i]
        t[i] = orig + eps
        fp = f()
        t[i] = orig - eps
        fm = f()
        t[i] = orig
        g[i] = (fp - fm) / (2 * eps)
        it.iternext()
    return g


loss = lambda: float(np.sum(ops.conv2d_forward(x, w, spec) * proj))
for name, grad, param in (("grad_x", gx, x), ("grad_w", gw, w)):
    print(f"conv {name} vs finite differences:",
          np.abs(grad - fd(loss, param)).max(), "(absolute)")

# Max pooling routes gradient to the argmax of each 2x2 window
pooled = ops.maxpool2x2_forward(out)
g_in = ops.maxpool2x2_backward(np.ones_like(pooled), out, pooled)
print("pool conserves gradient mass:", np.sum(g_in) == pooled.size)

# Batch norm: train mode normalizes by batch statistics into a fresh
# array and tracks running estimates, updated in place, for eval mode
# (which normalizes its input in place)
running_mean, running_var = np.zeros(3), np.ones(3)
normed, cache = ops.batchnorm_forward(out, np.ones(3), np.zeros(3), running_mean, running_var,
                                      "train")
print("per-channel mean after BN:", np.abs(normed.mean(axis=(0, 2, 3))).max())
print("per-channel var after BN: ", normed.var(axis=(0, 2, 3)))

# Softmax cross-entropy on uniform logits is log(num_classes)
loss_val, grad = ops.softmax_xent(np.zeros((4, 10)), np.arange(4))
print("uniform-logit loss:", loss_val, "= ln(10) =", np.log(10))
