#!/usr/bin/env python3
"""The quaternion convolution and its two equivalent formulations.

A quaternion feature map of C channels is a plain (4, C, H, W) array,
one real plane per component; the layers take a batch of N of them as
(4, C, H, W, N), with the sample axis last.
A ``QConv2d`` layer holds four real kernel banks W0..W3 as one
(4, F, C, k, k) array ``w``. At every tap of a valid cross-correlation
the layer multiplies filter and input quaternions with the Hamilton
product and sums. The layer computes the same map as one real
convolution over the four stacked component planes with a
sign-structured 4x4 block kernel, the ``Conv2d`` that ``as_block_conv``
returns; both routes are shown here against a literal per-pixel loop.
"""

import numpy as np

from quatcnn.layers import QConv2d, as_block_conv
from quatcnn.quat import Quaternion, add, hamilton

rng = np.random.default_rng(3)
channels, filters, k = 2, 3, 3
height = width = 6

x = rng.uniform(-1, 1, (4, channels, height, width))
layer = QConv2d(channels, filters, k, dtype=np.float64)
layer.w[...] = rng.uniform(-1, 1, layer.w.shape)
layer.bias[...] = rng.uniform(-1, 1, layer.bias.shape)

# a batch of one sample: the sample axis sits last
out = layer.forward(x[..., None])[..., 0]
print("input  (4, C, H, W):", x.shape)
print("output (4, F, OH, OW):", out.shape)

# route 1: the definition, written as loops
oh = ow = height - k + 1
loop = np.zeros((4, filters, oh, ow))
for f in range(filters):
    for i in range(oh):
        for j in range(ow):
            acc = Quaternion(*(float(layer.bias[c, f]) for c in range(4)))
            for c in range(channels):
                for di in range(k):
                    for dj in range(k):
                        w_q = Quaternion(*(float(bank[f, c, di, dj])
                                           for bank in layer.w))
                        x_q = Quaternion(*x[:, c, i + di, j + dj])
                        acc = add(acc, hamilton(w_q, x_q))
            loop[:, f, i, j] = acc.components()
print("max |layer - per-pixel loop| =", np.max(np.abs(out - loop)))

# route 2: one real convolution of the stacked planes
block = as_block_conv(layer)
print("block kernel shape:", block.w.shape, " (4F, 4C, k, k)")
stacked = block.forward(x.reshape(4 * channels, height, width, 1))[..., 0]
print("max |layer - block conv|     =",
      np.max(np.abs(out.reshape(stacked.shape) - stacked)))

# the sign pattern of the first block row, which is the Hamilton table
# read along the real output component: (+, -, -, -)
signs = [float(np.sign(block.w[0, b * channels, 0, 0] / layer.w[b, 0, 0, 0, 0]))
         for b in range(4)]
print("first block-row signs:", signs)
