"""Quaternion-valued convolutional neural networks in numpy.

Four-component quaternion algebra, quaternion and real convolutional
layers with exact reverse-mode gradients, RGB/HSV quaternion input
encodings, and a repeated-split experiment harness for the binary
white-blood-cell classification task.

Each public name is imported from its home module, whose ``__all__``
lists it; the package holds only its modules and the two versions.
"""

from . import encoding, harness, layers, quat, train

__version__ = "0.1.0"

# What a seed computes. Bump it with any change after which a seed no
# longer reproduces its results byte for byte; plan.json records it, so a
# sweep is not resumed across such a change. 1 is every result before
# 24x24 training ran in chunks of 8 samples, 2 those chunks of 8, and 3
# chunks of 16 with the weight gradients summed in blocks of 512 along
# their inner dimension, which makes them the same at one and two BLAS
# threads, and 4 those chunks with the sample axis last inside the
# network, which sums each weight gradient over (row, column, sample)
# instead of (sample, row, column); a chunk of one keeps its bits. 5
# computes only the convolution outputs that a max pool reads, in
# window-offset order, so each conv weight and bias gradient sums over
# (offset row, offset column, row, column, sample), at 24x24 and 100x100.
# 6 adds each convolution's bias to the pooled maxima and takes its bias
# gradient from the weight-gradient GEMM over a row of ones, in blocks of
# 512, so gradients move by float rounding; logits keep their bits.
# 7 runs a quaternion convolution on a batch whose real plane is all
# zero (the rgb encoding's first layer) without that plane, so its GEMMs
# have a quarter fewer inner or output rows; under SkylakeX and
# Sandybridge sgemm the bits are version 6's, under Haswell qvcnn-rgb's
# move by float rounding.
RESULTS_VERSION = 7
