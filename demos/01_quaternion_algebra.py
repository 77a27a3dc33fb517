#!/usr/bin/env python3
"""A tour of the quaternion algebra the network layers are built on.

Quaternions extend complex numbers with three imaginary units i, j, k
obeying i^2 = j^2 = k^2 = ijk = -1. Their product (the Hamilton
product) is non-commutative, and that asymmetry is exactly what lets a
quaternion filter mix color channels instead of treating them as
independent planes.
"""

import numpy as np

from quatcnn.quat import I, J, K, ONE, Quaternion, add, conjugate, hamilton, norm

print("== unit rules ==")
for name, u in (("i", I), ("j", J), ("k", K)):
    print(f"{name} * {name} =", hamilton(u, u).components())
print("i * j =", hamilton(I, J).components(), " (that is k)")
print("j * i =", hamilton(J, I).components(), " (that is -k: order matters)")

print("\n== a worked product ==")
p, q = Quaternion(1, 2, 3, 4), Quaternion(5, 6, 7, 8)
print("p + q =", add(p, q).components())
print("p * q =", hamilton(p, q).components())
print("q * p =", hamilton(q, p).components())

print("\n== norm and conjugation ==")
print("|p| * |q| =", norm(p) * norm(q))
print("|p * q|   =", norm(hamilton(p, q)), " (norms multiply)")
print("p * conj(p) =", hamilton(p, conjugate(p)).components(),
      " (norm squared on the real axis)")

print("\n== the 4x4 real matrix behind left multiplication ==")
# hamilton(p, .) is linear, so it has a real matrix: column b holds
# p * e_b. The convolution layers use this same structure per filter tap.
basis = (ONE, I, J, K)
mat = np.array([hamilton(p, e).components() for e in basis]).T
print(mat)
rng = np.random.default_rng(0)
v = Quaternion(*rng.uniform(-1, 1, 4))
direct = np.array(hamilton(p, v).components())
via_matrix = mat @ np.array(v.components())
print("max |direct - matrix route| =", np.max(np.abs(direct - via_matrix)))
