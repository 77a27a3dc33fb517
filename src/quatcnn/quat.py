"""Quaternion scalars: the algebra the layers are checked against.

A quaternion q = q0 + q1*i + q2*j + q3*k is stored as four real
components. Feature maps are plain arrays with one real plane per
component, component axis first: a quaternion-valued image of C
channels is a (4, C, H, W) array. A ``train.Samples`` holds N of them
as a (4, C, N, H, W) array, and the layers run on batches with the
sample axis last, (4, C, H, W, N). All layer arithmetic downstream
reduces to real operations over these planes; the scalar ``Quaternion``
and ``hamilton`` here are the reference they mirror, and the layers'
signed-bank and fold tables come from ``hamilton`` on the four units.

``Quaternion`` is a plain value with no operators: each operation is
one free function (``add``, ``hamilton``, ``conjugate``, ``norm``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Quaternion",
    "add",
    "hamilton",
    "conjugate",
    "norm",
]


@dataclass(frozen=True)
class Quaternion:
    """Immutable quaternion with real components (q0, q1, q2, q3)."""

    q0: float
    q1: float
    q2: float
    q3: float

    def components(self) -> tuple[float, float, float, float]:
        return (self.q0, self.q1, self.q2, self.q3)


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def add(p: Quaternion, q: Quaternion) -> Quaternion:
    """Component-wise quaternion sum."""
    return Quaternion(p.q0 + q.q0, p.q1 + q.q1, p.q2 + q.q2, p.q3 + q.q3)


def hamilton(p: Quaternion, q: Quaternion) -> Quaternion:
    """Hamilton product p (x) q.

    Non-commutative: i*j = k but j*i = -k. The sign pattern here is
    the single source of truth: the convolution layers build their
    signed-bank and fold tables from it.
    """
    return Quaternion(
        p.q0 * q.q0 - p.q1 * q.q1 - p.q2 * q.q2 - p.q3 * q.q3,
        p.q0 * q.q1 + p.q1 * q.q0 + p.q2 * q.q3 - p.q3 * q.q2,
        p.q0 * q.q2 - p.q1 * q.q3 + p.q2 * q.q0 + p.q3 * q.q1,
        p.q0 * q.q3 + p.q1 * q.q2 - p.q2 * q.q1 + p.q3 * q.q0,
    )


def conjugate(q: Quaternion) -> Quaternion:
    """Flip the sign of the imaginary components."""
    return Quaternion(q.q0, -q.q1, -q.q2, -q.q3)


def norm(q: Quaternion) -> float:
    """Euclidean norm sqrt(q0^2 + q1^2 + q2^2 + q3^2)."""
    return math.sqrt(q.q0 * q.q0 + q.q1 * q.q1 + q.q2 * q.q2 + q.q3 * q.q3)
