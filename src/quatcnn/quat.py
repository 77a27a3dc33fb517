"""Quaternion scalars and four-plane quaternion tensors.

A quaternion q = q0 + q1*i + q2*j + q3*k is stored as four real
components. Feature maps carry one real plane per component, so a
quaternion-valued image of C channels lives in an array of shape
(4, C, H, W). All layer arithmetic downstream reduces to real
operations over these planes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Quaternion",
    "QTensor",
    "add",
    "hamilton",
    "conjugate",
    "norm",
    "split_complex",
    "recompose",
]


@dataclass(frozen=True)
class Quaternion:
    """Immutable quaternion with real components (q0, q1, q2, q3)."""

    q0: float
    q1: float
    q2: float
    q3: float

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return add(self, other)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.q0, -self.q1, -self.q2, -self.q3)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return add(self, -other)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        return hamilton(self, other)

    def conjugate(self) -> "Quaternion":
        return conjugate(self)

    def norm(self) -> float:
        return norm(self)

    def components(self) -> tuple[float, float, float, float]:
        return (self.q0, self.q1, self.q2, self.q3)


ZERO = Quaternion(0.0, 0.0, 0.0, 0.0)
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
    the single source of truth the convolution layers mirror plane by
    plane.
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


def split_complex(q: Quaternion) -> tuple[complex, complex]:
    """Regroup q into the complex pair (z0, z1) with q = z0 + z1*j.

    z0 = q0 + q1*i and z1 = q2 + q3*i (Cayley-Dickson form).
    """
    return complex(q.q0, q.q1), complex(q.q2, q.q3)


def recompose(z0: complex, z1: complex) -> Quaternion:
    """Inverse of split_complex: (z0, z1) -> z0 + z1*j."""
    return Quaternion(z0.real, z0.imag, z1.real, z1.imag)


class QTensor:
    """Quaternion-valued feature map: four real planes of shape (C, H, W).

    Stored as one contiguous array of shape (4, C, H, W), component
    index first, so flattening is component-major by construction.
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        data = np.asarray(data)
        if data.ndim != 4 or data.shape[0] != 4:
            raise ValueError(
                f"QTensor data must have shape (4, C, H, W), got {data.shape}"
            )
        self.data = data

    @classmethod
    def from_planes(
        cls,
        p0: np.ndarray,
        p1: np.ndarray,
        p2: np.ndarray,
        p3: np.ndarray,
    ) -> "QTensor":
        """Pack four (C, H, W) planes; all shapes must agree."""
        planes = [np.asarray(p) for p in (p0, p1, p2, p3)]
        ref = planes[0].shape
        if len(ref) != 3:
            raise ValueError(f"plane 0 must be 3-d (C, H, W), got shape {ref}")
        for idx, plane in enumerate(planes[1:], start=1):
            if plane.shape != ref:
                raise ValueError(
                    f"plane {idx} has shape {plane.shape}, expected {ref} (plane 0)"
                )
        return cls(np.stack(planes, axis=0))

    @property
    def planes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (self.data[0], self.data[1], self.data[2], self.data[3])

    @property
    def shape(self) -> tuple[int, int, int]:
        """(C, H, W) over quaternion channels."""
        return self.data.shape[1:]

    @property
    def channels(self) -> int:
        return self.data.shape[1]

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def at(self, c: int, h: int, w: int) -> Quaternion:
        """Read one quaternion element across the four planes."""
        d = self.data
        return Quaternion(
            float(d[0, c, h, w]),
            float(d[1, c, h, w]),
            float(d[2, c, h, w]),
            float(d[3, c, h, w]),
        )

    def astype(self, dtype) -> "QTensor":
        return QTensor(self.data.astype(dtype))

    def copy(self) -> "QTensor":
        return QTensor(self.data.copy())

    def __repr__(self) -> str:
        return f"QTensor(channels={self.channels}, spatial={self.data.shape[2:]}, dtype={self.dtype})"
