"""Scalars of the dimension-two numeric algebra.

A scalar x = re + im*i carries a trace form tr(x) = x + conj(x) = 2*re and a
norm form N(x) = x*conj(x) = re**2 + im**2, and satisfies the minimal
polynomial x**2 - tr(x)*x + N(x) = 0.  The algebra embeds into real 2x2
matrices via x -> [[re, -im], [im, re]]; the embedding is kept as a
verification view only, arithmetic happens on the (re, im) pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TraceScalar",
    "ZERO",
    "ONE",
    "IMAG_UNIT",
    "trace",
    "norm_form",
    "minimal_poly_residual",
    "embed_matrix",
]


@dataclass(frozen=True)
class TraceScalar:
    """One element of the dimension-two algebra, stored as a (re, im) pair."""

    re: float
    im: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "re", float(self.re))
        object.__setattr__(self, "im", float(self.im))

    def to_complex(self) -> complex:
        return complex(self.re, self.im)

    def conjugate(self) -> "TraceScalar":
        return TraceScalar(self.re, -self.im)

    def __complex__(self) -> complex:
        return complex(self.re, self.im)

    def __abs__(self) -> float:
        return float(np.hypot(self.re, self.im))

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return TraceScalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return TraceScalar(-self.re, -self.im)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return TraceScalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return TraceScalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = norm_form(other)
        if n == 0.0:
            raise ZeroDivisionError("division by the zero scalar")
        return self * other.conjugate() * (1.0 / n)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self


def _coerce(value):
    if isinstance(value, TraceScalar):
        return value
    if isinstance(value, (int, float)):
        return TraceScalar(float(value), 0.0)
    if isinstance(value, complex):
        return TraceScalar(value.real, value.imag)
    return NotImplemented


def _as_scalar(value) -> TraceScalar:
    coerced = _coerce(value)
    if coerced is NotImplemented:
        raise TypeError(f"cannot interpret {value!r} as a TraceScalar")
    return coerced


ZERO = TraceScalar(0.0, 0.0)
ONE = TraceScalar(1.0, 0.0)
IMAG_UNIT = TraceScalar(0.0, 1.0)


def trace(x) -> float:
    """Trace form tr(x) = x + conj(x), always real; tr(i) = 0 exactly."""
    return 2.0 * _as_scalar(x).re


def norm_form(x) -> float:
    """Norm form N(x) = x*conj(x) = re**2 + im**2, always real and >= 0."""
    x = _as_scalar(x)
    return x.re * x.re + x.im * x.im


def minimal_poly_residual(x) -> TraceScalar:
    """Residual of x**2 - tr(x)*x + N(x)*1, zero up to roundoff at scale N(x)."""
    x = _as_scalar(x)
    return x * x - trace(x) * x + norm_form(x) * ONE


def embed_matrix(x) -> np.ndarray:
    """Real 2x2 image [[re, -im], [im, re]] of x; a ring homomorphism."""
    x = _as_scalar(x)
    return np.array([[x.re, -x.im], [x.im, x.re]], dtype=np.float64)
