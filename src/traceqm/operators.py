"""Hermitian operators and expectation machinery.

Observables enter the workbench through :func:`certify_hermitian`, which
measures the worst entry deviation from the adjoint and refuses matrices
beyond tolerance.  Expectations come in the complex flavour ``expect_c``
(the real part of the sesquilinear form, with the imaginary part checked
to vanish) and the trace-form flavour ``expect_r`` which is exactly twice
``expect_c`` for hermitian input.

Any product of two hermitian operators splits as
``A @ B = S + i*D`` with ``S = (AB + BA)/2`` and ``D = (AB - BA)/(2i)``
both hermitian; :func:`sym_antisym_split` returns that pair certified.
``av_decompose`` splits the action of an observable on a state into a mean
part along the state and a dispersion part orthogonal to it.

Every routine taking a state requires :attr:`StateVector.normalized`: its
norm within ``STATE_NORM_TOL`` (defined in :mod:`traceqm.states`) of one.

A grid operator that is tridiagonal by construction (the grid position,
momentum and kinetic Hamiltonian) is a :class:`BandOperator`: it keeps its
bands, is certified from them in O(N), and builds its dense matrix only
when a caller asks for it.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, GridError, InputError, NotHermitianError, NumericalError, StateError
from .scalars import TraceScalar, trace
# STATE_NORM_TOL is defined in states and stays importable from here
from .states import STATE_NORM_TOL, GridMeta, StateVector, _raw_inner, _raw_norm, _require_same_space  # noqa: F401

__all__ = [
    "Operator",
    "HermitianOperator",
    "BandOperator",
    "AvResult",
    "adjoint",
    "certify_hermitian",
    "sym_antisym_split",
    "expect_c",
    "expect_r",
    "dispersion",
    "av_decompose",
]

#: hermiticity bound, relative to the operator's scale max|A|.
CERT_TOL = 1e-10

#: bound on the imaginary part of a hermitian expectation, relative to |A psi|.
IMAG_EXPECT_TOL = 1e-10

#: dispersion, relative to |A psi|, at or below which no orthogonal component is returned.
BETA_FLOOR = 1e-10

#: bytes of one complex128 matrix entry.
COMPLEX_ENTRY_BYTES = 16


class Operator:
    """Square matrix acting on states, optionally bound to a grid."""

    __slots__ = ("matrix", "grid")

    def __init__(self, matrix, grid: GridMeta | None = None):
        arr = np.array(matrix, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise DimensionError(f"operator matrix must be square, got shape {arr.shape}")
        if grid is not None and arr.shape[0] != grid.npoints:
            raise GridError(f"{arr.shape[0]}x{arr.shape[0]} matrix does not fit a grid of {grid.npoints} points")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)
        object.__setattr__(self, "grid", grid)

    def __setattr__(self, name, value):
        raise AttributeError("Operator is immutable")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, state: StateVector) -> StateVector:
        _require_same_space(self, state, "operator and state")
        return StateVector(self.matrix @ state.coeffs, self.grid)

    def __matmul__(self, other: "Operator") -> "Operator":
        if not isinstance(other, Operator):
            return NotImplemented
        _require_same_space(self, other, "operators")
        return Operator(self.matrix @ other.matrix, self.grid)

    def __repr__(self):
        return f"<{type(self).__name__} dim={self.dim}>"


class HermitianOperator(Operator):
    """Operator whose hermiticity has been certified.

    ``certificate`` records the worst entry deviation max|A - adjoint(A)|
    found at certification time, and ``scale`` max|A|, which its bounds are relative to.
    """

    __slots__ = ("certificate", "scale")

    def __init__(self, matrix, grid: GridMeta | None = None, certificate: float = 0.0):
        super().__init__(matrix, grid)
        object.__setattr__(self, "certificate", float(certificate))
        object.__setattr__(self, "scale", float(abs(self.matrix).max()))


def _cert_bound(scale: float) -> float:
    """``CERT_TOL * scale``; an inf or NaN scale (a non-finite entry) is refused before inf - inf warns."""
    if not scale < np.inf:
        raise NotHermitianError(np.nan, CERT_TOL * scale, "matrix has non-finite entries")
    return CERT_TOL * scale


def _require_fits(grid: GridMeta, need: int, what: str):
    """Refuse a grid whose working set of ``need`` bytes exceeds physical memory.

    Pure arithmetic on N: nothing is allocated, so an absurd grid size is
    refused at once instead of exhausting the machine.
    """
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise InputError(
            f"a grid of {grid.npoints} points needs {need / 1e9:.3g} GB for {what}, "
            f"more than the {have / 1e9:.3g} GB of physical memory"
        )


#: the slot a band operator keeps its dense matrix in, once built.
_DENSE = Operator.matrix


class BandOperator(HermitianOperator):
    """Certified hermitian tridiagonal operator on a grid, held as its bands.

    ``diagonal`` is real and ``upper``, the superdiagonal, real or complex;
    the subdiagonal is the conjugate of ``upper``.  Hermitian by
    construction, the operator is certified by checking that its bands are
    finite, in O(N), with certificate 0 and :func:`certify_hermitian`'s
    bound and message.  ``matrix`` is the dense N x N complex128 matrix,
    built on first access (and refused first if it cannot fit in physical
    memory) and then kept, so only the callers that use it pay for it.
    """

    __slots__ = ("diagonal", "upper")

    def __init__(self, diagonal, upper, grid: GridMeta):
        diagonal = np.array(diagonal, dtype=np.float64)
        upper = np.array(upper, dtype=np.complex128 if np.iscomplexobj(upper) else np.float64)
        if diagonal.shape != (grid.npoints,) or upper.shape != (grid.npoints - 1,):
            raise GridError(f"bands of shapes {diagonal.shape} and {upper.shape} do not fit "
                            f"a grid of {grid.npoints} points")
        object.__setattr__(self, "scale", float(np.max([abs(diagonal).max(), abs(upper).max()])))
        _cert_bound(self.scale)
        diagonal.setflags(write=False)
        upper.setflags(write=False)
        object.__setattr__(self, "diagonal", diagonal)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "certificate", 0.0)

    @property
    def dim(self) -> int:
        return self.diagonal.size

    @property
    def matrix(self) -> np.ndarray:
        try:
            return _DENSE.__get__(self)
        except AttributeError:
            pass
        n = self.dim
        _require_fits(self.grid, COMPLEX_ENTRY_BYTES * n * n, f"a dense {n}x{n} complex matrix")
        matrix = self._dense(np.complex128)
        matrix.setflags(write=False)
        _DENSE.__set__(self, matrix)
        return matrix

    def _dense(self, dtype) -> np.ndarray:
        """A new N x N array of ``dtype`` holding the bands."""
        n = self.dim
        out = np.zeros((n, n), dtype=dtype)
        np.fill_diagonal(out, self.diagonal)
        j = np.arange(n - 1)
        out[j, j + 1] = self.upper
        # conj(-1j*x) has real part -0.0 where 1j*x has +0.0: adding 0.0 makes
        # it +0.0, so the subdiagonal holds the bytes of 1j*x
        out[j + 1, j] = self.upper.conj() + 0.0
        return out


class AvResult(NamedTuple):
    """Mean-plus-deviation split of an observable acting on a state."""

    alpha: float
    beta: float
    perp: StateVector | None


def _require_normalized(state: StateVector):
    if not state.normalized:
        raise StateError(f"state is not normalized (norm {state.norm():.12f})")


def adjoint(a: Operator) -> Operator:
    """Conjugate transpose; an exact involution."""
    return Operator(a.matrix.conj().T, a.grid)


def _certify_stack(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scales max|A| and deviations max|A - adjoint(A)| of a (k, N, N) complex128 stack.

    Refuses the first matrix, in stack order, that :func:`certify_hermitian`
    would refuse, with its :class:`NotHermitianError`; no deviation is formed
    for a matrix with a non-finite entry, nor for any after it.
    """
    scales = abs(matrices).max(axis=(1, 2))
    finite = scales < np.inf
    count = finite.size if finite.all() else int(finite.argmin())
    # the one stack-sized temporary, the adjoints in C order so the in-place difference runs contiguously
    diff = np.conjugate(matrices[:count].transpose(0, 2, 1), order="C")
    np.subtract(matrices[:count], diff, out=diff)
    deviations = abs(diff).max(axis=(1, 2))
    bounds = CERT_TOL * scales[:count]
    passed = deviations <= bounds
    if not passed.all():
        first = int(passed.argmin())
        raise NotHermitianError(float(deviations[first]), float(bounds[first]))
    if count < finite.size:
        _cert_bound(float(scales[count]))
    return scales, deviations


def certify_hermitian(a, grid: GridMeta | None = None) -> HermitianOperator:
    """Check max|A - adjoint(A)| against ``CERT_TOL`` times the scale max|A|.

    Accepts an :class:`Operator` or a bare matrix.  Returns a
    :class:`HermitianOperator` carrying the measured deviation as its
    certificate and max|A| as its scale, or raises :class:`NotHermitianError`
    (also for a matrix with a non-finite entry).  A zero matrix passes.
    The check is the stack of one of ``_certify_stack``.
    """
    probe = a if isinstance(a, Operator) else Operator(a, grid)
    scales, deviations = _certify_stack(probe.matrix[None])
    # the probe's matrix is already a private read-only copy: share it rather
    # than copy it again through Operator.__init__
    certified = object.__new__(HermitianOperator)
    object.__setattr__(certified, "matrix", probe.matrix)
    object.__setattr__(certified, "grid", probe.grid)
    object.__setattr__(certified, "certificate", float(deviations[0]))
    object.__setattr__(certified, "scale", float(scales[0]))
    return certified


def sym_antisym_split(a: HermitianOperator, b: HermitianOperator) -> tuple[HermitianOperator, HermitianOperator]:
    """Split A @ B into hermitian S and D with A @ B = S + i*D.

    S = (AB + BA)/2 and D = (AB - BA)/(2i) are both hermitian whenever A
    and B are; the identity holds entrywise to roundoff.
    """
    ab = a @ b
    ba = b @ a
    s = certify_hermitian(Operator((ab.matrix + ba.matrix) / 2.0, a.grid))
    d = certify_hermitian(Operator((ab.matrix - ba.matrix) / 2j, a.grid))
    return s, d


def _raw_value(a: Operator, psi: StateVector) -> tuple[complex, np.ndarray]:
    _require_same_space(a, psi, "operator and state")
    _require_normalized(psi)
    image = a.matrix @ psi.coeffs
    return _raw_inner(psi.coeffs, image, psi.grid), image


def _raw_expectation(a: HermitianOperator, psi: StateVector) -> tuple[complex, np.ndarray, float]:
    raw, image = _raw_value(a, psi)
    norm = _raw_norm(image, psi.grid)
    bound = IMAG_EXPECT_TOL * norm
    if abs(raw.imag) > bound:
        raise NumericalError(
            f"hermitian expectation has imaginary part {raw.imag:.3e} beyond bound {bound:.3e}",
            value=raw.imag, bound=bound,
        )
    return raw, image, norm


def expect_c(a: HermitianOperator, psi: StateVector) -> float:
    """Complex-form expectation Re <psi|A psi>; the imaginary part is checked to vanish."""
    return _raw_expectation(a, psi)[0].real


def expect_r(a: Operator, psi: StateVector) -> float:
    """Trace-form expectation tr<psi|A psi>.

    Accepts any operator: the trace form discards the antisymmetric part,
    which is why products A @ B and B @ A of hermitians are indistinguishable
    here.  For a certified hermitian operator this is exactly
    2 * :func:`expect_c`.
    """
    raw, _ = _raw_value(a, psi)
    return trace(TraceScalar(raw.real, raw.imag))


def dispersion(a: HermitianOperator, psi: StateVector) -> float:
    """Standard deviation sqrt(<A^2> - <A>^2), clipped at zero.

    The second moment is computed as the squared norm of A @ psi, an
    independent route from the expectation itself.  Both moments are scaled
    exactly by the power of two that brings that norm into [0.5, 1), so
    neither square overflows or underflows.
    """
    raw, _, norm = _raw_expectation(a, psi)
    e = math.frexp(norm)[1]
    norm, mean = math.ldexp(norm, -e), math.ldexp(raw.real, -e)
    return math.ldexp(math.sqrt(max(0.0, norm**2 - mean**2)), e)


def av_decompose(a: HermitianOperator, psi: StateVector) -> AvResult:
    """Split A psi = alpha*psi + beta*perp with perp a unit vector orthogonal to psi.

    alpha is the expectation and beta the dispersion of A in psi.  When beta
    falls at or below ``BETA_FLOOR`` times |A psi| (psi is an eigenvector to
    working precision) no orthogonal direction is defined and ``perp`` is
    None; else residual and beta are scaled into [0.5, 1) exactly to divide.
    """
    raw, image, norm = _raw_expectation(a, psi)
    alpha = raw.real
    residual = image - alpha * psi.coeffs
    # scrub the roundoff component along psi so orthogonality survives tiny beta
    residual = residual - psi.coeffs * _raw_inner(psi.coeffs, residual, psi.grid)
    beta = _raw_norm(residual, psi.grid)
    if beta <= BETA_FLOOR * norm:
        return AvResult(alpha, beta, None)
    unit, e = math.frexp(beta)
    perp = np.ldexp(residual.view(np.float64), -e).view(np.complex128) / unit
    return AvResult(alpha, beta, StateVector(perp, psi.grid))
