"""Hermitian operators and expectation machinery.

Observables enter the workbench through :func:`certify_hermitian`, which
measures the worst entry deviation from the adjoint and refuses matrices
beyond tolerance.  Expectations come in the complex flavour ``expect_c``
(the real part of the sesquilinear form, with the imaginary part checked
to vanish) and the trace-form flavour ``expect_r`` which is exactly twice
``expect_c`` for hermitian input.

``av_decompose`` splits the action of an observable on a state into a mean
part along the state and a dispersion part orthogonal to it.  The norm of
that part, the centered residual, is the one dispersion rule: ``dispersion``
and :func:`~traceqm.spectral.verify_dispersion_free` read the same kernel.

Every routine taking a state requires :attr:`StateVector.normalized`: its
norm within ``STATE_NORM_TOL`` (defined in :mod:`traceqm.states`) of one.
The expectations and the split are kernels on k matrices (k, N, N) and k
states (k, N), with every check made row by row; each public function is
their stack of one, and the ``claims`` sweeps run them on whole stacks.

A grid operator that is tridiagonal by construction (the grid position,
momentum and kinetic Hamiltonian) is a :class:`BandOperator`: it keeps its
bands, is certified from them in O(N), and builds its dense matrix only
when a caller asks for it.  Its band product (:meth:`BandOperator.product`)
gives A psi in O(N) per state, and the expectations, the split and
``dispersion`` take that product for it, so none of them builds its matrix.
"""

from __future__ import annotations

import os
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, GridError, InputError, NotHermitianError, NumericalError, StateError
# STATE_NORM_TOL is defined in states and stays importable from here
from .states import STATE_NORM_TOL, GridMeta, StateVector, _raw_inner, _raw_norm, _require_same_space  # noqa: F401

__all__ = [
    "Operator",
    "HermitianOperator",
    "BandOperator",
    "AvResult",
    "adjoint",
    "certify_hermitian",
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
        return _fill_tridiagonal(np.zeros((self.dim, self.dim), dtype=dtype), self.diagonal, self.upper)

    def product(self, coeffs: np.ndarray) -> np.ndarray:
        """A psi of a coefficient vector or (..., N) stack from the bands, in this order:
        d psi, then u psi[1:] added to the first N - 1 entries, then conj(u) psi[:-1] to the last N - 1."""
        out = self.diagonal * coeffs
        out[..., :-1] += self.upper * coeffs[..., 1:]
        out[..., 1:] += self.upper.conj() * coeffs[..., :-1]
        return out


def _fill_tridiagonal(out: np.ndarray, diagonal: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Write the hermitian tridiagonal with bands ``diagonal`` and ``upper`` into the zeroed square ``out``."""
    np.fill_diagonal(out, diagonal)
    j = np.arange(upper.size)
    out[j, j + 1] = upper
    # conj(-1j*x) has real part -0.0 where 1j*x has +0.0: adding 0.0 makes
    # it +0.0, so the subdiagonal holds the bytes of 1j*x
    out[j + 1, j] = upper.conj() + 0.0
    return out


class AvResult(NamedTuple):
    """Mean-plus-deviation split of an observable acting on a state."""

    alpha: float
    beta: float
    perp: StateVector | None


def _require_normalized(state: StateVector):
    _require_normalized_rows(state.coeffs, state.grid)


def _require_normalized_rows(coeffs: np.ndarray, grid: GridMeta | None):
    """Refuse the first state of a vector or (k, N) stack whose norm is not within
    ``STATE_NORM_TOL`` of one (see :attr:`StateVector.normalized`)."""
    norms = np.atleast_1d(_raw_norm(coeffs, grid))
    off = ~(abs(norms - 1.0) <= STATE_NORM_TOL)
    if off.any():
        raise StateError(f"state is not normalized (norm {norms[off.argmax()]:.12f})")


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


def _operand(a: Operator):
    """``a`` as the kernels below take it: a band operator as itself, any other as its matrix's stack of one."""
    return a if isinstance(a, BandOperator) else a.matrix[None]


def _raw_values(matrices, coeffs: np.ndarray, grid: GridMeta | None) -> tuple[np.ndarray, np.ndarray]:
    """Raw <psi|A psi> (k,) and images A psi (k, N) of k matrices (k, N, N), or of one band
    operator by its band product, on k normalized states (k, N) of one grid; a state that is not
    normalized is refused."""
    _require_normalized_rows(coeffs, grid)
    if isinstance(matrices, BandOperator):
        images = matrices.product(coeffs)
    else:
        images = np.matmul(matrices, coeffs[..., None])[..., 0]
    return _raw_inner(coeffs, images, grid), images


def _raw_expectations(matrices, coeffs: np.ndarray,
                      grid: GridMeta | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_raw_values` of hermitian matrices and their images' norms |A psi|,
    refusing the first expectation whose imaginary part exceeds
    ``IMAG_EXPECT_TOL`` times its image's norm."""
    raw, images = _raw_values(matrices, coeffs, grid)
    norms = _raw_norm(images, grid)
    bounds = IMAG_EXPECT_TOL * norms
    beyond = abs(raw.imag) > bounds
    if beyond.any():
        first = beyond.argmax()
        imag, bound = float(raw.imag[first]), float(bounds[first])
        raise NumericalError(
            f"hermitian expectation has imaginary part {imag:.3e} beyond bound {bound:.3e}",
            value=imag, bound=bound,
        )
    return raw, images, norms


def _as_stacks(a: Operator, psi: StateVector):
    """``a`` as :func:`_operand` gives it and ``psi`` as a stack of one, with their grid, once they share a space."""
    _require_same_space(a, psi, "operator and state")
    return _operand(a), psi.coeffs[None], psi.grid


def expect_c(a: HermitianOperator, psi: StateVector) -> float:
    """Complex-form expectation Re <psi|A psi>; the imaginary part is checked to vanish."""
    return float(_raw_expectations(*_as_stacks(a, psi))[0][0].real)


def _expect_r_stack(matrices, coeffs: np.ndarray, grid: GridMeta | None) -> np.ndarray:
    """:func:`expect_r` of k matrices (k, N, N), or of one band operator, on k states (k, N): the trace form
    tr(x) = 2 Re(x), as :func:`~traceqm.scalars.trace` takes it, of each raw value."""
    return 2.0 * _raw_values(matrices, coeffs, grid)[0].real


def expect_r(a: Operator, psi: StateVector) -> float:
    """Trace-form expectation tr<psi|A psi>.

    Accepts any operator: the trace form discards the antisymmetric part,
    which is why products A @ B and B @ A of hermitians are indistinguishable
    here.  For a certified hermitian operator this is exactly
    2 * :func:`expect_c`.
    """
    return float(_expect_r_stack(*_as_stacks(a, psi))[0])


def dispersion(a: HermitianOperator, psi: StateVector) -> float:
    """Standard deviation of A in psi, the norm of the centered residual A psi - <A> psi:
    :func:`av_decompose`'s beta, bit for bit.  No second moment is formed, so a
    dispersion-free state reads roundoff, not <A^2> - <A>^2's sqrt(eps)*|<A>|."""
    return float(_dispersion_stack(*_as_stacks(a, psi))[0])


def _dispersion_stack(matrices, coeffs: np.ndarray, grid: GridMeta | None) -> np.ndarray:
    """:func:`dispersion` of k matrices (k, N, N), or of one band operator, on k states (k, N)."""
    raw, images, norms = _raw_expectations(matrices, coeffs, grid)
    return _centered(images, coeffs, raw.real, norms, grid)[2]


def _centered(images: np.ndarray, coeffs: np.ndarray, alpha: np.ndarray, scales: np.ndarray,
              grid: GridMeta | None):
    """Residuals A psi - alpha psi of images (..., N), states (..., N) and means (...), in place in ``images``,
    scrubbed along psi so a tiny one stays orthogonal to it; one temporary at a time.  They are formed
    exactly at the power of two that brings ``scales`` (...) into [0.5, 1), so the same bits come out
    at any scale and the scrub's products keep their bits near underflow.  Returns the scaled residuals,
    their scaled norms and their norms at the operands' own scale."""
    e = np.frexp(scales)[1]
    for part in (images.real, images.imag):
        np.ldexp(part, -e[..., None], out=part)
    images -= np.ldexp(alpha, -e)[..., None] * coeffs
    images -= coeffs * _raw_inner(coeffs, images, grid)[..., None]
    norms = _raw_norm(images, grid)
    return images, norms, np.ldexp(norms, e)


def _av_stack(matrices, coeffs: np.ndarray, grid: GridMeta | None):
    """:func:`av_decompose` of k hermitian matrices (k, N, N), or of one band operator, on k states (k, N).

    Returns alpha (k,), beta (k,), the perp rows (k, N), zero where perp is
    None, a (k,) mask of the rows that have a perp, and the images A psi.  The
    first perp with a non-finite entry is refused, as :class:`StateVector`
    refuses it.
    """
    raw, images, norms = _raw_expectations(matrices, coeffs, grid)
    alpha = raw.real
    residual, scaled, beta = _centered(images.copy(), coeffs, alpha, norms, grid)
    defined = ~(beta <= BETA_FLOOR * norms)
    perp = np.zeros_like(residual)
    if defined.any():
        # divided at the scale where |A psi| lies in [0.5, 1), so beta is above BETA_FLOOR / 2 there
        perp[defined] = residual[defined] / scaled[defined, None]
        if not np.isfinite(perp).all():
            raise ValueError("coefficients must be finite")
    return alpha, beta, perp, defined, images


def av_decompose(a: HermitianOperator, psi: StateVector) -> AvResult:
    """Split A psi = alpha*psi + beta*perp with perp a unit vector orthogonal to psi.

    alpha is the expectation and beta the dispersion of A in psi.  When beta
    falls at or below ``BETA_FLOOR`` times |A psi| (psi is an eigenvector to
    working precision) no orthogonal direction is defined and ``perp`` is
    None; else the residual is divided by beta at the scale where |A psi| lies
    in [0.5, 1), the scale :func:`dispersion` forms them at too.
    The split is the stack of one of ``_av_stack``.
    """
    alpha, beta, perp, defined, _ = _av_stack(*_as_stacks(a, psi))
    return AvResult(float(alpha[0]), float(beta[0]), StateVector(perp[0], psi.grid) if defined[0] else None)
