"""Model systems and dynamics in both the classical and operator pictures.

Two model families are provided:

* grid models on a hard-wall interval (a particle in a box, with or without
  the box read as a free stretch), built from a three-point kinetic stencil
  and a central-difference momentum.  Position, momentum and the kinetic
  Hamiltonian are :class:`~traceqm.operators.BandOperator` objects that
  hold their bands, so a model costs O(N) memory; a dense matrix is built
  only for a caller that reads ``.matrix``, and the spectral routines
  solve the real ones from their bands.  :func:`grid_hamiltonian` builds
  the kinetic stencil alone, a diagonal of 2k and an off-diagonal of -k
  with k = hbar^2/(2 m h^2), and :func:`grid_levels` returns its lowest
  levels from the same bands by Sturm-sequence bisection (LAPACK
  ``?stebz`` from numpy's own LAPACK, as the band eigensolver binds it) of
  the two parity-sector halves the band eigensolver also solves, in O(N)
  memory.  Each builder refuses a grid whose working set would not
  fit in physical memory before allocating any of it;
* a truncated oscillator ladder, built from the usual raising and lowering
  matrices.  Truncation lives entirely in the last row and column, so
  identities like [q, p] = i*hbar hold exactly on the leading block.

Observables polynomial in (q, p) are carried symbolically by
:class:`PolynomialObservable` and mapped to matrices by :func:`quantize`
using the symmetric (Weyl) ordering

    W(q^a p^b) = 2**(-a) * sum_k C(a, k) Q^k P^b Q^(a-k),

under which the classical bracket {A, H} and the operator bracket
(i/hbar)[H, A] agree exactly for quadratic generators.
:func:`bracket_correspondence` measures that agreement state by state.

Time evolution is spectral: the propagator is assembled from the
Hamiltonian eigenbasis, so unitarity and energy conservation are exact up
to roundoff.  The grid Hamiltonian commutes with the reflection x -> L - x,
so a grid state is evolved by parity sector: folded in O(N) into its even
and odd half coordinates, each evolved in its own half's real ``?stevd``
basis at half the order, and mirrored back; a part that is exactly zero is
never solved or multiplied, so an even state costs one half solve and stays
exactly even.  Any other model evolves in its whole eigenbasis.  Either way
the products are real products on the stacked real and imaginary parts of
a real basis.  :func:`spread_series` evolves every requested time in one
stacked product, of which :func:`evolve_state` is the stack of one, and
reads each width through position's band product, so a grid run builds no
dense operator and no N x N basis.  A time whose phases E t / hbar would be
roundoff is refused.
"""

from __future__ import annotations

import math
from functools import cached_property
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import (
    DegreeError,
    NumericalError,
    TruncationError,
)
from .operators import (
    BandOperator,
    HermitianOperator,
    Operator,
    certify_hermitian,
    expect_c,
    _dispersion_stack,
    _operand,
    _require_fits,
    _require_normalized,
)
from .spectral import (BAND_BASIS_BYTES_PER_ENTRY, SpectralDecomposition, _band_halves, _band_solve, _decomposition,
                       _one_blas_thread, _pairs, _parity_fold, _parity_merge, _parity_unfold, _phase_fix,
                       _sector_solve, _sectored, _spectral_sum, _stebz, eigendecompose)
from .states import GridMeta, StateVector, _require_same_space, _weight

__all__ = [
    "MAX_DEGREE",
    "PolynomialObservable",
    "ModelSystem",
    "BracketCheck",
    "build_grid_model",
    "grid_hamiltonian",
    "grid_levels",
    "build_oscillator_ladder",
    "oscillator_hamiltonian_poly",
    "poisson_rhs_classical",
    "quantize",
    "heisenberg_rhs",
    "bracket_correspondence",
    "evolve_state",
    "evolve_operator",
    "spread_series",
    "gaussian_spread_width",
    "well_level_energy",
]

#: largest supported total degree of a polynomial observable.
MAX_DEGREE = 6

#: ladder states may put at most this much weight on the top level.
TOP_LEVEL_OCCUPANCY_TOL = 1e-6

MIN_LADDER_DIM = 4

#: bytes per grid point alive at once inside :func:`grid_hamiltonian`: its
#: two float64 bands, the copies :class:`BandOperator` keeps of them, and
#: the float64 magnitudes of its finiteness check.
STENCIL_BYTES_PER_POINT = 2 * 2 * 8 + 8

#: bytes per grid point alive at once inside :func:`build_grid_model`: the
#: bands q keeps (16) and p keeps (a float64 diagonal and a complex128
#: superdiagonal, 24), held while the Hamiltonian is built with its own.
GRID_MODEL_BYTES_PER_POINT = 16 + 24 + STENCIL_BYTES_PER_POINT

#: bytes per grid point alive at once inside :func:`grid_levels`: the two
#: float64 bands (16), the copies their parity halves make (at most 8), and,
#: on a half of N/2 points, one sector's ``?stebz`` working set (its
#: eigenvalue output, 4n float64 workspace, and block and split indices and
#: 3n integer workspace in numpy's int64 LAPACK integer: ten words).  The
#: first sector keeps only its found levels while the second is bisected.
BAND_BYTES_PER_POINT = 2 * 8 + 8 + 10 * 8 // 2


class PolynomialObservable:
    """Real polynomial in the commuting symbols q and p.

    Stored as a map (q power, p power) -> coefficient with zero terms
    dropped.  Addition, subtraction, negation, scalar and polynomial
    multiplication, and partial derivatives are supported; any operation
    whose result would exceed ``MAX_DEGREE`` raises :class:`DegreeError`.
    """

    __slots__ = ("_monomials",)

    def __init__(self, monomials):
        clean = {}
        for key, coeff in dict(monomials).items():
            qa, pb = key
            if not all(isinstance(e, (int, np.integer)) and not isinstance(e, bool) and e >= 0 for e in (qa, pb)):
                raise ValueError(f"monomial powers must be non-negative integers, got {key!r}")
            coeff = float(coeff)
            if not np.isfinite(coeff):
                raise ValueError(f"monomial coefficient must be finite, got {coeff!r}")
            if qa + pb > MAX_DEGREE:
                raise DegreeError(f"total degree {qa + pb} exceeds the cap of {MAX_DEGREE}")
            if coeff != 0.0:
                clean[(int(qa), int(pb))] = clean.get((int(qa), int(pb)), 0.0) + coeff
        object.__setattr__(self, "_monomials", dict(sorted(clean.items())))

    def __setattr__(self, name, value):
        raise AttributeError("PolynomialObservable is immutable")

    @classmethod
    def q(cls) -> "PolynomialObservable":
        return cls({(1, 0): 1.0})

    @classmethod
    def p(cls) -> "PolynomialObservable":
        return cls({(0, 1): 1.0})

    @classmethod
    def constant(cls, value) -> "PolynomialObservable":
        return cls({(0, 0): float(value)})

    @property
    def monomials(self) -> dict[tuple[int, int], float]:
        return dict(self._monomials)

    def degree(self) -> int:
        if not self._monomials:
            return 0
        return max(a + b for (a, b) in self._monomials)

    def evaluate(self, qv: float, pv: float) -> float:
        return sum(c * qv**a * pv**b for (a, b), c in self._monomials.items())

    def diff_q(self) -> "PolynomialObservable":
        return PolynomialObservable({(a - 1, b): a * c for (a, b), c in self._monomials.items() if a > 0})

    def diff_p(self) -> "PolynomialObservable":
        return PolynomialObservable({(a, b - 1): b * c for (a, b), c in self._monomials.items() if b > 0})

    def __add__(self, other):
        if not isinstance(other, PolynomialObservable):
            return NotImplemented
        merged = dict(self._monomials)
        for key, c in other._monomials.items():
            merged[key] = merged.get(key, 0.0) + c
        return PolynomialObservable(merged)

    def __neg__(self):
        return PolynomialObservable({key: -c for key, c in self._monomials.items()})

    def __sub__(self, other):
        if not isinstance(other, PolynomialObservable):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, PolynomialObservable):
            product: dict[tuple[int, int], float] = {}
            for (a1, b1), c1 in self._monomials.items():
                for (a2, b2), c2 in other._monomials.items():
                    key = (a1 + a2, b1 + b2)
                    product[key] = product.get(key, 0.0) + c1 * c2
            return PolynomialObservable(product)
        if isinstance(other, (int, float)):
            return PolynomialObservable({key: other * c for key, c in self._monomials.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, PolynomialObservable):
            return NotImplemented
        return self._monomials == other._monomials

    def __repr__(self):
        if not self._monomials:
            return "PolynomialObservable(0)"
        terms = " + ".join(f"{c:g}*q^{a}p^{b}" for (a, b), c in self._monomials.items())
        return f"PolynomialObservable({terms})"


class ModelSystem:
    """A concrete model: position, momentum, Hamiltonian, and ``hbar``.

    ``kind`` is one of ``grid_well``, ``grid_free``, ``oscillator_ladder``.
    A Hamiltonian with real palindromic bands (every grid model's) commutes
    with the reflection x -> L - x, so it is solved by parity sector: each
    sector's half tridiagonal is solved by ``?stevd`` on first use and kept,
    and the evolution reads only the sectors a state occupies.
    :meth:`energy_spectrum` merges those same kept halves into the whole
    eigendecomposition, so no half is solved twice; any other Hamiltonian is
    decomposed whole.  Either decomposition is computed once on demand and
    cached.
    """

    def __init__(self, kind: str, q: HermitianOperator, p: HermitianOperator,
                 hamiltonian: HermitianOperator, hbar: float, grid: GridMeta | None = None):
        self.kind = kind
        self.q = q
        self.p = p
        self.hamiltonian = hamiltonian
        self.hbar = float(hbar)
        self.grid = grid
        self._spectrum: SpectralDecomposition | None = None
        self._halves = [None, None]  # the even and odd sectors' ?stevd results, once solved

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim

    @cached_property
    def _sectored(self) -> bool:
        return _sectored(self.hamiltonian)

    def _half(self, odd: int):
        """The even (``odd`` 0) or odd (1) sector's ``spectral._sector_solve`` result, solved on first
        use, refused first if its basis and ``?stevd`` workspace would not fit in physical memory."""
        if self._halves[odd] is None:
            order = (self.dim + 1 - odd) // 2
            _require_fits(self.grid, BAND_BASIS_BYTES_PER_ENTRY * order * order,
                          f"solving its {order}x{order} parity half")
            self._halves[odd] = _sector_solve(self.hamiltonian, odd)
        return self._halves[odd]

    def energy_spectrum(self) -> SpectralDecomposition:
        if self._spectrum is None:
            h = self.hamiltonian
            self._spectrum = (_decomposition(h, *_band_solve(h, True, self._half)) if self._sectored
                              else eigendecompose(h))
        return self._spectrum

    def __repr__(self):
        return f"<ModelSystem {self.kind} dim={self.dim}>"


class BracketCheck(NamedTuple):
    """Both sides of the bracket correspondence and their gap."""

    lhs: float
    rhs: float
    gap: float


def _kinetic_coupling(grid: GridMeta) -> float:
    """Coupling k = hbar^2/(2 m h^2) of the three-point stencil (bands 2k and -k).

    k is formed from the mantissas of hbar, m and h and scaled back once by
    their exponents, so only k itself decides: hbar^2 and 2 m h^2 may overflow
    (``--hbar 1e300 --length 1e300``) or underflow (``--mass 1e-320 --hbar
    1e-20``) on the way.  A k whose diagonal 2k overflows is refused with a
    :class:`NumericalError` naming the coupling, and so is a zero k, whose
    Hamiltonian is zero.
    """
    h = grid.spacing
    (a, p), (b, q), (c, r) = np.frexp(grid.hbar), np.frexp(grid.mass), np.frexp(h)
    with np.errstate(over="ignore"):
        k = float(np.ldexp(a * a / (2.0 * b * c * c), 2 * p - q - 2 * r))
    if not 2.0 * k < np.inf:
        raise NumericalError(f"the stencil coupling hbar^2/(2 m h^2) overflows at spacing {h!r}, "
                             f"mass {grid.mass!r} and hbar {grid.hbar!r}")
    if k == 0.0:
        raise NumericalError(f"the stencil coupling hbar^2/(2 m h^2) underflows to zero at spacing {h!r} "
                             f"and hbar {grid.hbar!r}")
    return k


def _stencil_bands(npoints: int, k: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal 2k and off-diagonal -k of the three-point stencil with coupling ``k``."""
    return np.full(npoints, 2.0 * k), np.full(npoints - 1, -k)


def grid_hamiltonian(grid: GridMeta) -> BandOperator:
    """Kinetic Hamiltonian -hbar^2/(2m) d^2/dx^2 from the three-point stencil.

    Inside the hard walls the potential is zero, so this is the whole
    Hamiltonian of both grid models; it is real symmetric and tridiagonal,
    and is returned as its bands.
    """
    _require_fits(grid, STENCIL_BYTES_PER_POINT * grid.npoints, "its bands")
    return BandOperator(*_stencil_bands(grid.npoints, _kinetic_coupling(grid)), grid)


def grid_levels(grid: GridMeta, count: int) -> np.ndarray:
    """Lowest ``count`` levels of :func:`grid_hamiltonian`, ascending, from its two bands.

    The stencil is symmetric by construction, so there is nothing to
    certify beyond finiteness.  Its bands are palindromic, so they are cut
    into the half tridiagonals of their even and odd parity sectors
    (``spectral._band_halves``, as the band eigensolver cuts them), and each
    half is bisected for its share: the ceil(count/2) lowest even levels and
    the floor(count/2) lowest odd ones, merged by a stable ascending sort.
    The shares are exact because the stencil is a Jacobi matrix with
    off-diagonal -k < 0: by the Gantmacher-Krein oscillation theorem its
    levels are simple and the j-th eigenvector has j - 1 sign changes, so
    the levels alternate even, odd, even, ... from the ground state up.
    Bisection costs O(N) memory and O(N) work per step, here on two halves
    of order about N/2 instead of the whole band.  The bands are scaled by
    the power of two putting k in [0.5, 1) and the levels scaled back, both
    exactly, so the squared coupling cannot underflow.
    """
    if not 1 <= count <= grid.npoints:
        raise ValueError(f"count must lie in [1, {grid.npoints}], got {count!r}")
    _require_fits(grid, BAND_BYTES_PER_POINT * grid.npoints, "its band working set")
    unit, exponent = np.frexp(_kinetic_coupling(grid))
    halves = _band_halves(*_stencil_bands(grid.npoints, unit))
    # not ?stemr: given an index range it allocates an N x N array
    levels = [_stebz(d, e, share) if share else np.empty(0)
              for (d, e), share in zip(halves, ((count + 1) // 2, count // 2))]
    return np.ldexp(_parity_merge(levels, grid.npoints, False), exponent)


def build_grid_model(grid: GridMeta, potential: str = "infinite_well") -> ModelSystem:
    """Hard-wall grid model with position, momentum, and kinetic Hamiltonian.

    ``potential`` selects ``infinite_well`` or ``free``; inside the walls
    both have zero potential, so they share the same matrices and differ
    only in the recorded kind (the walls are what confine the free stretch).
    """
    if potential not in ("infinite_well", "free"):
        raise ValueError(f"unknown potential {potential!r}")
    n = grid.npoints
    _require_fits(grid, GRID_MODEL_BYTES_PER_POINT * n, "its bands")
    q = BandOperator(grid.positions, np.zeros(n - 1), grid)
    p = BandOperator(np.zeros(n), np.full(n - 1, -1j * (grid.hbar / (2.0 * grid.spacing))), grid)
    kind = "grid_well" if potential == "infinite_well" else "grid_free"
    return ModelSystem(kind, q, p, grid_hamiltonian(grid), hbar=grid.hbar, grid=grid)


def build_oscillator_ladder(dim: int, mass: float = 1.0, omega: float = 1.0,
                            hbar: float = 1.0) -> ModelSystem:
    """Truncated oscillator from ladder matrices.

    The Hamiltonian built from the truncated q and p is diagonal with the
    exact levels hbar*omega*(n + 1/2) everywhere except the top entry,
    which truncation lowers to hbar*omega*(dim - 1)/2.  A potential
    coefficient m omega^2/2, position scale hbar/(2 m omega) or momentum
    scale m omega hbar/2 that overflows is refused with a
    :class:`NumericalError` naming it.
    """
    if dim < MIN_LADDER_DIM:
        raise ValueError(f"ladder needs at least {MIN_LADDER_DIM} levels, got {dim}")
    for name, value in (("mass", mass), ("omega", omega), ("hbar", hbar)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive, got {value!r}")
    if 2.0 * mass * omega == 0.0:
        raise NumericalError(f"2 m omega underflows to zero (mass {mass!r}, omega {omega!r}); "
                             "the position scale sqrt(hbar/(2 m omega)) is undefined")
    units = f"(mass {mass!r}, omega {omega!r}, hbar {hbar!r})"
    potential = 0.5 * mass * omega * omega
    if potential == np.inf:
        raise NumericalError(f"the potential coefficient m omega^2/2 overflows "
                             f"(mass {mass!r}, omega {omega!r})")
    with np.errstate(over="ignore"):
        position, momentum = hbar / (2.0 * mass * omega), mass * omega * hbar / 2.0
    # inf times the ladders' zero entries would be NaN, reported as a hermiticity deviation
    for name, scale in (("position scale hbar/(2 m omega)", position), ("momentum scale m omega hbar/2", momentum)):
        if scale == np.inf:
            raise NumericalError(f"the {name} overflows {units}")
    lower = np.diag(np.sqrt(np.arange(1, dim, dtype=np.float64)), k=1).astype(np.complex128)
    raise_ = lower.conj().T
    # a product that overflows (inf, or inf * 0 = NaN) is refused by certification, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        q_matrix = np.sqrt(position) * (lower + raise_)
        p_matrix = 1j * np.sqrt(momentum) * (raise_ - lower)
        h_matrix = p_matrix @ p_matrix / (2.0 * mass) + potential * (q_matrix @ q_matrix)
    q = certify_hermitian(Operator(q_matrix))
    p = certify_hermitian(Operator(p_matrix))
    hamiltonian = certify_hermitian(Operator(h_matrix))
    return ModelSystem("oscillator_ladder", q, p, hamiltonian, hbar=hbar)


def oscillator_hamiltonian_poly(mass: float = 1.0, omega: float = 1.0) -> PolynomialObservable:
    """Classical oscillator energy p^2/(2m) + m*omega^2*q^2/2 as a polynomial."""
    return PolynomialObservable({(0, 2): 1.0 / (2.0 * mass), (2, 0): 0.5 * mass * omega * omega})


def poisson_rhs_classical(a: PolynomialObservable, h: PolynomialObservable) -> PolynomialObservable:
    """Poisson bracket {A, H} = dA/dq * dH/dp - dA/dp * dH/dq, formally."""
    return a.diff_q() * h.diff_p() - a.diff_p() * h.diff_q()


def quantize(poly: PolynomialObservable, model: ModelSystem) -> HermitianOperator:
    """Symmetric-ordered matrix of a polynomial observable in a model.

    Each monomial q^a p^b maps to 2**(-a) * sum_k C(a, k) Q^k P^b Q^(a-k);
    real coefficients therefore give a hermitian matrix.
    """
    qm = model.q.matrix
    pm = model.p.matrix
    dim = model.dim
    max_q = max((a for (a, b) in poly.monomials), default=0)
    max_p = max((b for (a, b) in poly.monomials), default=0)
    identity = np.eye(dim, dtype=np.complex128)
    q_pow = [identity]
    for _ in range(max_q):
        q_pow.append(q_pow[-1] @ qm)
    p_pow = [identity]
    for _ in range(max_p):
        p_pow.append(p_pow[-1] @ pm)

    matrix = np.zeros((dim, dim), dtype=np.complex128)
    for (a, b), coeff in poly.monomials.items():
        term = np.zeros((dim, dim), dtype=np.complex128)
        for k in range(a + 1):
            term += comb(a, k) * (q_pow[k] @ p_pow[b] @ q_pow[a - k])
        matrix += (coeff / 2.0**a) * term
    return certify_hermitian(Operator(matrix, model.grid))


def heisenberg_rhs(hamiltonian: HermitianOperator, a: HermitianOperator,
                   hbar: float = 1.0) -> HermitianOperator:
    """Operator-picture time derivative (i/hbar) * (H A - A H), hermitian.

    H, A and hbar are each scaled exactly by the power of two that brings
    max|H|, max|A| and hbar into [0.5, 1), so no product overflows or
    underflows, and the commutator is scaled back exactly at the end.
    """
    if not (np.isfinite(hbar) and hbar > 0):
        raise ValueError(f"hbar must be positive, got {hbar!r}")
    _require_same_space(hamiltonian, a, "operators")
    eh, ea, eq = np.frexp([hamiltonian.scale, a.scale, hbar])[1]
    h, b = (np.ldexp(op.matrix.view(np.float64), -e).view(np.complex128) for op, e in ((hamiltonian, eh), (a, ea)))
    # as in build_oscillator_ladder: certification refuses a non-finite commutator
    with np.errstate(over="ignore", invalid="ignore"):
        commutator = (1j / np.ldexp(hbar, -eq)) * (h @ b - b @ h)
        commutator = np.ldexp(commutator.view(np.float64), eh + ea - eq).view(np.complex128)
    return certify_hermitian(Operator(commutator, a.grid))


def _check_truncation(model: ModelSystem, psi: StateVector):
    if model.kind == "oscillator_ladder":
        top = abs(psi.coeffs[-1]) ** 2
        if top > TOP_LEVEL_OCCUPANCY_TOL:
            raise TruncationError(
                f"top ladder level holds occupancy {top:.3e} > {TOP_LEVEL_OCCUPANCY_TOL:.0e}"
            )


def bracket_correspondence(a_poly: PolynomialObservable, h_poly: PolynomialObservable,
                           model: ModelSystem, psi: StateVector) -> BracketCheck:
    """Compare the quantized Poisson bracket with the commutator route.

    lhs is the expectation of quantize({A, H}); rhs is the expectation of
    (i/hbar)[quantize(H), quantize(A)], both in the same state.  For ladder
    models the state must stay clear of the truncation edge.
    """
    _check_truncation(model, psi)
    lhs_op = quantize(poisson_rhs_classical(a_poly, h_poly), model)
    rhs_op = heisenberg_rhs(quantize(h_poly, model), quantize(a_poly, model), model.hbar)
    lhs = expect_c(lhs_op, psi)
    rhs = expect_c(rhs_op, psi)
    return BracketCheck(lhs, rhs, abs(lhs - rhs))


def _time_over_hbar(t: float, hbar: float) -> float:
    """``t / hbar``, the propagator's phase rate, refused where ``t`` is not finite or the ratio overflows."""
    t = float(t)
    if not np.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    scaled = t / hbar
    if not np.isfinite(scaled):
        raise NumericalError(f"time {t!r} over hbar {hbar!r} overflows; "
                             "the propagator's phases are undefined")
    return scaled


def _phases(model: ModelSystem, times, scaled: np.ndarray, spectra) -> list[np.ndarray]:
    """The phases exp(-i E t / hbar) of U(t) on each ascending eigenvalue array of ``spectra``, one row
    per time, given each time over hbar, ``scaled``.

    A phase error delta in every component moves the evolved state by at most
    delta in norm, and rounding E t / hbar errs by up to eps |E t| / hbar.  So a
    time at which eps max|E| |t| / hbar reaches 1, max|E| taken over
    ``spectra``, where that bound reaches the state's own norm, is refused, as
    is one at which it overflows.
    """
    top = max(max(abs(values[0]), abs(values[-1])) for values in spectra)  # ascending: |E| peaks at an end
    with np.errstate(over="ignore"):
        errors = np.finfo(np.float64).eps * float(top) * abs(scaled)
    beyond = np.flatnonzero(~(errors < 1.0))
    if beyond.size:
        t = float(times[beyond[0]])
        raise NumericalError(f"energy times time {t!r} over hbar {model.hbar!r} leaves the propagator's "
                             f"phases to roundoff: eps max|E| |t| / hbar is {errors[beyond[0]]:.3g}, "
                             "not below 1")
    return [np.exp(-1j * values * scaled[:, None]) for values in spectra]


def _propagator(model: ModelSystem, times) -> tuple[SpectralDecomposition, np.ndarray]:
    """Energy eigenbasis of ``model`` and the :func:`_phases` of U(t) on it, one row per time."""
    scaled = np.array([_time_over_hbar(t, model.hbar) for t in times])
    dec = model.energy_spectrum()
    return dec, _phases(model, times, scaled, [dec.eigenvalues])[0]


def _evolved(model: ModelSystem, psi0: StateVector, times) -> np.ndarray:
    """Coefficients (T, N) of a normalized state evolved to each of ``times``, every time in one stacked
    product, so each row has the bytes it has alone.

    A model with palindromic real bands folds the state into its even and
    odd half coordinates in O(N) (``spectral._parity_fold``), evolves each
    part in its own sector's half basis at half the order, and mirrors the
    two back (``spectral._parity_unfold``).  A part that is exactly zero is
    neither solved nor multiplied, and the phases' roundoff refusal reads
    max|E| over the sectors evolved; parity is conserved exactly, so an
    exactly even or odd state stays exactly so.  Any other model forms the
    state's amplitudes once in its whole energy eigenbasis.
    """
    scaled = np.array([_time_over_hbar(t, model.hbar) for t in times])
    _require_same_space(model.hamiltonian, psi0, "operator and state")
    _require_normalized(psi0)
    if not model._sectored:
        dec, phases = _propagator(model, times)
        return dec._combination(phases * dec._coordinates(psi0.coeffs))
    parts = _parity_fold(psi0.coeffs)
    live = [odd for odd, part in enumerate(parts) if part.any()]
    halves = [model._half(odd) for odd in live]
    e = math.frexp(model.hamiltonian.scale)[1]  # the halves' levels are solved at 2**-e
    phases = _phases(model, times, scaled, [np.ldexp(values, e) for values, _ in halves])
    evolved = [None, None]
    with _one_blas_thread():
        for odd, (_, vectors), phase in zip(live, halves, phases):
            amplitudes = (vectors.T @ parts[odd]).view(np.complex128)[:, 0]
            evolved[odd] = np.matmul(vectors, _pairs(phase * amplitudes))
    return _parity_unfold(*evolved, model.dim).view(np.complex128)[..., 0]


def evolve_state(model: ModelSystem, psi0: StateVector, t: float) -> StateVector:
    """Evolve a normalized state by time t through the spectral propagator."""
    return StateVector(_evolved(model, psi0, [t])[0], psi0.grid)


def _ground_state(model: ModelSystem) -> StateVector:
    """``model.energy_spectrum().eigenvector(0)`` of a model with palindromic real bands, from its even
    sector alone: the half's first vector laid out, sign-fixed and weighted as the merged basis's
    first column is, so to the same bytes wherever that column is a degenerate group of its own.
    The bands form a Jacobi matrix, so by the oscillation theorem the lowest level is simple and its
    nodeless vector even: the even half's lowest level is the whole spectrum's."""
    vectors = model._half(0)[1]
    column = _parity_unfold(vectors[:, :1], None, model.dim)
    return StateVector(_phase_fix(column)[:, 0] * (1.0 / np.sqrt(_weight(model.grid))), model.grid)


def evolve_operator(model: ModelSystem, a: HermitianOperator, t: float) -> HermitianOperator:
    """Operator-picture evolution U(t)^dagger A U(t); spectrum is preserved."""
    dec, phases = _propagator(model, [t])
    _require_same_space(a, model, "operator and model")
    u = _spectral_sum(dec.basis, phases[0])
    return certify_hermitian(Operator(u.conj().T @ a.matrix @ u, a.grid))


def spread_series(model: ModelSystem, psi0: StateVector, times) -> list[tuple[float, float]]:
    """Position spread of the evolving state at each requested time.

    Times must be finite, non-negative, and ascending.  The state is evolved
    to every time at once, each row to the bytes :func:`evolve_state` gives it.
    """
    times = [float(t) for t in times]
    if any(not np.isfinite(t) or t < 0 for t in times):
        raise ValueError("times must be finite and non-negative")
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("times must be strictly ascending")
    states = _evolved(model, psi0, times)
    _require_same_space(model.q, psi0, "operator and state")
    return list(zip(times, _dispersion_stack(_operand(model.q), states, psi0.grid).tolist()))


def gaussian_spread_width(sigma0: float, t: float, mass: float = 1.0, hbar: float = 1.0) -> float:
    """Closed-form width of a freely spreading minimal Gaussian packet."""
    rate = hbar * t / (2.0 * mass * sigma0 * sigma0)
    return sigma0 * float(np.sqrt(1.0 + rate * rate))


def well_level_energy(n: int, length: float, mass: float = 1.0, hbar: float = 1.0) -> float:
    """Analytic hard-wall level n^2 pi^2 hbar^2 / (2 m L^2), n = 1, 2, ...; a level
    whose square overflows is refused with :class:`NumericalError`."""
    try:
        return (n * np.pi * hbar / length) ** 2 / (2.0 * mass)
    except OverflowError:
        raise NumericalError(f"analytic level {n} overflows (hbar {hbar!r}, mass {mass!r}, length {length!r})") from None
