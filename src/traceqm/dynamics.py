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
  levels from the same bands by Sturm-sequence bisection (scipy's
  ``eigvalsh_tridiagonal`` with LAPACK ``?stebz``) in O(N) memory; scipy
  is imported inside that function, so callers that never ask for levels
  never load it.  Each builder refuses a grid whose working set would not
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
to roundoff.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

import numpy as np

from .errors import (
    DegreeError,
    NotHermitianError,
    NumericalError,
    TruncationError,
)
from .operators import (
    BandOperator,
    HermitianOperator,
    Operator,
    certify_hermitian,
    dispersion,
    expect_c,
    _require_fits,
    _require_normalized,
)
from .spectral import SpectralDecomposition, _solve, eigendecompose
from .states import GridMeta, StateVector, _require_same_space

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

#: bytes per grid point alive at once inside :func:`grid_levels`: seven
#: float64 vectors (the diagonal and off-diagonal bands, the eigenvalue
#: output and ``?stebz``'s 4N workspace) and five int32 vectors (its block
#: and split indices and 3N integer workspace).
BAND_BYTES_PER_POINT = 7 * 8 + 5 * 4


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
    The Hamiltonian eigendecomposition is computed once on demand and
    cached, since every evolution call needs it.
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

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim

    def energy_spectrum(self) -> SpectralDecomposition:
        if self._spectrum is None:
            self._spectrum = eigendecompose(self.hamiltonian)
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

    A stencil with a non-finite entry is refused as :func:`certify_hermitian`
    refuses its matrix, also when 2 m h^2 underflows to zero; a zero k, whose
    Hamiltonian is zero, is refused unless hbar^2 underflows, which later steps refuse.
    """
    h = grid.spacing
    denominator = 2.0 * grid.mass * h * h
    k = grid.hbar * grid.hbar / denominator if denominator > 0.0 else np.inf
    if not 2.0 * k < np.inf:
        raise NotHermitianError(np.nan, np.inf, "matrix has non-finite entries")
    if k == 0.0 < grid.hbar * grid.hbar:
        raise NumericalError(f"the stencil coupling hbar^2/(2 m h^2) underflows to zero at spacing {h!r}")
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
    certify beyond finiteness; bisection on the bands costs O(N) memory and
    O(N) work per bisection step instead of a dense N x N solve.  The bands
    are scaled by the power of two putting k in [0.5, 1) and the levels
    scaled back, both exactly, so the squared coupling cannot underflow.
    """
    if not 1 <= count <= grid.npoints:
        raise ValueError(f"count must lie in [1, {grid.npoints}], got {count!r}")
    _require_fits(grid, BAND_BYTES_PER_POINT * grid.npoints, "its band working set")
    unit, exponent = np.frexp(_kinetic_coupling(grid))
    diagonal, off_diagonal = _stencil_bands(grid.npoints, unit)
    # scipy costs a fresh interpreter about 0.3 s to import: only callers
    # that ask for levels pay it
    from scipy.linalg import eigvalsh_tridiagonal

    # not ?stemr: given an index range it allocates an N x N array
    levels = _solve(
        lambda d: eigvalsh_tridiagonal(d, off_diagonal, select="i", select_range=(0, count - 1),
                                       lapack_driver="stebz"),
        diagonal,
    )
    return np.ldexp(levels, exponent)


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
    which truncation lowers to hbar*omega*(dim - 1)/2.
    """
    if dim < MIN_LADDER_DIM:
        raise ValueError(f"ladder needs at least {MIN_LADDER_DIM} levels, got {dim}")
    for name, value in (("mass", mass), ("omega", omega), ("hbar", hbar)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive, got {value!r}")
    lower = np.diag(np.sqrt(np.arange(1, dim, dtype=np.float64)), k=1).astype(np.complex128)
    raise_ = lower.conj().T
    q_matrix = np.sqrt(hbar / (2.0 * mass * omega)) * (lower + raise_)
    p_matrix = 1j * np.sqrt(mass * omega * hbar / 2.0) * (raise_ - lower)
    q = certify_hermitian(Operator(q_matrix))
    p = certify_hermitian(Operator(p_matrix))
    h_matrix = p_matrix @ p_matrix / (2.0 * mass) + 0.5 * mass * omega * omega * (q_matrix @ q_matrix)
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
    """Operator-picture time derivative (i/hbar) * (H A - A H), hermitian."""
    if not (np.isfinite(hbar) and hbar > 0):
        raise ValueError(f"hbar must be positive, got {hbar!r}")
    ha = hamiltonian @ a
    ah = a @ hamiltonian
    return certify_hermitian(Operator((1j / hbar) * (ha.matrix - ah.matrix), a.grid))


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


def _propagator(model: ModelSystem, t: float) -> tuple[SpectralDecomposition, np.ndarray]:
    """Energy eigenbasis of ``model`` and the phases exp(-i E t / hbar) of U(t) on it."""
    t = float(t)
    if not np.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    scaled = t / model.hbar
    if not np.isfinite(scaled):
        raise NumericalError(f"time {t!r} over hbar {model.hbar!r} overflows; "
                             "the propagator's phases are undefined")
    dec = model.energy_spectrum()
    return dec, np.exp(-1j * dec.eigenvalues * scaled)


def evolve_state(model: ModelSystem, psi0: StateVector, t: float) -> StateVector:
    """Evolve a normalized state by time t through the spectral propagator."""
    dec, phases = _propagator(model, t)
    _require_same_space(model.hamiltonian, psi0, "operator and state")
    _require_normalized(psi0)
    amps = dec._adjoint @ psi0.coeffs
    return StateVector(dec.basis @ (phases * amps), psi0.grid)


def evolve_operator(model: ModelSystem, a: HermitianOperator, t: float) -> HermitianOperator:
    """Operator-picture evolution U(t)^dagger A U(t); spectrum is preserved."""
    dec, phases = _propagator(model, t)
    _require_same_space(a, model, "operator and model")
    u = (dec.basis * phases) @ dec._adjoint
    return certify_hermitian(Operator(u.conj().T @ a.matrix @ u, a.grid))


def spread_series(model: ModelSystem, psi0: StateVector, times) -> list[tuple[float, float]]:
    """Position spread of the evolving state at each requested time.

    Times must be finite, non-negative, and ascending.
    """
    times = [float(t) for t in times]
    if any(not np.isfinite(t) or t < 0 for t in times):
        raise ValueError("times must be finite and non-negative")
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("times must be strictly ascending")
    return [(t, dispersion(model.q, evolve_state(model, psi0, t))) for t in times]


def gaussian_spread_width(sigma0: float, t: float, mass: float = 1.0, hbar: float = 1.0) -> float:
    """Closed-form width of a freely spreading minimal Gaussian packet."""
    rate = hbar * t / (2.0 * mass * sigma0 * sigma0)
    return sigma0 * float(np.sqrt(1.0 + rate * rate))


def well_level_energy(n: int, length: float, mass: float = 1.0, hbar: float = 1.0) -> float:
    """Analytic hard-wall level n^2 pi^2 hbar^2 / (2 m L^2), n = 1, 2, ..."""
    return (n * np.pi * hbar / length) ** 2 / (2.0 * mass)
