"""State vectors and the two inner products they carry.

States live either in a bare finite-dimensional space or on a uniform 1D
grid with hard-wall (dirichlet) boundaries.  Grid-bound inner products carry
the cell width as a quadrature weight, so sums approximate integrals over
the interval.

Two inner products coexist:

* ``complex_inner`` is the ordinary sesquilinear product, returned as a
  :class:`~traceqm.scalars.TraceScalar`.
* ``real_inner`` is its trace form, ``trace(complex_inner(f, g))``, which is
  bilinear over the reals.  A complex-normalized state f therefore has
  ``real_inner(f, f) == TRACE_OF_ONE == 2``.

Normalization always refers to the complex inner product; a state is
normalized when its norm lies within ``STATE_NORM_TOL`` of one, the one
bound of :attr:`StateVector.normalized` that expectations, evolution and
measurement enforce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSetError,
    DimensionError,
    GridError,
    SamplingError,
    ZeroVectorError,
)
from .scalars import TraceScalar, trace

__all__ = [
    "TRACE_OF_ONE",
    "GridMeta",
    "StateVector",
    "complex_inner",
    "real_inner",
    "normalize",
    "superpose",
    "gram_schmidt",
    "grid_sample",
]

#: trace of the unit scalar; equals real_inner(f, f) for complex-normalized f.
TRACE_OF_ONE = 2.0

#: a normalized state has |norm - 1| within this bound.
STATE_NORM_TOL = 1e-8

#: projection residual below which a vector set counts as dependent.
DEPENDENT_TOL = 1e-10

MIN_GRID_POINTS = 8

#: a sum of squares below this may have lost bits to underflow (smallest normal / eps).
SQUARES_FLOOR = float(np.finfo(np.float64).tiny / np.finfo(np.float64).eps)


@dataclass(frozen=True)
class GridMeta:
    """Uniform 1D grid of interior points on (0, length) with hard walls.

    With ``npoints`` interior points the spacing is ``length/(npoints + 1)``
    and the sample positions are ``x_j = j*spacing`` for j = 1..npoints; the
    walls at 0 and length are not stored (the state vanishes there), so the
    boundary is always dirichlet.  ``mass`` and ``hbar`` travel with the grid
    so model builders and analytic references agree on units.
    """

    length: float
    npoints: int
    mass: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.npoints, (int, np.integer)) and not isinstance(self.npoints, bool)):
            raise GridError(f"npoints must be an integer, got {self.npoints!r}")
        object.__setattr__(self, "npoints", int(self.npoints))
        for name in ("length", "mass", "hbar"):
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not np.isfinite(value) or value <= 0.0:
                raise GridError(f"{name} must be positive and finite, got {value!r}")
        if self.npoints < MIN_GRID_POINTS:
            raise GridError(f"need at least {MIN_GRID_POINTS} grid points, got {self.npoints}")

    @property
    def spacing(self) -> float:
        return self.length / (self.npoints + 1)

    @property
    def positions(self) -> np.ndarray:
        return self.spacing * np.arange(1, self.npoints + 1, dtype=np.float64)


class StateVector:
    """Immutable coefficient vector, optionally bound to a grid.

    Coefficients are elements of the dimension-two scalar algebra, held as a
    read-only complex128 array.
    """

    __slots__ = ("coeffs", "grid")

    def __init__(self, coeffs, grid: GridMeta | None = None):
        arr = np.array(coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise DimensionError(f"coefficients must form a nonempty 1D array, got shape {arr.shape}")
        if grid is not None and arr.size != grid.npoints:
            raise GridError(f"{arr.size} coefficients do not fit a grid of {grid.npoints} points")
        if not np.isfinite(arr).all():
            raise ValueError("coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "grid", grid)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    @property
    def dim(self) -> int:
        return self.coeffs.size

    def norm(self) -> float:
        """Complex norm, with the grid weight when bound."""
        return _raw_norm(self.coeffs, self.grid)

    @property
    def normalized(self) -> bool:
        return abs(self.norm() - 1.0) <= STATE_NORM_TOL

    def __repr__(self):
        where = f" on {self.grid.npoints}-point grid" if self.grid is not None else ""
        return f"<StateVector dim={self.dim}{where}>"


def _weight(grid: GridMeta | None) -> float:
    return 1.0 if grid is None else grid.spacing


def _raw_inner(a: np.ndarray, b: np.ndarray, grid: GridMeta | None) -> complex:
    return complex(np.vdot(a, b)) * _weight(grid)


def _squares(a: np.ndarray) -> float:
    re, im = a.real, a.imag
    return float(np.vdot(re, re)) + float(np.vdot(im, im))  # Python floats: an overflow sets no warning


def _raw_norm(a: np.ndarray, grid: GridMeta | None) -> float:
    """Complex norm with the grid weight: ``np.linalg.norm``'s arithmetic, bit for bit,
    unless the squares overflow or lose bits to underflow; then the entries are scaled by
    a power of two first (in the same memory layout, so the same summation runs), and a
    finite nonzero norm is always finite and nonzero."""
    squares, e = _squares(a), 0
    if not SQUARES_FLOOR <= squares < math.inf:
        e = math.frexp(float(max(np.abs(a.real).max(), np.abs(a.imag).max())))[1]
        squares = _squares(np.ldexp(np.ascontiguousarray(a).view(np.float64), -e).view(a.dtype))
    return math.ldexp(math.sqrt(squares), e) * math.sqrt(_weight(grid))


def _require_same_space(a, b, what: str):
    """Refuse two operands (anything with ``dim`` and ``grid``) of different spaces."""
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.grid != b.grid:
        raise GridError(f"{what} are bound to different grids")


def complex_inner(f: StateVector, g: StateVector) -> TraceScalar:
    """Sesquilinear inner product, conjugate-linear in ``f``."""
    _require_same_space(f, g, "states")
    raw = _raw_inner(f.coeffs, g.coeffs, f.grid)
    return TraceScalar(raw.real, raw.imag)


def real_inner(f: StateVector, g: StateVector) -> float:
    """Trace form of the complex inner product: 2*Re complex_inner(f, g)."""
    return trace(complex_inner(f, g))


def normalize(f: StateVector) -> StateVector:
    """Rescale to unit complex norm; the zero vector is rejected."""
    nrm = f.norm()
    if nrm == 0.0:
        raise ZeroVectorError("cannot normalize the zero vector")
    return StateVector(f.coeffs / nrm, f.grid)


def superpose(states, weights) -> StateVector:
    """Weighted sum of states; weights may be TraceScalar, complex, or real."""
    states = list(states)
    weights = [complex(w) for w in weights]
    if not states:
        raise DimensionError("need at least one state to superpose")
    if len(states) != len(weights):
        raise DimensionError(f"{len(states)} states but {len(weights)} weights")
    first = states[0]
    for s in states[1:]:
        _require_same_space(first, s, "states")
    if all(w == 0 for w in weights):
        raise ZeroVectorError("all superposition weights are zero")
    acc = np.zeros(first.dim, dtype=np.complex128)
    for s, w in zip(states, weights):
        acc += w * s.coeffs
    return StateVector(acc, first.grid)


def gram_schmidt(states) -> list[StateVector]:
    """Orthonormalize a list of states in order.

    Runs a modified Gram-Schmidt sweep twice per vector, so the returned
    basis is orthonormal to machine precision.  If a vector's residual after
    projection is below ``DEPENDENT_TOL`` (relative to the vector's own
    norm), the set is dependent and :class:`DegenerateSetError` is raised.
    """
    states = list(states)
    if not states:
        return []
    first = states[0]
    for s in states[1:]:
        _require_same_space(first, s, "states")
    rows = _orthonormal_rows(np.array([s.coeffs for s in states]), first.grid)
    return [StateVector(row, first.grid) for row in rows]


def _orthonormal_rows(rows: np.ndarray, grid: GridMeta | None = None) -> np.ndarray:
    """Orthonormalize the rows of a 2D array in order, under the grid weight.

    Modified Gram-Schmidt, swept twice per row; raises
    :class:`DegenerateSetError` for a zero row or one whose residual after
    projection is below ``DEPENDENT_TOL``.
    """
    weight = _weight(grid)
    out = np.empty_like(rows, order="C")
    for k, row in enumerate(rows):
        nrm = _raw_norm(row, grid)
        if nrm == 0.0:
            raise DegenerateSetError(f"vector {k} is zero")
        v = row / nrm
        for _ in range(2):
            for b in out[:k]:
                v = v - b * (np.vdot(b, v) * weight)
        residual = _raw_norm(v, grid)
        if residual < DEPENDENT_TOL:
            raise DegenerateSetError(
                f"vector {k} is dependent on its predecessors (residual {residual:.3e})"
            )
        out[k] = v / residual
    return out


def grid_sample(profile, grid: GridMeta) -> StateVector:
    """Sample a pointwise profile on the grid and normalize.

    ``profile`` is called once per interior position and may return real or
    complex values.  Non-finite samples raise :class:`SamplingError`.
    """
    values = np.asarray([profile(x) for x in grid.positions], dtype=np.complex128)
    if not np.isfinite(values).all():
        raise SamplingError("profile produced non-finite values on the grid")
    return normalize(StateVector(values, grid))
