"""Spectral decompositions, joint diagonalization, and single generators.

The eigenbasis conventions are deterministic so repeated runs agree bit
for bit on a given platform:

* eigenvalues ascend;
* within a degenerate group (adjacent eigenvalue gap at most ``group_tol``)
  vectors are reordered by the index of their dominant component and then
  re-orthonormalized in that order;
* each vector's first component of magnitude above ``PHASE_FLOOR`` is made
  real and positive.

The last two steps are one canonicalization, ``_canonicalize``, shared by
:func:`eigendecompose` and :func:`simultaneous_diagonalize`; a degenerate
group's representative eigenvalue is its mean (``_group_means``), and a
decomposition holds the groups only as one intp array of ``bounds``.

The dense steps are kernels on a stack of same-dimension matrices
``(k, N, N)``: the solve (``_dense_solve``), the group widths and gap masks,
the canonicalization, the commutator check, the joint refinement, the
representatives, the generators' labels and tables, and the spectral sum.
Each works on the whole stack at once, except that the re-orthonormalization
of degenerate groups and the joint refinement loop over the (matrix, group)
pairs that have more than one member.  The public functions are the stack
of one; ``_eigendecompose_stack`` and ``_vn_generator_stack`` run
:func:`eigendecompose` and :func:`vn_generator` on many matrices or
families at once, to the same bytes for each as alone, which is how the
``recon`` checks rebuild thousands of small families and the ``claims``
sweep decomposes its random matrices.

An operator whose matrix has an exactly zero imaginary part is solved in
real arithmetic (the real symmetric LAPACK routine rather than the complex
hermitian one), which is several times faster and needs half the memory;
the conventions above are the same on both paths, and in a stack each
matrix takes the solver it would take alone.  On a real basis the phase rule
is a sign flip per column: p/|p| is exactly +1 or -1.

A decomposition keeps the basis its solve gave: float64 from a real solve,
complex128 otherwise.  Its public ``basis`` is always complex128; from a
real basis it is built on first access and then kept, so a caller that only
reads states never holds the complex copy.  The state reads (``amplitudes``,
``eigenvector``, the evolution and the Born collapse) work in the kept
basis's own arithmetic: on a real basis, real products on the stacked real
and imaginary parts of the complex coefficients, (..., N, 2).  A stack of
coefficient rows is multiplied as one stacked product, which gives each row
the bytes it has alone.

A :class:`~traceqm.operators.BandOperator` with real bands (the grid
position and kinetic Hamiltonian) is solved from its bands, never from its
dense complex matrix.  Palindromic bands (the Hamiltonian's: it commutes
with x -> L - x) are block diagonal in the exchange matrix's +1 and -1
eigenspaces, so they are solved as those two parity sectors of half the
order (Cantoni and Butler, "Eigenvalues and eigenvectors of symmetric
centrosymmetric matrices", Linear Algebra Appl. 13, 275-288, 1976): two
half tridiagonals cut in O(N) (``_band_halves``) whose eigenvalues are
merged by a stable ascending sort (``_parity_merge``), a tie across the
parities being one degenerate group like any other.  Each half is solved
alone by ``_sector_solve``, so a caller can keep the halves and hand them to
the merge (``dynamics.ModelSystem`` does), and a state is folded into the
halves' coordinates and back (``_parity_fold``, ``_parity_unfold``) in the
merge's own arithmetic, so it can be evolved in the halves alone.  Other
bands are solved whole.  The same halves serve bisection:
``dynamics.grid_levels`` hands each to ``?stebz`` (``_stebz``) for its share
of the lowest levels and merges them by ``_parity_merge``.  Each tridiagonal a band solve forms
goes to LAPACK ``?stevd`` (divide and conquer; Gu and Eisenstat, SIAM J.
Matrix Anal. Appl. 16, 172-191, 1995) from numpy's own LAPACK at every
size (``_lapack``, or :class:`LapackError` if it has none).  numpy's ``?syevd`` reduces the filled tridiagonal with tau = 0 and
calls the same ``?stedc``, so whole bands give the dense path's bytes up to
the sign of a zero level, and the halves agree with it to roundoff.  Every
LAPACK solve runs on one BLAS thread (``_one_blas_thread``).  Each path
refuses, before allocating, a working set that would not fit in physical
memory.
:func:`eigendecompose`, :func:`eigenvalues` and the first member of
:func:`simultaneous_diagonalize` all take this one rule
(``_hermitian_solve``).  :func:`eigenvalues` returns the ascending spectrum
alone, without eigenvectors, for callers that need only the levels.

A basis is dispersion-free for an observable when every basis vector gives
that observable zero spread; :func:`verify_dispersion_free` measures the
worst spread over a decomposition.  Commuting families share such a basis,
and :func:`vn_generator` compresses a commuting family into one operator
with integer spectrum from which every member is recovered by relabeling
eigenvalues: one :func:`eigendecompose` of the generator serves every
member through :func:`apply_function` and the member's table.
"""

from __future__ import annotations

import ctypes
import math
import threading
from collections import OrderedDict
from functools import cache, cached_property, partial
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import ConvergenceError, FunctionDomainError, InputError, LapackError, NotCommutingError
from .operators import BandOperator, HermitianOperator, Operator, _centered, _require_fits, certify_hermitian
from .states import GridMeta, StateVector, _orthonormal_rows, _raw_inner, _require_same_space, _weight

__all__ = [
    "SpectralDecomposition",
    "JointDecomposition",
    "GeneratorResult",
    "eigendecompose",
    "eigenvalues",
    "verify_dispersion_free",
    "commute_check",
    "simultaneous_diagonalize",
    "vn_generator",
    "apply_function",
]

#: degenerate-group width is this factor times the spectral range, or n*eps*max|eigenvalue| if larger.
GROUP_TOL_FACTOR = 1e-8

#: smallest component magnitude eligible to anchor the phase convention.
PHASE_FLOOR = 1e-8

#: rows of a basis scanned at a time for the phase convention's anchors.
PHASE_SCAN_ROWS = 64

#: bound on max|AB - BA| / (max|A| * max|B|) for every pair of a commuting family.
COMMUTE_TOL = 1e-8

#: bytes per matrix entry alive at once while a real band operator is decomposed: ``?stevd``'s
#: eigenvectors and (1 + 4N + N^2)-entry workspace on whole bands (8 + 8).  The rest holds less: the
#: halves' solves (2 + 2 + 2), their merge (4 + 8), the phase rule (8).  No complex basis is made.
#: One half solved alone holds the same 16 bytes per entry of its own order squared.
BAND_BASIS_BYTES_PER_ENTRY = 8 + 8

_BLAS_THREADS = threading.Lock()


@cache
def _symbol(name: str):
    """``name`` in the BLAS and LAPACK numpy's linear-algebra module links, under OpenBLAS's prefix and suffix
    (``scipy_<name>64_`` in numpy's), and the LAPACK integer of that suffix; ``(None, None)`` if absent."""
    lib = ctypes.CDLL(_umath_linalg.__file__)
    return next(((getattr(lib, f"{prefix}{name}{suffix}"), np.int64 if suffix else np.int32)
                 for prefix in ("scipy_", "") for suffix in ("64_", "") if hasattr(lib, f"{prefix}{name}{suffix}")),
                (None, None))


class _OneBlasThread:
    """Context manager holding numpy's OpenBLAS to one thread: LAPACK's eigensolvers merge through BLAS,
    whose OpenBLAS blocking, and so whose last bits, follow the thread count from order 800 up.  Another
    BLAS is left as it is.  One caller at a time holds the process's setting, and restores it on exit."""

    def __init__(self):
        self._get, self._set = (_symbol(f"openblas_{verb}_num_threads")[0] for verb in ("get", "set"))
        if self._get is not None:
            self._get.argtypes, self._get.restype = [], ctypes.c_int
            self._set.argtypes, self._set.restype = [ctypes.c_int], None

    def __enter__(self):
        if self._get is not None:
            _BLAS_THREADS.acquire()
            self._held = self._get()
            if self._held != 1:
                self._set(1)

    def __exit__(self, *_):
        if self._get is not None:
            if self._held != 1:
                self._set(self._held)
            _BLAS_THREADS.release()


_one_blas_thread = cache(_OneBlasThread)  # the one instance, made on first use


def _array(dtype) -> type:
    """``ndpointer(dtype, flags="C_CONTIGUOUS")`` passing the bare data address: ``ndpointer`` itself passes
    ``ndarray.ctypes.data_as``, whose ``ctypes.cast`` leaves a reference cycle per argument and call."""
    checked = np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS")
    return type("Array", (checked,),
                {"from_param": classmethod(lambda _, array: ctypes.c_void_p(checked.from_param(array).data))})


@cache
def _lapack():
    """numpy's own ``?stevd`` and ``?stebz`` through LAPACKE's ``_work`` entry points, whose workspace the
    caller allocates (so tracemalloc and the memory refusals see it), and LAPACK's integer type."""
    (stevd, integer), (stebz, _) = _symbol("LAPACKE_dstevd_work"), _symbol("LAPACKE_dstebz_work")
    if stevd is None or stebz is None:
        raise LapackError("numpy's LAPACK exports no LAPACKE_dstevd_work or LAPACKE_dstebz_work")
    real, index, n = _array(np.float64), _array(integer), np.ctypeslib.as_ctypes_type(integer)
    char, double = ctypes.c_char, ctypes.c_double
    stevd.argtypes = [ctypes.c_int, char, n, real, real, real, n, real, n, index, n]
    stebz.argtypes = [char, char, n, double, double, n, n, double, real, real, index, index, real, index, index,
                      real, index]
    stevd.restype = stebz.restype = n
    return stevd, stebz, integer


#: numpy's floating-point error handling while a range or a gap that may exceed float range is formed;
#: entered once per public call or stack, by its caller, not by ``_group_tol`` and ``_breaks``.
_QUIET_OVERFLOW = partial(np.errstate, over="ignore")


def _group_tol(values: np.ndarray) -> np.ndarray:
    """Degenerate-group width of each ascending row of ``values`` (any leading stack axes).

    A range beyond float range is taken at half scale, exactly, and scaled
    back; the caller holds ``_QUIET_OVERFLOW``.
    """
    low, high = values[..., 0], values[..., -1]
    width = GROUP_TOL_FACTOR * (high - low)
    wide = np.isinf(width)
    if wide.any():
        width = np.where(wide, np.ldexp(GROUP_TOL_FACTOR * (np.ldexp(high, -1) - np.ldexp(low, -1)), 1), width)
    return np.maximum(width, values.shape[-1] * math.ulp(1.0) * np.maximum(-low, high))


def _breaks(values: np.ndarray, tol) -> np.ndarray:
    """Gap mask of ascending rows: True between adjacent values more than their row's ``tol`` apart.

    A gap beyond float range reads inf, which is a break; the caller holds ``_QUIET_OVERFLOW``."""
    return values[..., 1:] - values[..., :-1] > np.asarray(tol)[..., None]


def _bounds(breaks: np.ndarray) -> list[int]:
    """First index of every group of one row's gap mask, then the row's length."""
    return [0, *(breaks.nonzero()[0] + 1).tolist(), breaks.size + 1]


def _tied_runs(breaks: np.ndarray) -> list[tuple[int, int, int]]:
    """``(row, start, stop)`` of every group of more than one index in a (k, N - 1) gap mask."""
    runs = []
    if breaks.all():  # no ties anywhere, the common case: no row is looked at
        return runs
    for row in np.flatnonzero(~breaks.all(axis=-1)).tolist():
        bounds = _bounds(breaks[row])
        runs.extend((row, a, b) for a, b in zip(bounds, bounds[1:]) if b - a > 1)
    return runs


def _group_means(values: np.ndarray, groups) -> tuple[float, ...]:
    """Mean of ``values`` over each index group, the representative of a degenerate cluster.

    A singleton's is its value plus 0.0, bit for bit ``np.mean``'s (whose sum
    starts from +0.0, so -0.0 reads 0.0), without the reduction."""
    # a list, not a generator: see _open_grid
    return tuple([float(values[group[0]]) + 0.0 if len(group) == 1 else float(np.mean(values[list(group)]))
                  for group in groups])


def _orthonormalize_block(cols: np.ndarray) -> np.ndarray:
    """Reorder near-orthonormal columns by dominant component index, then re-orthonormalize."""
    dominant = [int(np.argmax(np.abs(cols[:, j]))) for j in range(cols.shape[1])]
    return _orthonormal_rows(cols[:, np.argsort(dominant, kind="stable")].T).T


def _open_grid(shape) -> tuple[np.ndarray, ...]:
    """``np.ogrid`` of ``shape``, a range over each axis shaped to broadcast against the others: with it
    ``np.take_along_axis(a, i, axis=-1)`` is ``a[(*_open_grid(i.shape)[:-1], i)]``, without that call's
    index building."""
    # a list, not a generator: on CPython 3.11, tuple() of a generator leaves about 64 bytes a call
    # allocated until the cycle collector runs, which a sweep's traced peak counts
    return tuple([np.arange(n).reshape((n,) + (1,) * (len(shape) - 1 - axis)) for axis, n in enumerate(shape)])


def _anchors(basis: np.ndarray) -> np.ndarray:
    """Row of each column's first entry of magnitude above ``PHASE_FLOOR`` (row 0 where there is none),
    for a basis or a stack, scanned ``PHASE_SCAN_ROWS`` rows at a time until every column has one."""
    rows = missing = None
    for start in range(0, basis.shape[-2], PHASE_SCAN_ROWS):
        above = np.abs(basis[..., start:start + PHASE_SCAN_ROWS, :]) > PHASE_FLOOR
        first, found = above.argmax(axis=-2), above.any(axis=-2)
        if rows is None:
            rows, missing = first, ~found
        else:
            found &= missing
            rows[found] = start + first[found]
            missing &= ~found
        if not missing.any():
            break
    return rows


def _phase_fix(basis: np.ndarray) -> np.ndarray:
    """Apply the phase convention in place to every column of a basis or a stack of bases (..., R, C)."""
    rows = _anchors(basis)
    *lead, columns = _open_grid(rows.shape)
    pivots = basis[(*lead, rows, columns)][..., None, :]  # basis[..., rows[..., j], j] of every column j
    if basis.dtype.kind == "c":
        # hypot, as abs() of one complex scalar computes it; np.abs on a complex
        # array takes a vectorized route that can differ in the last bit
        basis *= pivots.conj() / np.hypot(pivots.real, pivots.imag)
    else:
        basis *= np.copysign(1.0, pivots)  # p/|p|, exactly
    return basis


def _canonicalize(basis: np.ndarray, runs) -> np.ndarray:
    """Apply the module's basis conventions in place to a (k, N, N) stack: every
    degenerate group ``(row, start, stop)`` of ``runs`` is reordered and
    re-orthonormalized, then every column's phase is fixed."""
    for row, a, b in runs:
        basis[row, :, a:b] = _orthonormalize_block(basis[row, :, a:b])
    return _phase_fix(basis)


def _complex_stack(parts, shape) -> np.ndarray:
    """One complex128 stack of ``shape`` from the ``(rows, basis)`` parts of a solve."""
    if len(parts) == 1:
        return parts[0][1].astype(np.complex128, copy=False)
    out = np.empty(shape, dtype=np.complex128)
    for rows, basis in parts:
        out[rows] = basis
    return out


def _partition(bounds, dim: int) -> np.ndarray:
    """A new intp copy of ``bounds``, refused unless it is one integer vector
    that ascends strictly from 0 to ``dim``; O(groups)."""
    try:
        given = np.array(bounds)  # the copy kept, so no second N-vector joins the decomposition's peak
    except ValueError:  # ragged
        given = None
    if (given is None or given.ndim != 1 or given.dtype.kind not in "iu" or given.size == 0
            or given[0] != 0 or given[-1] != dim or np.count_nonzero(given[1:] <= given[:-1])):
        raise InputError(f"bounds must be one integer vector ascending strictly from 0 to the dimension {dim}")
    return given.astype(np.intp, copy=False)


def _pairs(coeffs: np.ndarray) -> np.ndarray:
    """Contiguous complex128 rows (..., n) as their real and imaginary parts side by side, a
    (..., n, 2) float64 view."""
    return coeffs.view(np.float64).reshape(coeffs.shape + (2,))


class SpectralDecomposition:
    """Canonical eigendecomposition of one hermitian operator.

    ``basis`` holds orthonormal eigenvector columns in the plain (unweighted)
    sense, as complex128; the ``eigenvectors`` property rescales them into unit-norm
    :class:`StateVector` objects under the grid weight when one is bound.
    A real ``basis`` given to the constructor is kept as float64 and read in
    real arithmetic, and the complex128 ``basis`` is built from it on first
    access and then kept; any other is kept as complex128.
    ``bounds`` (read-only intp, one longer than the number of degenerate
    clusters) partitions the index range: cluster g is ``range(bounds[g], bounds[g + 1])``.
    The constructor refuses any other ``bounds`` with :class:`InputError`.
    """

    def __init__(self, eigenvalues, basis, bounds, group_tol, grid: GridMeta | None = None):
        eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
        self._hold(eigenvalues, basis, _partition(bounds, eigenvalues.size), group_tol, grid)

    @classmethod
    def _solved(cls, eigenvalues: np.ndarray, basis: np.ndarray, bounds: list[int], group_tol, grid):
        """A decomposition of what :func:`eigendecompose` solved, its ``bounds`` from ``_bounds`` and so
        a partition without the constructor's check."""
        dec = cls.__new__(cls)
        dec._hold(eigenvalues, basis, np.array(bounds, dtype=np.intp), group_tol, grid)
        return dec

    def _hold(self, eigenvalues, basis, bounds, group_tol, grid):
        basis = np.asarray(basis)
        basis = basis.astype(np.complex128 if np.iscomplexobj(basis) else np.float64, copy=False)
        for array in (eigenvalues, basis, bounds):
            array.setflags(write=False)
        self.eigenvalues = eigenvalues
        self._basis = basis
        self.bounds = bounds
        self.group_tol = float(group_tol)
        self.grid = grid

    @cached_property
    def basis(self) -> np.ndarray:
        """The eigenvector columns as complex128: the kept basis itself, or its complex copy."""
        if np.iscomplexobj(self._basis):
            return self._basis
        basis = self._basis.astype(np.complex128)
        basis.setflags(write=False)
        return basis

    # The two products below run on numpy's BLAS held to one thread: at N = 1601 the real
    # amplitudes' last bits differ on two threads from one.

    def _coordinates(self, coeffs: np.ndarray) -> np.ndarray:
        """basis^H c of one coefficient vector (N,), without the grid weight."""
        with _one_blas_thread():
            if np.iscomplexobj(self._basis):
                return (coeffs.conj() @ self._basis).conj()
            return (self._basis.T @ _pairs(coeffs)).view(np.complex128)[:, 0]

    def _combination(self, weights: np.ndarray, columns=slice(None)) -> np.ndarray:
        """basis[:, columns] @ w of every row w of ``weights`` (..., n), as one stacked product, so a row
        has the same bytes in any stack as alone."""
        basis = self._basis[:, columns]
        with _one_blas_thread():
            if np.iscomplexobj(basis):
                return np.matmul(basis, weights[..., None])[..., 0]
            return np.matmul(basis, _pairs(weights)).view(np.complex128)[..., 0]

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def eigenvector(self, k: int) -> StateVector:
        """``eigenvectors[k]`` alone, without building the other states."""
        return StateVector(self._basis[:, k] * (1.0 / np.sqrt(_weight(self.grid))), self.grid)

    @cached_property
    def eigenvectors(self) -> list[StateVector]:
        return [self.eigenvector(k) for k in range(self.dim)]

    # The caches below are lazy: most decompositions are never sampled.

    @cached_property
    def _memo(self) -> OrderedDict:
        """The Born path's remembered results, oldest first (see ``measurement.MEMO_ENTRIES``)."""
        return OrderedDict()

    @cached_property
    def _known(self) -> OrderedDict:
        """The Born path's recent states by ``id``, each as ``(state, amplitudes, bounds, outcome table)``,
        oldest first."""
        return OrderedDict()

    @cached_property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        """Index tuple of each degenerate group, from ``bounds``; no program path reads it."""
        return tuple(map(tuple, self._ranges()))

    @cached_property
    def _group_values(self) -> tuple[float, ...]:
        return _group_means(self.eigenvalues, self._ranges())

    def _ranges(self):
        return map(range, self.bounds[:-1].tolist(), self.bounds[1:].tolist())

    def amplitudes(self, state: StateVector) -> np.ndarray:
        """Inner products of every eigenvector with ``state`` (grid weight included)."""
        _require_same_space(self, state, "decomposition and state")
        return np.sqrt(_weight(self.grid)) * self._coordinates(state.coeffs)

    def group_eigenvalue(self, g: int) -> float:
        """Representative eigenvalue (mean) of degenerate group ``g``."""
        return self._group_values[g]

    def __repr__(self):
        return f"<SpectralDecomposition dim={self.dim} groups={self.bounds.size - 1}>"


class JointDecomposition:
    """Common eigenbasis of a commuting family with per-operator eigenvalues.

    ``eigenvalue_lists[i, k]`` is the eigenvalue of family member i on basis
    vector k (a Rayleigh quotient in the refined basis).
    """

    def __init__(self, basis, eigenvalue_lists, grid: GridMeta | None = None):
        basis = np.asarray(basis, dtype=np.complex128)
        eigenvalue_lists = np.asarray(eigenvalue_lists, dtype=np.float64)
        basis.setflags(write=False)
        eigenvalue_lists.setflags(write=False)
        self.basis = basis
        self.eigenvalue_lists = eigenvalue_lists
        self.grid = grid

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def __repr__(self):
        ops = self.eigenvalue_lists.shape[0]
        return f"<JointDecomposition dim={self.dim} operators={ops}>"


class GeneratorResult(NamedTuple):
    """Single generator of a commuting family."""

    generator: HermitianOperator
    labels: list[float]
    tables: list[dict[int, float]]


def _solve(solver, matrix: np.ndarray):
    """Run a LAPACK hermitian solver on numpy's BLAS held to one thread, reporting non-convergence
    as :class:`ConvergenceError`."""
    try:
        with _one_blas_thread():
            return solver(matrix)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration failed: {exc}") from exc


def _band_halves(d: np.ndarray, e: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Even and odd (diagonal, off-diagonal) halves of palindromic real bands: their parity sectors
    (see the module notes), cut in O(N)."""
    m = d.size // 2
    if d.size % 2:
        return [(d[:m + 1], np.append(e[:m - 1], math.sqrt(2.0) * e[m - 1])), (d[:m], e[:m - 1])]
    even_d, odd_d = d[:m].copy(), d[:m].copy()
    even_d[-1] += e[m - 1]
    odd_d[-1] -= e[m - 1]
    return [(even_d, e[:m - 1]), (odd_d, e[:m - 1])]


def _stevd(d: np.ndarray, e: np.ndarray, vectors: bool):
    """Eigenvalues (m,), and with ``vectors`` eigenvectors (m, m), of the real tridiagonal with
    diagonal ``d`` and off-diagonal ``e`` by ``?stevd`` on one BLAS thread, its workspace freed on return."""
    (stevd, _, integer), m = _lapack(), d.size
    values, vectors_t = d.copy(), np.empty((m, m) if vectors else (1, 1))  # column-major: vector j is row j
    work, iwork = np.empty(1 + 4 * m + m * m if vectors else 1), np.empty(3 + 5 * m if vectors else 1, integer)
    with _one_blas_thread():
        info = stevd(102, b"V" if vectors else b"N", m, values, e.copy(), vectors_t, m if vectors else 1, work,
                     work.size, iwork, iwork.size)
    if info:
        raise ConvergenceError(f"eigenvalue iteration failed: ?stevd returned info {info}")
    return (values, vectors_t.T) if vectors else values


def _stebz(d: np.ndarray, e: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` lowest eigenvalues, ascending, of the real tridiagonal with diagonal ``d`` and
    off-diagonal ``e`` by ``?stebz`` bisection (range I, order E, abstol 0), in O(N) memory, as an
    array of their own: not a view that keeps LAPACK's N-vector alive.  A ``count`` outside [1, N] is
    refused with ``ValueError`` before LAPACK sees it."""
    (_, stebz, integer), n = _lapack(), d.size
    if not 1 <= count <= n:
        raise ValueError(f"count must lie in [1, {n}], got {count!r}")
    found, levels, blocks = np.zeros(2, integer), np.empty(n), np.empty(2 * n, integer)
    info = stebz(b"I", b"E", n, 0.0, 0.0, 1, count, 0.0, d, e, found[:1], found[1:], levels, blocks[:n], blocks[n:],
                 np.empty(4 * n), np.empty(3 * n, integer))
    if info:
        raise ConvergenceError(f"eigenvalue iteration failed: ?stebz returned info {info}")
    return levels[:found[0]].copy()


def _parity_merge(results, n: int, vectors: bool):
    """Eigenvalues (n,), and with ``vectors`` real eigenvectors (n, n), of palindromic bands of
    order ``n`` from the ``results`` of their parity halves, even first: each half's eigenvalues
    (m,), and eigenvectors (m, m).  The eigenvalues are merged by a stable sort, even before odd
    where they tie; an even vector (x, xi) becomes [x; sqrt(2) xi; Jx]/sqrt(2) and an odd vector
    x becomes [x; 0; -Jx]/sqrt(2), the centre row existing only for odd n."""
    values, halves = zip(*results) if vectors else (results, None)
    merged = np.concatenate(values)
    order = np.argsort(merged, kind="stable")
    values = merged[order]
    if not vectors:
        return values
    even, odd = halves
    m, r = n // 2, math.sqrt(0.5)
    basis = np.empty((n, n))
    top, bottom = basis[:m], basis[n - m:]
    # the top half of every vector, in ascending order, gathered through the bottom half's rows so
    # that no other N x N/2 array is formed; the bottom half then mirrors it
    np.concatenate((even[:m], odd), axis=-1, out=bottom)
    np.take(bottom, order, axis=-1, out=top, mode="clip")  # "raise" would buffer the output
    np.multiply(top[::-1], np.where(order < even.shape[-1], r, -r), out=bottom)
    top *= r
    if n % 2:
        basis[m] = np.concatenate((even[m], np.zeros(m)))[order]
    return values, basis


def _parity_fold(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd half coordinates of a complex vector (n,) as real parts (see :func:`_pairs`), the
    inverse of :func:`_parity_unfold`: x = (c_top + J c_bottom) sqrt(1/2) with the centre entry c_m
    appended for odd n, (n - n//2, 2), and y = (c_top - J c_bottom) sqrt(1/2), (n//2, 2).  A vector
    whose entries mirror exactly has a y of zeros; one whose entries mirror exactly negated, and whose
    centre entry is zero, has an x of zeros."""
    pairs, n = _pairs(coeffs), coeffs.size
    m, r = n // 2, math.sqrt(0.5)
    top, mirrored = pairs[:m], pairs[n - m:][::-1]
    even = np.empty((n - m, 2))
    np.add(top, mirrored, out=even[:m])
    even[:m] *= r
    even[m:] = pairs[m:n - m]
    odd = top - mirrored
    odd *= r
    return even, odd


def _parity_unfold(even, odd, n: int) -> np.ndarray:
    """Rows (..., n, k) of the vectors whose even and odd half coordinates are the rows (..., n - n//2, k)
    of ``even`` and (..., n//2, k) of ``odd``, either None for a zero part: top (x + y) sqrt(1/2), centre
    x_m for odd n, bottom J (x - y) sqrt(1/2), each vector as :func:`_parity_merge` forms it.  With one
    part the bottom is the top mirrored exactly, negated for the odd part alone."""
    m, r = n // 2, math.sqrt(0.5)
    part = odd if even is None else even
    out = np.empty(part.shape[:-2] + (n,) + part.shape[-1:])
    top, bottom = out[..., :m, :], out[..., n - m:, :][..., ::-1, :]
    if odd is None:
        np.multiply(even[..., :m, :], r, out=top)
        bottom[...] = top
    elif even is None:
        np.multiply(odd, r, out=top)
        np.negative(top, out=bottom)
    else:
        np.add(even[..., :m, :], odd, out=top)
        np.subtract(even[..., :m, :], odd, out=bottom)
        top *= r
        bottom *= r
    if n % 2:
        out[..., m, :] = 0.0 if even is None else even[..., m, :]
    return out


def _sectored(a) -> bool:
    """Whether ``a`` is a band operator with real palindromic bands, solved in its parity sectors."""
    return (isinstance(a, BandOperator) and not np.iscomplexobj(a.upper)
            and np.array_equal(a.diagonal, a.diagonal[::-1]) and np.array_equal(a.upper, a.upper[::-1]))


def _sector_solve(a: BandOperator, odd: int, vectors: bool = True):
    """``?stevd`` of the even (``odd`` 0) or odd (1) half of real palindromic bands at the power of
    two 2**-e that brings max|A| into [0.5, 1): the half's eigenvalues at that scale, ascending, and
    with ``vectors`` its eigenvectors, of order N - N//2 (even) or N//2 (odd).  Refuses nothing."""
    e = math.frexp(a.scale)[1]
    return _stevd(*_band_halves(np.ldexp(a.diagonal, -e), np.ldexp(a.upper, -e))[odd], vectors)


def _band_solve(a: BandOperator, vectors: bool, half=None):
    """Solve a band operator with real bands from its bands (see the module notes), returning what
    :func:`_dense_solve` returns for a stack of one.  Palindromic bands take each parity half's
    :func:`_sector_solve` result from ``half(odd)`` if given (a model's cached halves), after the
    refusal, and solve it otherwise."""
    n = a.dim
    if vectors:
        _require_fits(a.grid, BAND_BASIS_BYTES_PER_ENTRY * n * n, f"solving its {n}x{n} tridiagonal")
    e = math.frexp(a.scale)[1]
    if _sectored(a):
        half = half or partial(_sector_solve, a, vectors=vectors)
        result = _parity_merge([half(odd) for odd in (0, 1)], n, vectors)
    else:
        result = _stevd(np.ldexp(a.diagonal, -e), np.ldexp(a.upper, -e), vectors)
    if not vectors:
        return np.ldexp(result, e)[None]
    return np.ldexp(result[0], e)[None], [(slice(None), result[1][None])]


def _dense_solve(matrices: np.ndarray, scales: np.ndarray, vectors: bool = True):
    """Eigenvalues, and with ``vectors`` eigenvectors, of a certified hermitian (k, N, N) stack.

    Each matrix is solved as 2**-e A, with max|A| (its ``scales`` entry) in
    [0.5, 1), and its eigenvalues are scaled back exactly.  The matrices with
    an exactly zero imaginary part are solved together in real arithmetic, the
    rest together by the complex solver.  The eigenvectors come as
    ``[(rows, basis)]``: one part for each of these two groups used, ``rows``
    selecting its matrices and ``basis`` float64 or complex128 accordingly.
    """
    e = np.frexp(scales)[1]
    scaled = np.ldexp(matrices.view(np.float64), -e[:, None, None]).view(np.complex128)
    real = ~matrices.imag.any(axis=(1, 2))
    solve = partial(_solve, np.linalg.eigh if vectors else np.linalg.eigvalsh)
    values = np.empty(matrices.shape[:2])
    parts = []
    for rows, stack in ((real, scaled.real), (~real, scaled)):
        if rows.all():
            rows = slice(None)
        elif rows.any():
            stack = stack[rows]
        else:
            continue
        result = solve(stack)
        if vectors:
            values[rows], basis = result
            parts.append((rows, basis))
        else:
            values[rows] = result
    values = np.ldexp(values, e[:, None])
    return (values, parts) if vectors else values


def _hermitian_solve(a: HermitianOperator, caller: str, vectors: bool = True):
    """:func:`_dense_solve` of a certified hermitian ``a`` as a stack of one.

    A band operator with real bands is instead solved from its bands by
    :func:`_band_solve`, at the same exact power-of-two scale.  Either way a
    matrix with any nonzero imaginary entry, however small, keeps the complex
    solver.  The scaling avoids LAPACK's own rescale of a norm outside about
    [1.5e-146, 6.7e145] by a factor that is not a power of two.
    """
    if not isinstance(a, HermitianOperator):
        raise InputError(f"{caller} needs a certified HermitianOperator")
    if isinstance(a, BandOperator) and not np.iscomplexobj(a.upper):
        return _band_solve(a, vectors)
    return _dense_solve(a.matrix[None], np.array([a.scale]), vectors)


def _canonical(values: np.ndarray, parts):
    """Group widths, gap masks and the canonical ``(rows, basis)`` parts of a solved (k, N) stack."""
    with _QUIET_OVERFLOW():
        tol = _group_tol(values)
        breaks = _breaks(values, tol)
    return tol, breaks, [(rows, _canonicalize(basis, _tied_runs(breaks[rows]))) for rows, basis in parts]


def _eigendecompose_stack(matrices: np.ndarray, scales: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`eigendecompose` of every matrix of a certified hermitian (k, N, N)
    stack with max|A| ``scales``: the (k, N) eigenvalues and complex128 (k, N, N) bases."""
    values, parts = _dense_solve(matrices, scales)
    return values, _complex_stack(_canonical(values, parts)[2], values.shape + values.shape[-1:])


def eigenvalues(a: HermitianOperator) -> np.ndarray:
    """Ascending eigenvalues of a certified hermitian operator, without eigenvectors."""
    return _hermitian_solve(a, "eigenvalues", vectors=False)[0]


def eigendecompose(a: HermitianOperator) -> SpectralDecomposition:
    """Decompose a certified hermitian operator with canonical conventions."""
    return _decomposition(a, *_hermitian_solve(a, "eigendecompose"))


def _decomposition(a: HermitianOperator, values: np.ndarray, parts) -> SpectralDecomposition:
    """The canonical decomposition of ``a`` from its solve as a stack of one, ``values`` and ``parts``."""
    tol, breaks, ((_, basis),) = _canonical(values, parts)  # a stack of one is solved as one part
    return SpectralDecomposition._solved(values[0], basis[0], _bounds(breaks[0]), tol[0], a.grid)


def verify_dispersion_free(dec: SpectralDecomposition, a: HermitianOperator) -> float:
    """Worst dispersion of ``a`` over the basis of ``dec``, as :func:`~traceqm.operators.dispersion` reads it.

    For a decomposition of ``a`` itself this is zero up to roundoff; a
    mismatched pair shows up as a spread of order the eigenvalue gaps.
    """
    if not isinstance(dec, SpectralDecomposition):
        raise InputError("first argument must be a SpectralDecomposition")
    if not isinstance(a, HermitianOperator):
        raise InputError("second argument must be a certified HermitianOperator")
    if dec.dim != a.dim:
        raise InputError(f"dimension mismatch: decomposition {dec.dim} vs operator {a.dim}")
    if dec.grid != a.grid:
        raise InputError("decomposition and operator are bound to different grids")
    return float(_worst_spread(a.matrix[None] @ dec.basis[None], dec.basis[None], np.array([a.scale]))[0])


def _worst_spread(products: np.ndarray, bases: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """:func:`verify_dispersion_free`'s worst spread of each of k matrices A over its basis U (k, N, N),
    given the products A U (k, N, N), which it overwrites: the residuals formed at each matrix's scale
    (k,), such as max|A|."""
    # the basis columns as rows: each one's dispersion, in place in the product
    images, columns = products.swapaxes(-1, -2), bases.swapaxes(-1, -2)
    return _centered(images, columns, _raw_inner(columns, images, None).real, scales[:, None], None)[2].max(axis=-1)


def _family_stack(family) -> tuple[list[np.ndarray], np.ndarray]:
    """A family as the members' (1, N, N) stacks of one and their (m, 1) scales."""
    return [a.matrix[None] for a in family], np.array([[a.scale] for a in family])


def _worst_commutator(members, scales) -> tuple[np.ndarray, np.ndarray]:
    """Worst pair (i, j) and scaled commutator of each of k families, given as
    m member stacks (k, N, N) and their (m, k) scales; pair (0, 0) where every
    commutator vanishes."""
    # each member scaled exactly into [0.5, 1), so no product overflows or underflows
    units, exps = np.frexp(scales)
    scaled = [np.ldexp(a.view(np.float64), -e[:, None, None]).view(np.complex128) for a, e in zip(members, exps)]
    # pair (0, 0) first, at 0: the answer where every commutator vanishes
    pairs = [(0, 0), *((i, j) for i in range(len(members)) for j in range(i + 1, len(members)))]
    relative = np.zeros((len(pairs), scales.shape[1]))
    for (i, j), row in zip(pairs[1:], relative[1:]):
        commutator = scaled[i] @ scaled[j]
        commutator -= scaled[j] @ scaled[i]
        deviation = abs(commutator).max(axis=(1, 2))
        np.divide(deviation, units[i] * units[j], out=row, where=deviation != 0)
    worst = relative.argmax(axis=0)  # the first pair of the largest
    return np.array(pairs)[worst], relative.max(axis=0)


def _require_commuting(members, scales):
    """Refuse the first of k families whose worst scaled commutator exceeds ``COMMUTE_TOL``."""
    pair, worst = _worst_commutator(members, scales)
    failed = worst > COMMUTE_TOL
    if failed.any():
        first = failed.argmax()
        raise NotCommutingError(tuple(pair[first].tolist()), float(worst[first]))


def _check_family(family) -> list[HermitianOperator]:
    family = list(family)
    if not family:
        raise InputError("family is empty")
    for a in family:
        if not isinstance(a, HermitianOperator):
            raise InputError("family members must be certified HermitianOperators")
    for a in family[1:]:
        _require_same_space(family[0], a, "family members")
    return family


def commute_check(family) -> bool:
    """True when every pairwise commutator vanishes within ``COMMUTE_TOL`` (relative to the members' scales)."""
    family = _check_family(family)
    if len(family) < 2:
        return True
    _, worst = _worst_commutator(*_family_stack(family))
    return bool(worst[0] <= COMMUTE_TOL)


def _joint_stack(members, scales, values: np.ndarray, parts) -> tuple[np.ndarray, np.ndarray]:
    """Common eigenbases (k, N, N) and eigenvalue lists (k, m, N) of k commuting
    families, given as m member stacks, their (m, k) scales and the first
    member's solve (``values``, ``parts``)."""
    # complex, so a later member's rotation inside a degenerate block keeps its imaginary part
    basis = _complex_stack(parts, values.shape + values.shape[-1:])
    with _QUIET_OVERFLOW():
        blocks = _tied_runs(_breaks(values, _group_tol(values)))
    units, exps = np.frexp(scales)
    for a, unit, e in zip(members[1:], units[1:], exps[1:]):
        refined = []
        for row, start, stop in blocks:
            sub = basis[row, :, start:stop].copy()
            # compressed, as the first member is solved, scaled exactly by 2**-e: max|A| in [0.5, 1)
            m = sub.conj().T @ np.ldexp(a[row].view(np.float64), -e[row]).view(np.complex128) @ sub
            m = (m + m.conj().T) / 2.0
            w, s = _solve(np.linalg.eigh, m)
            basis[row, :, start:stop] = sub @ s
            # w is the spectrum of a matrix scaled into [0.5, 1): no gap leaves float range
            refined.extend((row, start + i, start + j)
                           for _, i, j in _tied_runs(_breaks(w, GROUP_TOL_FACTOR * 2.0 * unit[row])[None]))
        blocks = refined
    basis = _canonicalize(basis, blocks)
    adjoint = basis.conj()
    lists = np.stack([np.einsum("kij,kij->kj", adjoint, a @ basis).real for a in members], axis=1)
    return basis, lists


def simultaneous_diagonalize(family) -> JointDecomposition:
    """Common eigenbasis of a commuting family by sequential refinement.

    The first operator is diagonalized outright; every further operator is
    re-diagonalized inside the still-degenerate blocks.  The basis therefore
    ascends lexicographically in the tuple of eigenvalues, and inherits the
    canonical phase convention.
    """
    family = _check_family(family)
    members, scales = _family_stack(family)
    _require_commuting(members, scales)
    basis, lists = _joint_stack(members, scales, *_hermitian_solve(family[0], "simultaneous_diagonalize"))
    return JointDecomposition(basis[0], lists[0], family[0].grid)


def _representatives(values: np.ndarray) -> np.ndarray:
    """Snap every row of eigenvalue lists (any leading axes) to cluster representatives (cluster means)."""
    order = np.argsort(values, axis=-1, kind="stable")
    along = (*_open_grid(values.shape)[:-1], order)
    flat = values[along].reshape(-1, values.shape[-1])
    # every index a singleton first, by _group_means' rule; then each larger cluster's mean
    means = flat + 0.0
    with _QUIET_OVERFLOW():
        runs = _tied_runs(_breaks(flat, _group_tol(flat)))
    for row, a, b in runs:
        means[row, a:b] = _group_means(flat[row], [range(a, b)])[0]
    reps = np.empty_like(values)
    reps[along] = means.reshape(values.shape)
    return reps


def _generators(basis: np.ndarray, lists: np.ndarray):
    """Generator matrices (k, N, N), tables (k, m, N) and label counts (k,) of
    k joint decompositions; family f's labels are 0 .. counts[f] - 1, and
    ``tables[f, i, label]`` is member i's value on that label."""
    reps = _representatives(lists)
    # index columns in lexicographic order of their tuples, stably: each
    # distinct tuple's table entries come from its lowest index
    order = np.lexsort(reps.transpose(1, 0, 2)[::-1], axis=-1)
    family, member, _ = _open_grid(reps.shape)
    ordered = reps[family, member, order[:, None, :]]
    first = np.ones(order.shape, dtype=bool)
    first[:, 1:] = (ordered[:, :, 1:] != ordered[:, :, :-1]).any(axis=1)
    label_sorted = np.cumsum(first, axis=-1) - 1
    labels = np.empty(order.shape)
    labels[family[:, 0], order] = label_sorted
    tables = np.zeros(reps.shape)
    row, col = np.nonzero(first)
    tables[row, :, label_sorted[row, col]] = ordered[row, :, col]
    return _spectral_sum(basis, labels), tables, label_sorted[:, -1] + 1


def _vn_generator_stack(members, scales):
    """:func:`vn_generator` of k commuting families given as m member stacks
    (k, N, N) and their (m, k) scales: the uncertified generator matrices,
    tables and label counts of :func:`_generators`."""
    _require_commuting(members, scales)
    return _generators(*_joint_stack(members, scales, *_dense_solve(members[0], scales[0])))


def vn_generator(family) -> GeneratorResult:
    """Build one operator that generates a whole commuting family.

    Joint eigenspaces (distinct tuples of per-operator eigenvalues) are
    labeled 0, 1, 2, ... in lexicographic tuple order.  The generator has
    exactly those integer labels as spectrum, and each family member equals
    a relabeling of the generator through its returned table.
    """
    joint = simultaneous_diagonalize(family)
    matrix, tables, counts = _generators(joint.basis[None], joint.eigenvalue_lists[None])
    generator = certify_hermitian(Operator(matrix[0], joint.grid))
    labels = list(range(int(counts[0])))
    return GeneratorResult(generator, [float(label) for label in labels],
                           [dict(zip(labels, table[labels].tolist())) for table in tables[0]])


def _spectral_sum(basis: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``sum_k values[..., k] |basis_k><basis_k|`` of a basis or a stack, broadcast over leading axes."""
    return (basis * values[..., None, :]) @ np.swapaxes(basis.conj(), -1, -2)


def apply_function(dec: SpectralDecomposition, fn) -> Operator:
    """Spectral function calculus: sum of fn(eigenvalue) times eigenprojectors.

    ``fn`` may return TraceScalar, complex, or real values; non-finite
    results raise :class:`FunctionDomainError`.
    """
    values = np.array([complex(fn(lam)) for lam in dec.eigenvalues.tolist()], dtype=np.complex128)
    if not np.isfinite(values).all():
        raise FunctionDomainError("function produced non-finite values on the spectrum")
    return Operator(_spectral_sum(dec.basis, values), dec.grid)
