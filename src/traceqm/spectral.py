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
group's representative eigenvalue is its mean (``_group_means``).

An operator whose matrix has an exactly zero imaginary part is solved in
real arithmetic (the real symmetric LAPACK routine rather than the complex
hermitian one), which is several times faster and needs half the memory;
the conventions above and the complex128 ``basis`` are the same on both
paths.  A :class:`~traceqm.operators.BandOperator` with real bands (the grid
position and kinetic Hamiltonian) is solved from its bands, never from its
dense complex matrix: up to ``STEMR_CROSSOVER`` points as the real dense
tridiagonal, by the same LAPACK routine and to the same bytes as its
matrix's real part; above it by scipy's ``eigh_tridiagonal`` with LAPACK
``?stemr`` (Dhillon and Parlett's MRRR), in O(N^2) work instead of O(N^3).
scipy is imported only there, so smaller grids never load it.  Each path
refuses, before allocating, an operator whose working set would not fit
in physical memory.  :func:`eigendecompose`, :func:`eigenvalues` and the
first member of :func:`simultaneous_diagonalize` all take this one rule
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

import math
from collections import OrderedDict
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, FunctionDomainError, InputError, NotCommutingError
from .operators import BandOperator, HermitianOperator, Operator, _require_fits, certify_hermitian
from .states import GridMeta, StateVector, _orthonormal_rows, _require_same_space, _weight

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

#: bound on max|AB - BA| / (max|A| * max|B|) for every pair of a commuting family.
COMMUTE_TOL = 1e-8

#: real band operators of more points than this are solved by ``?stemr`` on
#: their bands; up to it the dense solve of their real tridiagonal costs less
#: than ``?stemr`` plus a cold scipy import (0.37 s).  Measured on 2 cores,
#: best of 3, eigendecompose's solve and canonicalization, dense against
#: ``?stemr``: 0.38 / 0.19 s at N = 1280, 0.60 / 0.23 s at 1536 and
#: 0.88 / 0.32 s at 1792.
STEMR_CROSSOVER = 1536

#: bytes per matrix entry alive at once while a real band operator is solved
#: densely: the real tridiagonal, LAPACK's copy of it, the 2N^2-entry
#: workspace of ``?syevd`` and the eigenvectors.
DENSE_BAND_BYTES_PER_ENTRY = 8 + 8 + 16 + 8

#: bytes per matrix entry alive at once while a real band operator is
#: decomposed by ``?stemr``: the real eigenvectors and their complex128 copy.
STEMR_BYTES_PER_ENTRY = 8 + 16


def _group_tol(values: np.ndarray) -> float:
    low, high = float(values[0]), float(values[-1])
    return max(GROUP_TOL_FACTOR * (high - low), values.size * math.ulp(1.0) * max(-low, high))


def _cluster_sorted(values: np.ndarray, tol: float) -> tuple[tuple[int, ...], ...]:
    """Partition indices of an ascending float64 array into runs with adjacent gap <= tol."""
    values = values.tolist()  # float64 arithmetic without numpy's per-element overhead
    groups = []
    current = [0]
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > tol:
            groups.append(tuple(current))
            current = [i]
        else:
            current.append(i)
    groups.append(tuple(current))
    return tuple(groups)


def _group_means(values: np.ndarray, groups) -> tuple[float, ...]:
    """Mean of ``values`` over each index group, the representative of a degenerate cluster.

    A singleton's is its value plus 0.0, bit for bit ``np.mean``'s (whose sum
    starts from +0.0, so -0.0 reads 0.0), without the reduction."""
    return tuple(float(values[group[0]]) + 0.0 if len(group) == 1 else float(np.mean(values[list(group)]))
                 for group in groups)


def _orthonormalize_block(cols: np.ndarray) -> np.ndarray:
    """Reorder near-orthonormal columns by dominant component index, then re-orthonormalize."""
    dominant = [int(np.argmax(np.abs(cols[:, j]))) for j in range(cols.shape[1])]
    return _orthonormal_rows(cols[:, np.argsort(dominant, kind="stable")].T).T


def _phase_fix(basis: np.ndarray) -> np.ndarray:
    rows = np.argmax(np.abs(basis) > PHASE_FLOOR, axis=0)
    pivots = basis[rows, np.arange(basis.shape[1])]
    # hypot, as abs() of one complex scalar computes it; np.abs on a complex
    # array takes a vectorized route that can differ in the last bit
    basis *= pivots.conj() / np.hypot(pivots.real, pivots.imag)
    return basis


def _canonicalize(basis: np.ndarray, groups) -> np.ndarray:
    """Apply the module's basis conventions in place: every degenerate group
    is reordered and re-orthonormalized, then every column's phase is fixed."""
    for group in groups:
        if len(group) > 1:
            idx = list(group)
            basis[:, idx] = _orthonormalize_block(basis[:, idx])
    return _phase_fix(basis)


class SpectralDecomposition:
    """Canonical eigendecomposition of one hermitian operator.

    ``basis`` holds orthonormal eigenvector columns in the plain (unweighted)
    sense; the ``eigenvectors`` property rescales them into unit-norm
    :class:`StateVector` objects under the grid weight when one is bound.
    ``groups`` partitions the index range into degenerate clusters.
    """

    def __init__(self, eigenvalues, basis, groups, group_tol, grid: GridMeta | None = None):
        eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
        basis = np.asarray(basis, dtype=np.complex128)
        eigenvalues.setflags(write=False)
        basis.setflags(write=False)
        self.eigenvalues = eigenvalues
        self.basis = basis
        self.groups = tuple(tuple(int(i) for i in g) for g in groups)
        self.group_tol = float(group_tol)
        self.grid = grid

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def eigenvector(self, k: int) -> StateVector:
        """``eigenvectors[k]`` alone, without building the other states."""
        return StateVector(self.basis[:, k] * (1.0 / np.sqrt(_weight(self.grid))), self.grid)

    @cached_property
    def eigenvectors(self) -> list[StateVector]:
        return [self.eigenvector(k) for k in range(self.dim)]

    # The caches below are lazy: most decompositions are never sampled.

    @cached_property
    def _adjoint(self) -> np.ndarray:
        return self.basis.conj().T

    @cached_property
    def _memo(self) -> OrderedDict:
        """The Born path's remembered results, oldest first (see ``measurement.MEMO_ENTRIES``)."""
        return OrderedDict()

    #: the Born path's last looked-up state, with its memo key and entry
    _last_state = None

    @cached_property
    def group_starts(self) -> np.ndarray:
        """First index of each degenerate group, for ``np.add.reduceat``.

        Groups are consecutive runs of the ascending index range, so these
        starts delimit them completely.
        """
        return np.array([group[0] for group in self.groups], dtype=np.intp)

    @cached_property
    def _group_values(self) -> tuple[float, ...]:
        return _group_means(self.eigenvalues, self.groups)

    def amplitudes(self, state: StateVector) -> np.ndarray:
        """Inner products of every eigenvector with ``state`` (grid weight included)."""
        _require_same_space(self, state, "decomposition and state")
        return np.sqrt(_weight(self.grid)) * (self._adjoint @ state.coeffs)

    def group_eigenvalue(self, g: int) -> float:
        """Representative eigenvalue (mean) of degenerate group ``g``."""
        return self._group_values[g]

    def __repr__(self):
        return f"<SpectralDecomposition dim={self.dim} groups={len(self.groups)}>"


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
    """Run a LAPACK hermitian solver, reporting non-convergence as :class:`ConvergenceError`."""
    try:
        return solver(matrix)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration failed: {exc}") from exc


def _band_eigenbasis_bytes(n: int) -> int:
    """Bytes alive at once while a real band operator of ``n`` points is decomposed."""
    return (DENSE_BAND_BYTES_PER_ENTRY if n <= STEMR_CROSSOVER else STEMR_BYTES_PER_ENTRY) * n * n


def _band_solve(a: BandOperator, vectors: bool, e: int):
    """Solve a band operator with real bands, scaled by 2**-e, from its bands (see the module notes)."""
    n = a.dim
    if vectors or n <= STEMR_CROSSOVER:
        _require_fits(a.grid, _band_eigenbasis_bytes(n), f"solving its {n}x{n} tridiagonal")
    a = BandOperator(np.ldexp(a.diagonal, -e), np.ldexp(a.upper, -e), a.grid)
    if n <= STEMR_CROSSOVER:
        return _solve(np.linalg.eigh if vectors else np.linalg.eigvalsh, a._dense(np.float64))
    # scipy costs a fresh interpreter about 0.3 s to import: only grids this
    # large pay it
    from scipy.linalg import eigh_tridiagonal

    return _solve(lambda d: eigh_tridiagonal(d, a.upper, eigvals_only=not vectors, lapack_driver="stemr"),
                  a.diagonal)


def _hermitian_solve(a: HermitianOperator, caller: str, vectors: bool = True):
    """Eigenvalues, and with ``vectors`` eigenvectors, of a certified hermitian ``a``.

    A band operator with real bands is solved from its bands.  Any other is
    solved in real arithmetic when its imaginary part is exactly zero, so a
    matrix with any nonzero imaginary entry, however small, keeps the
    complex solver.  Both solve 2**-e A, with max|A| in [0.5, 1), and scale the
    eigenvalues back, exactly, where LAPACK would rescale a norm outside about
    [1.5e-146, 6.7e145] by a factor that is not a power of two.
    """
    if not isinstance(a, HermitianOperator):
        raise InputError(f"{caller} needs a certified HermitianOperator")
    e = math.frexp(a.scale)[1]
    if isinstance(a, BandOperator) and not np.iscomplexobj(a.upper):
        result = _band_solve(a, vectors, e)
    else:
        scaled = np.ldexp(a.matrix.view(np.float64), -e).view(np.complex128)
        result = _solve(np.linalg.eigh if vectors else np.linalg.eigvalsh,
                        scaled.real if not a.matrix.imag.any() else scaled)
    return (np.ldexp(result[0], e), result[1]) if vectors else np.ldexp(result, e)


def eigenvalues(a: HermitianOperator) -> np.ndarray:
    """Ascending eigenvalues of a certified hermitian operator, without eigenvectors."""
    return _hermitian_solve(a, "eigenvalues", vectors=False)


def eigendecompose(a: HermitianOperator) -> SpectralDecomposition:
    """Decompose a certified hermitian operator with canonical conventions."""
    values, basis = _hermitian_solve(a, "eigendecompose")
    tol = _group_tol(values)
    groups = _cluster_sorted(values, tol)
    return SpectralDecomposition(values, _canonicalize(basis, groups), groups, tol, a.grid)


def verify_dispersion_free(dec: SpectralDecomposition, a: HermitianOperator) -> float:
    """Worst spread of ``a`` over the basis vectors of ``dec``.

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
    images = a.matrix @ dec.basis
    first = np.einsum("ij,ij->j", dec.basis.conj(), images).real
    # centered residual (A - <A>_k) u_k: algebraically the dispersion, but
    # free of the sqrt(eps)*|eigenvalue| cancellation noise of <A^2> - <A>^2
    centered = images - dec.basis * first
    return float(np.max(np.linalg.norm(centered, axis=0)))


def _worst_commutator(family) -> tuple[tuple[int, int], float]:
    # each member scaled exactly into [0.5, 1), so no product overflows or underflows
    units = [math.frexp(a.scale) for a in family]
    scaled = [np.ldexp(a.matrix.view(np.float64), -e).view(np.complex128) for a, (_, e) in zip(family, units)]
    worst_pair, worst = (0, 0), 0.0
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            ai, aj = scaled[i], scaled[j]
            deviation = float(abs(ai @ aj - aj @ ai).max())
            relative = deviation / (units[i][0] * units[j][0]) if deviation else 0.0
            if relative > worst:
                worst_pair, worst = (i, j), relative
    return worst_pair, worst


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
    _, worst = _worst_commutator(family)
    return worst <= COMMUTE_TOL


def simultaneous_diagonalize(family) -> JointDecomposition:
    """Common eigenbasis of a commuting family by sequential refinement.

    The first operator is diagonalized outright; every further operator is
    re-diagonalized inside the still-degenerate blocks.  The basis therefore
    ascends lexicographically in the tuple of eigenvalues, and inherits the
    canonical phase convention.
    """
    family = _check_family(family)
    pair, worst = _worst_commutator(family)
    if worst > COMMUTE_TOL:
        raise NotCommutingError(pair, worst)

    first = family[0]
    values, basis = _hermitian_solve(first, "simultaneous_diagonalize")
    # complex, so a later member's rotation inside a degenerate block keeps its imaginary part
    basis = basis.astype(np.complex128, copy=False)
    blocks = _cluster_sorted(values, _group_tol(values))

    for a in family[1:]:
        refined: list[tuple[int, ...]] = []
        unit, e = math.frexp(a.scale)
        scale_tol = GROUP_TOL_FACTOR * 2.0 * unit
        for block in blocks:
            if len(block) == 1:
                refined.append(block)
                continue
            idx = list(block)
            sub = basis[:, idx]
            # compressed, as the first member is solved, scaled exactly by 2**-e: max|A| in [0.5, 1)
            m = sub.conj().T @ np.ldexp(a.matrix.view(np.float64), -e).view(np.complex128) @ sub
            m = (m + m.conj().T) / 2.0
            w, s = _solve(np.linalg.eigh, m)
            basis[:, idx] = sub @ s
            for sub_block in _cluster_sorted(w, scale_tol):
                refined.append(tuple(idx[t] for t in sub_block))
        blocks = refined

    basis = _canonicalize(basis, blocks)

    lists = np.empty((len(family), first.dim), dtype=np.float64)
    for i, a in enumerate(family):
        lists[i] = np.einsum("ij,ij->j", basis.conj(), a.matrix @ basis).real
    return JointDecomposition(basis, lists, first.grid)


def _representatives(values: np.ndarray) -> np.ndarray:
    """Snap a list of eigenvalues to cluster representatives (cluster means)."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    clusters = _cluster_sorted(ordered, _group_tol(ordered))
    reps = np.empty_like(values)
    for cluster, mean in zip(clusters, _group_means(ordered, clusters)):
        reps[order[list(cluster)]] = mean
    return reps


def vn_generator(family) -> GeneratorResult:
    """Build one operator that generates a whole commuting family.

    Joint eigenspaces (distinct tuples of per-operator eigenvalues) are
    labeled 0, 1, 2, ... in lexicographic tuple order.  The generator has
    exactly those integer labels as spectrum, and each family member equals
    a relabeling of the generator through its returned table.
    """
    joint = simultaneous_diagonalize(family)
    reps = np.array([_representatives(joint.eigenvalue_lists[i]) for i in range(len(joint.eigenvalue_lists))])
    tuples = list(zip(*reps.tolist()))
    distinct = sorted(set(tuples))
    label_of = {t: float(i) for i, t in enumerate(distinct)}
    label_per_index = np.array([label_of[t] for t in tuples], dtype=np.float64)

    matrix = (joint.basis * label_per_index) @ joint.basis.conj().T
    generator = certify_hermitian(Operator(matrix, joint.grid))
    tables = [{label: float(t[i]) for label, t in enumerate(distinct)} for i in range(reps.shape[0])]
    labels = [float(i) for i in range(len(distinct))]
    return GeneratorResult(generator, labels, tables)


def apply_function(dec: SpectralDecomposition, fn) -> Operator:
    """Spectral function calculus: sum of fn(eigenvalue) times eigenprojectors.

    ``fn`` may return TraceScalar, complex, or real values; non-finite
    results raise :class:`FunctionDomainError`.
    """
    values = np.array([complex(fn(lam)) for lam in dec.eigenvalues.tolist()], dtype=np.complex128)
    if not np.isfinite(values).all():
        raise FunctionDomainError("function produced non-finite values on the spectrum")
    matrix = (dec.basis * values) @ dec._adjoint
    return Operator(matrix, dec.grid)
