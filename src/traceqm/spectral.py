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
``recon`` checks rebuild thousands of small families.

An operator whose matrix has an exactly zero imaginary part is solved in
real arithmetic (the real symmetric LAPACK routine rather than the complex
hermitian one), which is several times faster and needs half the memory;
the conventions above and the complex128 ``basis`` are the same on both
paths, and in a stack each matrix takes the solver it would take alone.  A
:class:`~traceqm.operators.BandOperator` with real bands (the grid
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


def _group_tol(values: np.ndarray) -> np.ndarray:
    """Degenerate-group width of each ascending row of ``values`` (any leading stack axes).

    A range beyond float range is taken at half scale, exactly, and scaled back.
    """
    low, high = values[..., 0], values[..., -1]
    with np.errstate(over="ignore"):
        width = GROUP_TOL_FACTOR * (high - low)
    wide = np.isinf(width)
    if wide.any():
        width = np.where(wide, np.ldexp(GROUP_TOL_FACTOR * (np.ldexp(high, -1) - np.ldexp(low, -1)), 1), width)
    return np.maximum(width, values.shape[-1] * math.ulp(1.0) * np.maximum(-low, high))


def _breaks(values: np.ndarray, tol) -> np.ndarray:
    """Gap mask of ascending rows: True between adjacent values more than their row's ``tol`` apart.

    A gap beyond float range reads inf, which is a break."""
    with np.errstate(over="ignore"):
        return values[..., 1:] - values[..., :-1] > np.asarray(tol)[..., None]


def _bounds(breaks: np.ndarray) -> list[int]:
    """First index of every group of one row's gap mask, then the row's length."""
    return [0, *(np.flatnonzero(breaks) + 1).tolist(), breaks.size + 1]


def _cluster_sorted(values: np.ndarray, tol: float) -> tuple[tuple[int, ...], ...]:
    """Partition indices of an ascending float64 array into runs with adjacent gap <= tol."""
    bounds = _bounds(_breaks(values, tol))
    return tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:]))


def _tied_runs(breaks: np.ndarray) -> list[tuple[int, int, int]]:
    """``(row, start, stop)`` of every group of more than one index in a (k, N - 1) gap mask."""
    runs = []
    for row in np.flatnonzero(~breaks.all(axis=-1)).tolist():
        bounds = _bounds(breaks[row])
        runs.extend((row, a, b) for a, b in zip(bounds, bounds[1:]) if b - a > 1)
    return runs


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
    """Apply the phase convention in place to every column of a basis or a stack of bases."""
    rows = np.argmax(np.abs(basis) > PHASE_FLOOR, axis=-2)
    pivots = np.take_along_axis(basis, rows[..., None, :], axis=-2)
    # hypot, as abs() of one complex scalar computes it; np.abs on a complex
    # array takes a vectorized route that can differ in the last bit
    basis *= pivots.conj() / np.hypot(pivots.real, pivots.imag)
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


def _dense_solve(matrices: np.ndarray, scales: np.ndarray, vectors: bool = True):
    """Eigenvalues, and with ``vectors`` eigenvectors, of a certified hermitian (k, N, N) stack.

    Each matrix is solved as 2**-e A, with max|A| (its ``scales`` entry) in
    [0.5, 1), and its eigenvalues are scaled back exactly.  The matrices with
    an exactly zero imaginary part are solved together in real arithmetic,
    the rest together by the complex solver.  The eigenvectors come as
    ``[(rows, basis)]``: one part for each solver used, ``rows`` selecting
    its matrices and ``basis`` float64 or complex128 accordingly.
    """
    e = np.frexp(scales)[1]
    scaled = np.ldexp(matrices.view(np.float64), -e[:, None, None]).view(np.complex128)
    real = ~matrices.imag.any(axis=(1, 2))
    solver = np.linalg.eigh if vectors else np.linalg.eigvalsh
    values = np.empty(matrices.shape[:2])
    parts = []
    for rows, stack in ((real, scaled.real), (~real, scaled)):
        if rows.all():
            rows = slice(None)
        elif rows.any():
            stack = stack[rows]
        else:
            continue
        result = _solve(solver, stack)
        if vectors:
            values[rows], basis = result
            parts.append((rows, basis))
        else:
            values[rows] = result
    values = np.ldexp(values, e[:, None])
    return (values, parts) if vectors else values


def _hermitian_solve(a: HermitianOperator, caller: str, vectors: bool = True):
    """:func:`_dense_solve` of a certified hermitian ``a`` as a stack of one.

    A band operator with real bands is instead solved from its bands, at the
    same exact power-of-two scale.  Either way a matrix with any nonzero
    imaginary entry, however small, keeps the complex solver.  The scaling
    avoids LAPACK's own rescale of a norm outside about [1.5e-146, 6.7e145]
    by a factor that is not a power of two.
    """
    if not isinstance(a, HermitianOperator):
        raise InputError(f"{caller} needs a certified HermitianOperator")
    if not (isinstance(a, BandOperator) and not np.iscomplexobj(a.upper)):
        return _dense_solve(a.matrix[None], np.array([a.scale]), vectors)
    e = math.frexp(a.scale)[1]
    result = _band_solve(a, vectors, e)
    if not vectors:
        return np.ldexp(result, e)[None]
    return np.ldexp(result[0], e)[None], [(slice(None), result[1][None])]


def _canonical(values: np.ndarray, parts):
    """Group widths and canonical complex128 bases of a solved (k, N) stack."""
    tol = _group_tol(values)
    breaks = _breaks(values, tol)
    parts = [(rows, _canonicalize(basis, _tied_runs(breaks[rows]))) for rows, basis in parts]
    return tol, _complex_stack(parts, values.shape + values.shape[-1:])


def _eigendecompose_stack(matrices: np.ndarray, scales: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`eigendecompose` of every matrix of a certified hermitian (k, N, N)
    stack with max|A| ``scales``: the (k, N) eigenvalues and (k, N, N) bases."""
    values, parts = _dense_solve(matrices, scales)
    return values, _canonical(values, parts)[1]


def eigenvalues(a: HermitianOperator) -> np.ndarray:
    """Ascending eigenvalues of a certified hermitian operator, without eigenvectors."""
    return _hermitian_solve(a, "eigenvalues", vectors=False)[0]


def eigendecompose(a: HermitianOperator) -> SpectralDecomposition:
    """Decompose a certified hermitian operator with canonical conventions."""
    values, parts = _hermitian_solve(a, "eigendecompose")
    tol, basis = _canonical(values, parts)
    return SpectralDecomposition(values[0], basis[0], _cluster_sorted(values[0], tol[0]), tol[0], a.grid)


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
    worst_pair, worst = np.zeros((scales.shape[1], 2), dtype=int), np.zeros(scales.shape[1])
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            ai, aj = scaled[i], scaled[j]
            deviation = abs(ai @ aj - aj @ ai).max(axis=(1, 2))
            relative = np.divide(deviation, units[i] * units[j], out=np.zeros_like(deviation), where=deviation != 0)
            worse = relative > worst
            worst_pair[worse], worst[worse] = (i, j), relative[worse]
    return worst_pair, worst


def _require_commuting(members, scales):
    """Refuse the first of k families whose worst scaled commutator exceeds ``COMMUTE_TOL``."""
    pair, worst = _worst_commutator(members, scales)
    failed = np.flatnonzero(worst > COMMUTE_TOL)
    if failed.size:
        raise NotCommutingError(tuple(pair[failed[0]].tolist()), float(worst[failed[0]]))


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
            refined.extend((row, start + i, start + j)
                           for _, i, j in _tied_runs(_breaks(w, GROUP_TOL_FACTOR * 2.0 * unit[row])[None]))
        blocks = refined
    basis = _canonicalize(basis, blocks)
    lists = np.stack([np.einsum("kij,kij->kj", basis.conj(), a @ basis).real for a in members], axis=1)
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
    ordered = np.take_along_axis(values, order, axis=-1)
    flat = ordered.reshape(-1, ordered.shape[-1])
    # every index a singleton first, by _group_means' rule; then each larger cluster's mean
    means = flat + 0.0
    for row, a, b in _tied_runs(_breaks(flat, _group_tol(flat))):
        means[row, a:b] = _group_means(flat[row], [range(a, b)])[0]
    reps = np.empty_like(values)
    np.put_along_axis(reps, order, means.reshape(values.shape), axis=-1)
    return reps


def _generators(basis: np.ndarray, lists: np.ndarray):
    """Generator matrices (k, N, N), tables (k, m, N) and label counts (k,) of
    k joint decompositions; family f's labels are 0 .. counts[f] - 1, and
    ``tables[f, i, label]`` is member i's value on that label."""
    reps = _representatives(lists)
    # index columns in lexicographic order of their tuples, stably: each
    # distinct tuple's table entries come from its lowest index
    order = np.lexsort(reps.transpose(1, 0, 2)[::-1], axis=-1)
    ordered = np.take_along_axis(reps, order[:, None, :], axis=-1)
    first = np.ones(order.shape, dtype=bool)
    first[:, 1:] = (ordered[:, :, 1:] != ordered[:, :, :-1]).any(axis=1)
    label_sorted = np.cumsum(first, axis=-1) - 1
    labels = np.empty(order.shape)
    np.put_along_axis(labels, order, label_sorted, axis=-1)
    tables = np.zeros(reps.shape)
    row, col = np.nonzero(first)
    tables[row, :, label_sorted[row, col]] = ordered[row, :, col]
    generators = (basis * labels[:, None, :]) @ basis.conj().transpose(0, 2, 1)
    return generators, tables, label_sorted[:, -1] + 1


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


def _spectral_sum(basis: np.ndarray, values: np.ndarray, adjoint: np.ndarray) -> np.ndarray:
    """``sum_k values[k] |basis_k><basis_k|`` of a basis or a stack of bases with their adjoints."""
    return (basis * values[..., None, :]) @ adjoint


def apply_function(dec: SpectralDecomposition, fn) -> Operator:
    """Spectral function calculus: sum of fn(eigenvalue) times eigenprojectors.

    ``fn`` may return TraceScalar, complex, or real values; non-finite
    results raise :class:`FunctionDomainError`.
    """
    values = np.array([complex(fn(lam)) for lam in dec.eigenvalues.tolist()], dtype=np.complex128)
    if not np.isfinite(values).all():
        raise FunctionDomainError("function produced non-finite values on the spectrum")
    return Operator(_spectral_sum(dec.basis, values, dec._adjoint), dec.grid)
