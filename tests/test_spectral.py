"""Spectral engine: decomposition, commuting families, single generator."""

import gc
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceqm import experiments, operators, spectral
from traceqm import (
    BandOperator,
    ConvergenceError,
    FunctionDomainError,
    GridError,
    GridMeta,
    HermitianOperator,
    IMAG_UNIT,
    InputError,
    NotCommutingError,
    NotHermitianError,
    NumericalError,
    Operator,
    SpectralDecomposition,
    StateVector,
    TraceScalar,
    apply_function,
    av_decompose,
    build_grid_model,
    certify_hermitian,
    commute_check,
    complex_inner,
    eigendecompose,
    eigenvalues,
    expect_r,
    grid_hamiltonian,
    minimal_poly_residual,
    normalize,
    simultaneous_diagonalize,
    trace,
    verify_dispersion_free,
    vn_generator,
)
from traceqm.spectral import PHASE_FLOOR, _group_means, _phase_fix

SEED = 4404
EPS = np.finfo(np.float64).eps
EIG_RESIDUAL_TOL = 1e-9
ORTH_TOL = 1e-9
RECON_TOL = 1e-8

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return certify_hermitian((m + m.conj().T) / 2.0)


def random_real_symmetric(rng, dim):
    m = rng.standard_normal((dim, dim))
    return certify_hermitian((m + m.T) / 2.0)


def random_commuting_family(rng, dim, count):
    """Polynomials of one random hermitian commute exactly in exact arithmetic."""
    base = random_hermitian(rng, dim)
    # rescale so powers stay O(1) and roundoff in the products stays tame
    base = certify_hermitian(base.matrix / (1.0 + np.linalg.norm(base.matrix, 2)))
    family = []
    for k in range(count):
        coeffs = rng.uniform(-1.0, 1.0, size=3)
        m = coeffs[0] * np.eye(dim) + coeffs[1] * base.matrix
        m = m + coeffs[2] * (base.matrix @ base.matrix)
        family.append(certify_hermitian(m))
    return family


# ---------------------------------------------------------------- eigendecompose


def test_diagonal_matrix_sorted_ascending():
    dec = eigendecompose(certify_hermitian(np.diag([3.0, 1.0, 2.0])))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 2.0, 3.0])
    # eigenvectors are the standard basis vectors, permuted to match
    expected_cols = np.eye(3)[:, [1, 2, 0]]
    np.testing.assert_allclose(dec.basis, expected_cols, atol=1e-14)


def test_pauli_x_closed_form():
    dec = eigendecompose(certify_hermitian(PAULI_X))
    np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)
    r = 2.0 ** -0.5
    np.testing.assert_allclose(dec.basis[:, 0], [r, -r], atol=1e-14)
    np.testing.assert_allclose(dec.basis[:, 1], [r, r], atol=1e-14)


def test_rejects_uncertified_input():
    with pytest.raises(InputError):
        eigendecompose(Operator(PAULI_X))
    with pytest.raises(InputError):
        eigenvalues(Operator(PAULI_X))


def test_eigen_residual_orthonormality_reconstruction():
    """Core decomposition invariants on random matrices up to dim 64."""
    rng = np.random.default_rng(SEED)
    for trial in range(30):
        dim = int(rng.integers(2, 65))
        a = random_hermitian(rng, dim)
        dec = eigendecompose(a)
        scale = 1.0 + float(np.max(np.abs(dec.eigenvalues)))
        residual = a.matrix @ dec.basis - dec.basis * dec.eigenvalues
        assert float(np.max(np.abs(residual))) <= EIG_RESIDUAL_TOL * scale
        gram = dec.basis.conj().T @ dec.basis
        assert float(np.max(np.abs(gram - np.eye(dim)))) <= ORTH_TOL
        rebuilt = (dec.basis * dec.eigenvalues) @ dec.basis.conj().T
        assert float(np.max(np.abs(rebuilt - a.matrix))) <= RECON_TOL * scale


def test_eigenvalues_always_ascending():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(20):
        a = random_hermitian(rng, 10)
        dec = eigendecompose(a)
        assert np.all(np.diff(dec.eigenvalues) >= 0.0)


def test_phase_convention_first_large_component_positive():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(20):
        dec = eigendecompose(random_hermitian(rng, 8))
        for k in range(8):
            col = dec.basis[:, k]
            lead = col[np.abs(col) > 1e-8][0]
            assert lead.imag == pytest.approx(0.0, abs=1e-12)
            assert lead.real > 0.0


def test_decomposition_is_deterministic():
    rng = np.random.default_rng(SEED + 3)
    a = random_hermitian(rng, 12)
    d1 = eigendecompose(a)
    d2 = eigendecompose(certify_hermitian(a.matrix.copy()))
    np.testing.assert_array_equal(d1.eigenvalues, d2.eigenvalues)
    np.testing.assert_array_equal(d1.basis, d2.basis)
    assert d1.groups == d2.groups


def test_degenerate_grouping():
    a = certify_hermitian(np.diag([1.0, 1.0, 2.0, 5.0, 5.0, 5.0]))
    dec = eigendecompose(a)
    assert dec.groups == ((0, 1), (2,), (3, 4, 5))


def test_grouping_separates_beyond_tolerance():
    # split of 1e-3 is genuine structure, not roundoff
    a = certify_hermitian(np.diag([1.0, 1.0 + 1e-3, 2.0]))
    dec = eigendecompose(a)
    assert dec.groups == ((0,), (1,), (2,))


def test_groups_are_the_ranges_of_read_only_bounds():
    dec = eigendecompose(certify_hermitian(np.diag([1.0, 1.0, 2.0, 5.0, 5.0, 5.0])))
    assert dec.bounds.dtype == np.intp and dec.bounds.tolist() == [0, 2, 3, 6]
    bounds = dec.bounds.tolist()
    assert dec.groups == tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:]))
    assert all(type(i) is int for group in dec.groups for i in group)
    with pytest.raises(ValueError):  # read-only
        dec.bounds[1] = 1
    # the constructor holds its own read-only copy of the bounds it is given
    given_bounds = np.array([0, 1, 3, 6])
    copy = SpectralDecomposition(dec.eigenvalues, dec.basis, given_bounds, dec.group_tol)
    given_bounds[1] = 2
    assert copy.groups == ((0,), (1, 2), (3, 4, 5)) and not copy.bounds.flags.writeable


@pytest.mark.parametrize("bounds", [
    ((0,), (1,), (2,)),  # index tuples, the constructor's former third argument
    np.array([6, 3, 2, 0]),  # descending
    [0, 2, 5],  # ends short of the dimension
    [[0, 2], [3, 6]],  # 2-D
    [[0], [2, 3, 6]],  # ragged
    [0.0, 3.0, 6.0],  # not integral
    [0, 3, 3, 6],  # an empty group
    [],
])
def test_constructor_refuses_what_does_not_partition(bounds):
    dec = eigendecompose(certify_hermitian(np.diag([1.0, 1.0, 2.0, 5.0, 5.0, 5.0])))
    with pytest.raises(InputError, match="ascending strictly from 0 to the dimension 6"):
        SpectralDecomposition(dec.eigenvalues, dec.basis, bounds, dec.group_tol)


def test_amplitudes_resolve_unit_mass():
    # completeness: squared projections of any normalized state sum to one
    rng = np.random.default_rng(SEED + 4)
    for _ in range(20):
        dim = int(rng.integers(2, 20))
        dec = eigendecompose(random_hermitian(rng, dim))
        c = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi = normalize(StateVector(c))
        amps = dec.amplitudes(psi)
        assert float(np.sum(np.abs(amps) ** 2)) == pytest.approx(1.0, abs=1e-10)


def test_grid_bound_eigenvectors_unit_grid_norm():
    g = GridMeta(length=3.0, npoints=24)
    rng = np.random.default_rng(SEED + 5)
    m = rng.standard_normal((24, 24))
    a = certify_hermitian((m + m.T) / 2.0, grid=g)
    dec = eigendecompose(a)
    for vec in dec.eigenvectors[:4]:
        assert vec.grid is g
        assert vec.norm() == pytest.approx(1.0, abs=1e-12)


def test_single_eigenvector_bit_identical_to_the_list():
    g = GridMeta(length=3.0, npoints=24)
    rng = np.random.default_rng(SEED + 6)
    m = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    for grid in (g, None):
        dec = eigendecompose(certify_hermitian((m + m.conj().T) / 2.0, grid=grid))
        for k in (0, 5, 23):
            single = dec.eigenvector(k)
            assert single.grid is grid
            assert single.coeffs.tobytes() == dec.eigenvectors[k].coeffs.tobytes()


# ---------------------------------------------------------------- real-symmetric path


def loop_phase_fix(basis):
    """Per-column phase rule, the reference the vectorized rule must reproduce."""
    for k in range(basis.shape[1]):
        col = basis[:, k]
        pivot = col[int(np.argmax(np.abs(col) > PHASE_FLOOR))]
        basis[:, k] = col * (pivot.conjugate() / abs(pivot))
    return basis


def test_phase_fix_is_bit_identical_to_per_column_loop():
    rng = np.random.default_rng(SEED + 40)
    for trial in range(20):
        shape = (int(rng.integers(2, 40)), int(rng.integers(1, 40)))
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        complex_basis = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        real_basis = scale * rng.standard_normal(shape)
        leading_zeros = complex_basis.copy()
        leading_zeros[: shape[0] // 2] = 0.0
        leading_zeros[shape[0] // 2, ::2] = 0.5 * PHASE_FLOOR  # nonzero, too small to anchor
        for basis in (complex_basis, real_basis, leading_zeros, leading_zeros.real.copy()):
            fixed = _phase_fix(basis.copy())
            expected = loop_phase_fix(basis.copy())
            assert fixed.dtype == expected.dtype
            assert fixed.tobytes() == expected.tobytes()
    # stacks whose anchors lie past the first block of PHASE_SCAN_ROWS rows, and a column with no
    # entry above the floor (anchored at row 0, a nonzero entry)
    shape = (2, 3 * spectral.PHASE_SCAN_ROWS + 5, 40)
    for basis in (rng.standard_normal(shape), rng.standard_normal(shape) + 1j * rng.standard_normal(shape)):
        leading = np.arange(shape[1])[:, None] < rng.integers(0, shape[1], size=(2, 1, shape[2]))
        basis[leading] = np.where(rng.random(np.count_nonzero(leading)) < 0.5, 0.0, 0.5 * PHASE_FLOOR)
        basis[:, :, 0] = 0.5 * PHASE_FLOOR
        assert _phase_fix(basis.copy()).tobytes() == np.stack([loop_phase_fix(item.copy()) for item in basis]).tobytes()


def assert_real_sign_rule_is_the_phase_rule(vectors):
    """The phase rule on a real basis, a sign flip per column, gives the bytes of the rule's factor
    conj(p)/|p| formed in real arithmetic, where it is exactly +1 or -1.  On the basis's complex copy
    the complex rule gives the same values to within one unit in the last place, and no imaginary
    part: numpy divides a complex number by multiplying with the divisor's reciprocal, so its
    factor p * (1/|p|) can miss +1 or -1 by an ulp."""
    pivots = vectors[np.argmax(np.abs(vectors) > PHASE_FLOOR, axis=0), np.arange(vectors.shape[1])]
    factors = pivots.conj() / np.hypot(pivots.real, pivots.imag)
    assert np.array_equal(np.abs(factors), np.ones_like(factors))
    real = _phase_fix(vectors.copy())
    assert real.dtype == np.float64 and real.tobytes() == (vectors * factors).tobytes()
    complex_ = _phase_fix(vectors.astype(np.complex128))
    assert not complex_.imag.any()
    assert np.all(np.abs(complex_.real - real) <= EPS * np.abs(real))


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
def test_real_sign_rule_is_the_phase_rule_in_real_arithmetic(dim, seed):
    m = np.random.default_rng(seed).standard_normal((dim, dim))
    assert_real_sign_rule_is_the_phase_rule(np.linalg.eigh(m + m.T)[1])


@pytest.mark.parametrize("npoints", [128, 513, 1600])  # 513: zeros in the centre row; 1600: ?stevd
def test_real_sign_rule_is_the_phase_rule_in_real_arithmetic_on_the_grid_hamiltonian(npoints):
    _, ((_, vectors),) = spectral._hermitian_solve(grid_hamiltonian(GridMeta(length=1.0, npoints=npoints)), "test")
    assert_real_sign_rule_is_the_phase_rule(vectors[0])


def test_real_decomposition_keeps_its_real_basis_and_builds_the_complex_one_once_on_demand():
    dec = eigendecompose(grid_hamiltonian(GridMeta(length=1.0, npoints=64)))
    assert dec._basis.dtype == np.float64 and not dec._basis.flags.writeable
    assert "basis" not in vars(dec)  # not built by the decomposition or its state reads
    dec.amplitudes(dec.eigenvector(3))
    assert "basis" not in vars(dec)
    assert dec.basis is dec.basis and not dec.basis.flags.writeable
    assert dec.basis.dtype == np.complex128 and not dec.basis.imag.any()
    assert np.ascontiguousarray(dec.basis.real).tobytes() == dec._basis.tobytes()
    complex_dec = eigendecompose(random_hermitian(np.random.default_rng(SEED + 44), 5))
    assert complex_dec.basis is complex_dec._basis


def test_real_path_matches_complex_path():
    """Real and complex LAPACK agree on a real matrix to backward-stable roundoff.

    Eigenvalues differ by at most n*eps*|A|; an eigenvector moves by at most
    that over the gap to its neighbours, once both carry the phase rule.
    """
    rng = np.random.default_rng(SEED + 41)
    for dim in (2, 5, 17, 40, 64):
        a = random_real_symmetric(rng, dim)
        dec = eigendecompose(a)
        values, basis = np.linalg.eigh(a.matrix)  # complex128 input: the complex solver
        basis = _phase_fix(basis)
        norm = float(np.linalg.norm(a.matrix, 2))
        gap = float(np.min(np.diff(values)))
        assert dec.basis.dtype == np.complex128 and not dec.basis.imag.any()
        assert float(np.max(np.abs(dec.eigenvalues - values))) <= dim * EPS * norm
        assert float(np.max(np.abs(dec.basis - basis))) <= dim * EPS * norm / gap


def test_real_path_keeps_degenerate_groups_in_dominant_index_order():
    rng = np.random.default_rng(SEED + 42)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    m = (q * np.array([1.0, 1.0, 1.0, 2.0, 2.0, 3.0])) @ q.T
    dec = eigendecompose(certify_hermitian((m + m.T) / 2.0))
    assert dec.groups == ((0, 1, 2), (3, 4), (5,))
    for group in dec.groups:
        cols = dec.basis[:, list(group)]
        dominant = np.argmax(np.abs(cols), axis=0)
        assert list(dominant) == sorted(dominant)
        exact = q[:, list(group)]
        np.testing.assert_allclose(cols @ cols.conj().T, exact @ exact.T, atol=1e-12)


def test_tiny_imaginary_part_keeps_complex_path(monkeypatch):
    seen = []

    def spy(name):
        solver = getattr(np.linalg, name)

        def recorded(matrix):
            seen.append((name, matrix.shape, matrix.dtype))
            return solver(matrix)
        return recorded

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, spy(name))
    nearly_real = PAULI_X.astype(np.complex128)
    nearly_real[0, 1] += 1e-20j
    nearly_real[1, 0] -= 1e-20j
    for matrix in (nearly_real, PAULI_X):
        a = certify_hermitian(matrix)
        eigendecompose(a)
        eigenvalues(a)
    # PAULI_X's real path is one whole 2 x 2 solve
    assert seen == [
        ("eigh", (1, 2, 2), np.complex128), ("eigvalsh", (1, 2, 2), np.complex128),
        ("eigh", (1, 2, 2), np.float64), ("eigvalsh", (1, 2, 2), np.float64),
    ]


def test_eigenvalues_match_eigendecompose():
    """Both routes are backward stable, so they agree within n*eps*|A|."""
    rng = np.random.default_rng(SEED + 43)
    for make in (random_hermitian, random_real_symmetric):
        for dim in (2, 9, 33):
            a = make(rng, dim)
            values = eigenvalues(a)
            assert np.all(np.diff(values) >= 0.0)
            tol = dim * EPS * float(np.linalg.norm(a.matrix, 2))
            assert float(np.max(np.abs(values - eigendecompose(a).eigenvalues))) <= tol


# ---------------------------------------------------------------- dispersion-free


def test_dispersion_free_diagonal_is_zero():
    dec = eigendecompose(certify_hermitian(np.diag([4.0, -1.0, 0.5])))
    a = certify_hermitian(np.diag([4.0, -1.0, 0.5]))
    assert verify_dispersion_free(dec, a) <= 1e-14


def test_dispersion_free_pauli_x():
    a = certify_hermitian(PAULI_X)
    assert verify_dispersion_free(eigendecompose(a), a) <= 1e-12


def test_dispersion_free_random_meets_relative_bound():
    rng = np.random.default_rng(SEED + 6)
    for _ in range(25):
        dim = int(rng.integers(2, 65))
        a = random_hermitian(rng, dim)
        dec = eigendecompose(a)
        worst = verify_dispersion_free(dec, a)
        scale = np.sqrt(1.0 + float(np.linalg.norm(a.matrix, 2)) ** 2)
        assert worst <= 1e-8 * scale


def test_dispersion_free_check_centres_in_place():
    """verify_dispersion_free on the N = 512 grid Hamiltonian holds two N x N
    complex arrays at its peak, the product A U and one temporary of the
    centring, plus one numpy ufunc buffer and O(N) vectors: the residuals are
    formed in the product, not in new arrays."""
    npoints = 512
    hamiltonian = grid_hamiltonian(GridMeta(length=1.0, npoints=npoints))
    dec = eigendecompose(hamiltonian)
    verify_dispersion_free(dec, hamiltonian)  # the dense matrix, the basis and the imports outside the trace
    tracemalloc.start()
    try:
        verify_dispersion_free(dec, hamiltonian)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    entry = operators.COMPLEX_ENTRY_BYTES
    assert peak <= 2 * entry * npoints**2 + entry * np.getbufsize() + 64 * npoints


def test_dispersion_free_rejects_mismatched_pair():
    a = certify_hermitian(np.diag([1.0, 2.0]))
    b = certify_hermitian(np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(InputError):
        verify_dispersion_free(eigendecompose(a), b)


# ---------------------------------------------------------------- commuting families


def test_commute_check_basic():
    d1 = certify_hermitian(np.diag([1.0, 2.0]))
    d2 = certify_hermitian(np.diag([5.0, -3.0]))
    assert commute_check([d1, d2])
    x = certify_hermitian(PAULI_X)
    y = certify_hermitian(np.array([[0.0, -1j], [1j, 0.0]]))
    assert not commute_check([x, y])


def test_commute_check_polynomial_family():
    rng = np.random.default_rng(SEED + 7)
    a = random_hermitian(rng, 6)
    sq = certify_hermitian(a.matrix @ a.matrix)
    cube = certify_hermitian(a.matrix @ a.matrix @ a.matrix)
    assert commute_check([a, sq, cube])


def test_simultaneous_diagonalize_canned_pair():
    a = certify_hermitian(np.diag([1.0, 1.0, 2.0]))
    b = certify_hermitian(np.diag([3.0, 4.0, 4.0]))
    joint = simultaneous_diagonalize([a, b])
    np.testing.assert_allclose(np.abs(joint.basis), np.eye(3), atol=1e-12)
    np.testing.assert_allclose(joint.eigenvalue_lists[0], [1.0, 1.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(joint.eigenvalue_lists[1], [3.0, 4.0, 4.0], atol=1e-12)


def test_simultaneous_diagonalize_shared_pauli_basis():
    a = certify_hermitian(PAULI_X)
    sq = certify_hermitian(PAULI_X @ PAULI_X)
    joint = simultaneous_diagonalize([a, sq])
    r = 2.0 ** -0.5
    for k in range(2):
        col = joint.basis[:, k]
        assert abs(abs(col[0]) - r) <= 1e-12
        assert abs(abs(col[1]) - r) <= 1e-12


def test_simultaneous_diagonalize_rejects_noncommuting():
    x = certify_hermitian(PAULI_X)
    z = certify_hermitian(PAULI_Z)
    with pytest.raises(NotCommutingError) as exc:
        simultaneous_diagonalize([x, z])
    assert exc.value.pair == (0, 1)
    assert exc.value.deviation > 0.0


def test_simultaneous_diagonalize_common_eigenvectors():
    """Every basis column is an eigenvector of every family member."""
    rng = np.random.default_rng(SEED + 8)
    for _ in range(10):
        dim = int(rng.integers(3, 17))
        family = random_commuting_family(rng, dim, 3)
        joint = simultaneous_diagonalize(family)
        for i, op in enumerate(family):
            lam = joint.eigenvalue_lists[i]
            residual = op.matrix @ joint.basis - joint.basis * lam
            scale = 1.0 + float(np.max(np.abs(op.matrix)))
            assert float(np.max(np.abs(residual))) <= 1e-8 * scale
        gram = joint.basis.conj().T @ joint.basis
        assert float(np.max(np.abs(gram - np.eye(dim)))) <= ORTH_TOL


def test_simultaneous_diagonalize_complex_member_mixes_a_real_degenerate_block():
    """A real first member takes the real solver; the complex member's rotation
    inside its degenerate block must keep its imaginary part."""
    first = certify_hermitian(np.diag([1.0, 1.0, 2.0]))
    second = certify_hermitian(np.array([[0.0, 1j, 0.0], [-1j, 0.0, 0.0], [0.0, 0.0, 5.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        joint = simultaneous_diagonalize([first, second])
    for i, op in enumerate((first, second)):
        m = joint.basis.conj().T @ op.matrix @ joint.basis
        assert float(np.max(np.abs(m - np.diag(np.diag(m))))) <= 1e-12
        np.testing.assert_allclose(np.diag(m).real, joint.eigenvalue_lists[i], atol=1e-12)
    np.testing.assert_allclose(joint.eigenvalue_lists[1], [-1.0, 1.0, 5.0], atol=1e-12)


# ---------------------------------------------------------------- generator


def test_vn_generator_canned_pair_exact():
    """Three joint eigenspaces -> labels 0,1,2 and exact lookup tables."""
    a = certify_hermitian(np.diag([1.0, 1.0, 2.0]))
    b = certify_hermitian(np.diag([3.0, 4.0, 4.0]))
    result = vn_generator([a, b])
    # joint tuples (1,3), (1,4), (2,4) sort to labels 0, 1, 2
    assert np.array_equal(result.generator.matrix, np.diag([0.0, 1.0, 2.0]))
    assert result.labels == [0.0, 1.0, 2.0]
    assert result.tables[0] == {0.0: 1.0, 1.0: 1.0, 2.0: 2.0}
    assert result.tables[1] == {0.0: 3.0, 1.0: 4.0, 2.0: 4.0}


def test_vn_generator_single_operator_distinct():
    a = certify_hermitian(np.diag([7.0, -2.0, 0.5, 3.0]))
    result = vn_generator([a])
    assert result.labels == [0.0, 1.0, 2.0, 3.0]
    # ascending eigenvalues map to ascending labels
    assert result.tables[0] == {0.0: -2.0, 1.0: 0.5, 2.0: 3.0, 3.0: 7.0}


def test_vn_generator_degenerate_subspace_single_label():
    a = certify_hermitian(np.diag([2.0, 2.0, 5.0]))
    result = vn_generator([a])
    assert result.labels == [0.0, 1.0]
    assert result.tables[0] == {0.0: 2.0, 1.0: 5.0}
    # one label covers the 2D subspace: generator has eigenvalue 0 twice
    dec = eigendecompose(result.generator)
    np.testing.assert_allclose(dec.eigenvalues, [0.0, 0.0, 1.0], atol=1e-12)


def test_vn_generator_label_gaps_at_least_one():
    rng = np.random.default_rng(SEED + 9)
    family = random_commuting_family(rng, 8, 2)
    result = vn_generator(family)
    gaps = np.diff(result.labels)
    assert np.all(gaps >= 1.0)


def test_vn_generator_reconstructs_family():
    """Each member equals its table applied to the generator's spectrum."""
    rng = np.random.default_rng(SEED + 10)
    for _ in range(10):
        dim = int(rng.integers(3, 13))
        family = random_commuting_family(rng, dim, 3)
        result = vn_generator(family)
        dec = eigendecompose(result.generator)
        for i, op in enumerate(family):
            table = result.tables[i]
            values = np.array([table[float(round(lam))] for lam in dec.eigenvalues])
            rebuilt = (dec.basis * values) @ dec.basis.conj().T
            err = float(np.max(np.abs(rebuilt - op.matrix)))
            assert err <= 1e-9 * (1.0 + float(np.max(np.abs(op.matrix))))


def test_vn_generator_commutes_with_family():
    rng = np.random.default_rng(SEED + 11)
    family = random_commuting_family(rng, 10, 3)
    result = vn_generator(family)
    r = result.generator.matrix
    for op in family:
        comm = r @ op.matrix - op.matrix @ r
        scale = 1.0 + float(np.max(np.abs(op.matrix))) * float(np.max(np.abs(r)) + 1.0)
        assert float(np.max(np.abs(comm))) <= 1e-9 * scale


def test_vn_generator_rejects_noncommuting():
    with pytest.raises(NotCommutingError):
        vn_generator([certify_hermitian(PAULI_X), certify_hermitian(PAULI_Z)])


# ---------------------------------------------------------------- function calculus


def test_apply_function_identity_reconstructs():
    rng = np.random.default_rng(SEED + 12)
    a = random_hermitian(rng, 9)
    dec = eigendecompose(a)
    rebuilt = apply_function(dec, lambda lam: lam)
    scale = 1.0 + float(np.max(np.abs(a.matrix)))
    assert float(np.max(np.abs(rebuilt.matrix - a.matrix))) <= RECON_TOL * scale


def test_apply_function_square_on_diagonal():
    dec = eigendecompose(certify_hermitian(np.diag([1.0, 2.0])))
    sq = apply_function(dec, lambda lam: lam * lam)
    np.testing.assert_allclose(sq.matrix, np.diag([1.0, 4.0]), atol=1e-12)


def test_apply_function_exponential_is_unitary():
    g = GridMeta(length=1.0, npoints=64)
    from traceqm import build_grid_model

    model = build_grid_model(g, "infinite_well")
    dec = eigendecompose(model.hamiltonian)
    t = 0.37
    u = apply_function(dec, lambda lam: np.exp(-1j * lam * t / g.hbar))
    gram = u.matrix.conj().T @ u.matrix
    assert float(np.max(np.abs(gram - np.eye(64)))) <= 1e-8


def test_apply_function_rejects_nonfinite_values():
    dec = eigendecompose(certify_hermitian(np.diag([0.0, 1.0])))
    with pytest.raises(FunctionDomainError):
        apply_function(dec, lambda lam: float("nan") if lam == 0.0 else 1.0 / lam)


def test_apply_function_inverse_round_trip():
    # exp then log returns to A when the spectrum is positive
    coupling = np.zeros((3, 3))
    coupling[0, 1] = coupling[1, 0] = 0.1
    a = certify_hermitian(np.diag([0.5, 1.5, 2.5]) + coupling)
    dec = eigendecompose(a)
    e = apply_function(dec, np.exp)
    back = apply_function(eigendecompose(certify_hermitian(e.matrix)), np.log)
    assert float(np.max(np.abs(back.matrix - a.matrix))) <= 1e-8


# ---------------------------------------------------------------- one implementation per job


def bounded_groups(breaks):
    """Index tuples of the groups that ``_bounds`` delimits in a gap mask."""
    bounds = spectral._bounds(breaks)
    return tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:]))


def loop_cluster_sorted(values, tol):
    """Index-by-index clustering, the reference for the groups of a gap mask (``_bounds`` of ``_breaks``)."""
    groups = []
    current = [0]
    for i in range(1, values.size):
        if values[i] - values[i - 1] > tol:
            groups.append(tuple(current))
            current = [i]
        else:
            current.append(i)
    groups.append(tuple(current))
    return tuple(groups)


# steps in units of the tolerance's unit: ties, gaps exactly at tol, just past it
_STEP_UNITS = st.sampled_from([0, 0, 3, 3, 4, 1, 2, 7])


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(_STEP_UNITS, min_size=0, max_size=40),
       start=st.integers(-1000, 1000), exponent=st.integers(-60, 60))
def test_cluster_sorted_equals_loop_with_exact_ties_and_gaps(steps, start, exponent):
    """Dyadic values make every difference exact, so gaps land exactly on tol = 3 units."""
    unit = 2.0 ** exponent
    values = (start + np.cumsum([0, *steps])) * unit
    tol = 3 * unit
    result = bounded_groups(spectral._breaks(values, tol))
    assert result == loop_cluster_sorted(values, tol)
    assert all(type(i) is int for group in result for i in group)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30), pick=st.integers(0, 100))
def test_cluster_sorted_equals_loop_with_tol_taken_from_a_gap(values, pick):
    values = np.sort(np.array(values + values[: len(values) // 3]))  # planted ties
    gaps = np.diff(values)
    tol = float(gaps[pick % gaps.size]) if gaps.size else 0.0
    assert bounded_groups(spectral._breaks(values, tol)) == loop_cluster_sorted(values, tol)


def loop_representatives(values):
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    reps = np.empty_like(values)
    for cluster in loop_cluster_sorted(ordered, spectral._group_tol(ordered)):
        members = order[list(cluster)]
        reps[members] = float(np.mean(values[members]))
    return reps


def loop_labels_and_tables(family):
    """vn_generator's labels and tables by the per-index dict loop and sort."""
    joint = simultaneous_diagonalize(family)
    reps = np.array([loop_representatives(row) for row in joint.eigenvalue_lists])
    tuples = [tuple(reps[:, k]) for k in range(joint.dim)]
    distinct = sorted(set(tuples))
    label_of = {t: float(i) for i, t in enumerate(distinct)}
    label_per_index = np.array([label_of[t] for t in tuples], dtype=np.float64)
    tables = []
    for i in range(reps.shape[0]):
        table = {}
        for k in range(joint.dim):
            table[int(label_per_index[k])] = float(reps[i, k])
        tables.append(dict(sorted(table.items())))
    return [float(i) for i in range(len(distinct))], tables


def planted_degenerate_family(rng, dim, count, rotate):
    """Members with exactly repeated planted eigenvalues, diagonal or in one shared random basis."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    family = []
    for _ in range(count):
        levels = rng.choice(rng.uniform(-3.0, 3.0, size=max(1, dim // 2)), size=dim)
        m = (q * levels) @ q.conj().T if rotate else np.diag(levels)
        family.append(certify_hermitian((m + m.conj().T) / 2.0))
    return family


def test_vn_generator_tables_equal_per_index_loop():
    rng = np.random.default_rng(SEED + 60)
    families = [[certify_hermitian(np.diag([1.0, 1.0, 2.0])), certify_hermitian(np.diag([3.0, 4.0, 4.0]))]]
    for trial in range(30):
        dim = int(rng.integers(2, 9))
        families.append(planted_degenerate_family(rng, dim, int(rng.integers(1, 4)), rotate=trial % 2 == 1))
        families.append(random_commuting_family(rng, dim, 3))
    for family in families:
        result = vn_generator(family)
        labels, tables = loop_labels_and_tables(family)
        assert result.labels == labels
        assert [list(t.items()) for t in result.tables] == [list(t.items()) for t in tables]
        assert all(type(key) is int and type(value) is float for t in result.tables for key, value in t.items())


def test_generators_of_a_stack_are_bit_identical_to_the_adjoint_form():
    """Each family's generator is ``(basis * labels) @ basis.conj().T``, its
    labels the ranks of its columns' representative tuples in lexicographic order."""
    rng = np.random.default_rng(SEED + 61)
    for dim, families in ((1, 3), (5, 40), (16, 7)):
        basis = np.stack([eigendecompose(random_hermitian(rng, dim)).basis for _ in range(families)])
        lists = rng.choice(rng.uniform(-2.0, 2.0, size=3), size=(families, 3, dim))
        generators, tables, counts = spectral._generators(basis, lists)
        reps = spectral._representatives(lists)
        labels = np.empty((families, dim))
        for f in range(families):
            tuples = [tuple(reps[f, :, k]) for k in range(dim)]
            distinct = sorted(set(tuples))
            labels[f] = [distinct.index(t) for t in tuples]
            assert counts[f] == len(distinct)
        want = (basis * labels[:, None, :]) @ basis.conj().transpose(0, 2, 1)
        assert generators.tobytes() == want.tobytes()


def along_axis_anchors(basis):
    """``spectral._anchors`` with ``np.take_along_axis``, the oracle for its direct gather."""
    rows = missing = None
    for start in range(0, basis.shape[-2], spectral.PHASE_SCAN_ROWS):
        above = np.abs(basis[..., start:start + spectral.PHASE_SCAN_ROWS, :]) > PHASE_FLOOR
        first = np.argmax(above, axis=-2)
        found = np.take_along_axis(above, first[..., None, :], axis=-2)[..., 0, :]
        if rows is None:
            rows, missing = first, ~found
        else:
            found &= missing
            rows[found] = start + first[found]
            missing &= ~found
    return rows


def along_axis_phase_fix(basis):
    """``spectral._phase_fix`` with ``np.take_along_axis``."""
    pivots = np.take_along_axis(basis, along_axis_anchors(basis)[..., None, :], axis=-2)
    if np.iscomplexobj(basis):
        basis *= pivots.conj() / np.hypot(pivots.real, pivots.imag)
    else:
        basis *= np.copysign(1.0, pivots)
    return basis


def along_axis_representatives(values):
    """``spectral._representatives`` with ``np.take_along_axis`` and ``np.put_along_axis``."""
    order = np.argsort(values, axis=-1, kind="stable")
    flat = np.take_along_axis(values, order, axis=-1).reshape(-1, values.shape[-1])
    means = flat + 0.0
    for row, a, b in spectral._tied_runs(spectral._breaks(flat, spectral._group_tol(flat))):
        means[row, a:b] = _group_means(flat[row], [range(a, b)])[0]
    reps = np.empty_like(values)
    np.put_along_axis(reps, order, means.reshape(values.shape), axis=-1)
    return reps


def along_axis_generators(basis, lists):
    """``spectral._generators`` with ``np.take_along_axis`` and ``np.put_along_axis``."""
    reps = along_axis_representatives(lists)
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
    return spectral._spectral_sum(basis, labels), tables, label_sorted[:, -1] + 1


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4), dim=st.integers(1, 12), members=st.integers(1, 3),
       kind=st.sampled_from([np.float64, np.complex128]), tall=st.booleans())
def test_direct_gathers_equal_their_along_axis_oracles(seed, k, dim, members, kind, tall):
    """The phase rule's anchors and pivots, the representatives and the
    generators' labels and tables, gathered by direct fancy indexing, are the
    bytes ``np.take_along_axis`` and ``np.put_along_axis`` give: on real and
    complex (k, N, N) stacks, taller than one scan block or not, with columns
    that have no entry above ``PHASE_FLOOR``, and on (k, m, N) lists with
    tied and near-tied eigenvalues."""
    rng = np.random.default_rng(seed)
    rows = dim + (spectral.PHASE_SCAN_ROWS + 3 if tall else 0)
    basis = rng.standard_normal((k, rows, dim)).astype(kind)
    if kind is np.complex128:
        basis.imag = rng.standard_normal((k, rows, dim))
    leading = np.arange(rows)[:, None] < rng.integers(0, rows + 1, size=(k, 1, dim))
    basis[leading] = np.where(rng.random(np.count_nonzero(leading)) < 0.5, 0.0, 0.5 * PHASE_FLOOR)
    basis[:, 0][leading[:, 0]] = 0.5 * PHASE_FLOOR  # a column wholly below the floor is anchored here
    assert spectral._anchors(basis).tobytes() == along_axis_anchors(basis).tobytes()
    assert _phase_fix(basis.copy()).tobytes() == along_axis_phase_fix(basis.copy()).tobytes()
    # planted ties, some split by less than the group width
    lists = rng.choice(rng.uniform(-2.0, 2.0, size=max(1, dim // 2)), size=(k, members, dim))
    lists += np.where(rng.random(lists.shape) < 0.3, 1e-12 * rng.standard_normal(lists.shape), 0.0)
    assert spectral._representatives(lists).tobytes() == along_axis_representatives(lists).tobytes()
    square = basis[:, :dim]
    for got, want in zip(spectral._generators(square, lists), along_axis_generators(square, lists)):
        assert got.tobytes() == want.tobytes()


def drawn_hermitian(rng, dim):
    """The hermitian part of one standard_normal((2, dim, dim)) draw, as the experiments draw it."""
    return experiments._hermitian_part(rng.standard_normal((2, dim, dim)))


def drawn_state(rng, dim):
    """A state normalized from two standard_normal(dim) draws, as the experiments draw it."""
    return normalize(StateVector(rng.standard_normal(dim) + 1j * rng.standard_normal(dim)))


def loop_worst_family_recon(rng, trials):
    """The recon loop with one generator decomposition per member, as its reference."""
    worst = 0.0
    for _ in range(trials):
        dim = int(rng.integers(3, 9))
        base = drawn_hermitian(rng, dim)
        family = []
        for _ in range(3):
            c0, c1, c2 = rng.uniform(-2.0, 2.0, size=3)
            family.append(certify_hermitian(c0 * np.eye(dim) + c1 * base + c2 * (base @ base)))
        res = vn_generator(family)
        for member_index, member in enumerate(family):
            dec = eigendecompose(res.generator)
            table = res.tables[member_index]
            values = np.array([table[int(np.round(lam))] for lam in dec.eigenvalues])
            rebuilt = (dec.basis * values) @ dec.basis.conj().T
            assert apply_function(dec, lambda lam: table[int(np.round(lam))]).matrix.tobytes() == rebuilt.tobytes()
            worst = max(worst, float(np.max(np.abs(rebuilt - member.matrix))))
    return worst


@pytest.mark.parametrize("seed", range(21))
def test_worst_family_recon_equals_per_member_rebuild(seed):
    worst = experiments._worst_family_recon(np.random.default_rng(seed), 20)
    assert worst == loop_worst_family_recon(np.random.default_rng(seed), 20)


def test_worst_family_recon_decomposes_each_generator_once(monkeypatch):
    """One generator decomposition per family, counted in matrices at the stacked entry point."""
    solved = []

    def counted(matrices, scales):
        solved.append(len(matrices))
        return spectral._eigendecompose_stack(matrices, scales)

    monkeypatch.setattr(experiments, "_eigendecompose_stack", counted)
    experiments._worst_family_recon(np.random.default_rng(SEED + 61), 25)
    assert sum(solved) == 25


#: two 8-dimensional recon families' declared bytes: it splits that dimension
#: of a 30-family sweep, and some dimension of every claims sweep
SPLIT_BUDGET = 2 * experiments._trial_bytes("recon", 8)

#: sixteen 8-dimensional recon families' declared bytes: every dimension of a
#: 16- or 17-family sweep fits in one stack; its cases are named by that count
WHOLE_BUDGET = 16 * experiments._trial_bytes("recon", 8)


def recorded_stacks(monkeypatch):
    """``(sweep, dim, rows)`` of every stack the sweeps solve from now on."""
    stacks = []
    real = experiments._stacks

    def recording(dims, sweep, arrays, draw):
        for dim, stack in real(dims, sweep, arrays, draw):
            stacks.append((sweep, dim, len(stack[0])))
            yield dim, stack

    monkeypatch.setattr(experiments, "_stacks", recording)
    return stacks


def assert_cut(stacks, budget):
    """Stacks of one trial each under a one-byte budget; under a budget of two
    8-dimensional recon families, some dimension in several stacks, some
    stack of several trials; under a larger budget, one stack per sweep and
    dimension."""
    rows = [r for _, _, r in stacks]
    per_dim = Counter((sweep, dim) for sweep, dim, _ in stacks)
    if budget == 1:
        assert set(rows) == {1}
    elif budget == SPLIT_BUDGET:
        assert max(per_dim.values()) > 1 and max(rows) > 1
    else:
        assert set(per_dim.values()) == {1}


@pytest.mark.parametrize("budget, trials", [
    (1, 9), (SPLIT_BUDGET, 30),
    pytest.param(WHOLE_BUDGET, 16, id="16-16"), pytest.param(WHOLE_BUDGET, 17, id="16-17")])
def test_worst_family_recon_equals_per_member_rebuild_across_chunks(budget, trials, monkeypatch):
    """The same worst error whether each stack holds one family, part of a
    dimension's families, or all of them."""
    monkeypatch.setattr(experiments, "STACK_BYTES", budget)
    stacks = recorded_stacks(monkeypatch)
    worst = experiments._worst_family_recon(np.random.default_rng(SEED + 62 + budget % 97), trials)
    assert worst == loop_worst_family_recon(np.random.default_rng(SEED + 62 + budget % 97), trials)
    assert sum(rows for _, _, rows in stacks) == trials
    assert_cut(stacks, budget)


@pytest.mark.parametrize("shift", [-1.0, 1.0])
def test_worst_family_recon_refuses_a_label_outside_the_tables(shift, monkeypatch):
    """A generator eigenvalue that rounds below label 0 or past the last label
    is refused, never read from another label's table entry."""
    def shifted(matrices, scales):
        values, basis = spectral._eigendecompose_stack(matrices, scales)
        return values + shift, basis

    monkeypatch.setattr(experiments, "_eigendecompose_stack", shifted)
    with pytest.raises(NumericalError, match="outside the labels 0 .. "):
        experiments._worst_family_recon(np.random.default_rng(SEED + 63), 5)


def loop_run_claims(cfg):
    """The claims sweep trial by trial, one operator at a time, as its reference."""
    rng = np.random.default_rng(cfg.seed)
    rows = []
    checks = []

    worst_weak = 0.0
    for trial in range(1000):
        dim = 2 + trial % 7
        a = certify_hermitian(drawn_hermitian(rng, dim))
        b = certify_hermitian(drawn_hermitian(rng, dim))
        psi = drawn_state(rng, dim)
        commutator = Operator(a.matrix @ b.matrix - b.matrix @ a.matrix)
        worst_weak = max(worst_weak, abs(expect_r(commutator, psi)))
    rows.append({"claim": "weak-commutativity", "trials": 1000, "worst": worst_weak})
    checks.append(experiments._check(cfg, "weak", worst_weak, 1e-10))

    worst_residual = 0.0
    worst_orth = 0.0
    min_beta = np.inf
    for trial in range(500):
        dim = 2 + trial % 7
        a = certify_hermitian(drawn_hermitian(rng, dim))
        psi = drawn_state(rng, dim)
        alpha, beta, perp = av_decompose(a, psi)
        min_beta = min(min_beta, beta)
        image = a.matrix @ psi.coeffs
        recon = alpha * psi.coeffs + (beta * perp.coeffs if perp is not None else 0.0)
        worst_residual = max(worst_residual, float(np.linalg.norm(image - recon)))
        if perp is not None:
            worst_orth = max(worst_orth, abs(np.vdot(psi.coeffs, perp.coeffs)))
    rows.append({"claim": "av-split", "trials": 500, "worst": worst_residual})
    checks.append(experiments._check(cfg, "av-residual", worst_residual, 1e-9))
    checks.append(experiments._check(cfg, "av-orth", float(worst_orth), 1e-10))
    checks.append(experiments._check(cfg, "av-beta", float(min_beta), 0.0, "min"))

    worst_spread = 0.0
    worst_eig = 0.0
    dims = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)
    for trial in range(44):
        dim = dims[trial % len(dims)]
        a = certify_hermitian(drawn_hermitian(rng, dim))
        dec = eigendecompose(a)
        norm = float(np.max(np.abs(dec.eigenvalues)))
        worst_spread = max(worst_spread, verify_dispersion_free(dec, a) / np.sqrt(1.0 + norm * norm))
        residual = np.max(np.abs(a.matrix @ dec.basis - dec.basis * dec.eigenvalues))
        worst_eig = max(worst_eig, float(residual) / (1.0 + norm))
    rows.append({"claim": "dispersion-free", "trials": 44, "worst": worst_spread})
    checks.append(experiments._check(cfg, "dispersion-free", worst_spread, 1e-8))
    checks.append(experiments._check(cfg, "eigen-residual", worst_eig, 1e-9))

    trace_i = abs(trace(IMAG_UNIT))
    worst_minpoly = 0.0
    for _ in range(1000):
        x = TraceScalar(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
        worst_minpoly = max(worst_minpoly, abs(minimal_poly_residual(x)))
    rows.append({"claim": "trace-algebra", "trials": 1000, "worst": worst_minpoly})
    checks.append(experiments._check(cfg, "trace-i", trace_i, 0.0))
    checks.append(experiments._check(cfg, "minpoly", worst_minpoly, 1e-9))

    _, canned_dev, exact = experiments._canned_generator()
    worst_recon = max(canned_dev if exact else np.inf, experiments._worst_family_recon(rng, 100))
    rows.append({"claim": "single-generator", "trials": 100, "worst": float(worst_recon)})
    checks.append(experiments._check(cfg, "recon", float(worst_recon), 1e-9))
    return rows, checks


def claims_bits(rows, checks):
    """Rows and checks of a claims run with every float as its hex."""
    return ([(row["claim"], row["trials"], float(row["worst"]).hex()) for row in rows],
            [(c.name, float(c.value).hex(), float(c.bound).hex(), c.mode) for c in checks])


@pytest.mark.parametrize("seed", [*range(21), 9001, 1275887881])
def test_run_claims_equals_per_trial_loop(seed):
    cfg = experiments.ExperimentConfig("claims", seed=seed)
    assert claims_bits(*experiments.run_claims(cfg)) == claims_bits(*loop_run_claims(cfg))


@pytest.mark.parametrize("budget", [1, SPLIT_BUDGET, 2**30])
def test_run_claims_equals_per_trial_loop_across_chunks(budget, monkeypatch):
    """The same bits whether each stack holds one trial, part of a dimension's
    trials, or all of them."""
    cfg = experiments.ExperimentConfig("claims", seed=SEED + 64 + budget % 97)
    expected = claims_bits(*loop_run_claims(cfg))
    monkeypatch.setattr(experiments, "STACK_BYTES", budget)
    stacks = recorded_stacks(monkeypatch)
    assert claims_bits(*experiments.run_claims(cfg)) == expected
    assert_cut(stacks, budget)


#: each sweep: its run, its dimensions and the shapes of the arrays one trial draws
SWEEPS = {
    "recon": (experiments._worst_family_recon, range(3, 9), lambda d: [(2, d, d), (3, 3)]),
    "weak": (experiments._worst_weak, range(2, 9), lambda d: [(2, d, d), (2, d, d), (d,), (d,)]),
    "av-split": (experiments._worst_av_split, range(2, 9), lambda d: [(2, d, d), (d,), (d,)]),
    "dispersion-free": (experiments._worst_dispersion_free, (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64),
                        lambda d: [(2, d, d)]),
}


def solve_one_stack(sweep, draws, monkeypatch):
    """Run ``sweep`` on ``draws``, the arrays its trials draw, as its only stack."""
    if sweep == "recon":
        experiments._family_recon_error(*draws)
        return
    monkeypatch.setattr(experiments, "_trial_normals", lambda *args: iter([draws]))
    SWEEPS[sweep][0](np.random.default_rng(0), 1)


@pytest.mark.parametrize("sweep, dim", [(sweep, dim) for sweep, (_, dims, _) in SWEEPS.items() for dim in dims])
def test_declared_trial_bytes_cover_a_full_stack(sweep, dim, monkeypatch):
    """Drawing and solving a full stack of a sweep's trials at the default
    budget holds at most its declared bytes per trial, up to 8 KiB of array
    headers and loop state."""
    shapes = SWEEPS[sweep][2](dim)
    rows = max(1, experiments.STACK_BYTES // experiments._trial_bytes(sweep, dim))
    solve_one_stack(sweep, [np.ones((1, *shape)) for shape in shapes], monkeypatch)  # lazy set-up
    rng = np.random.default_rng(SEED + 66 + dim)
    tracemalloc.start()
    try:
        solve_one_stack(sweep, [rng.standard_normal((rows, *shape)) for shape in shapes], monkeypatch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= rows * experiments._trial_bytes(sweep, dim) + 2**13


def stack_peak_bound(sweep):
    """What a sweep may hold at once: one stack being drawn and solved, at
    most ``STACK_BYTES`` (or one trial's declared bytes, if more), and the
    draws pending in every dimension's full stack."""
    _, dims, shapes = SWEEPS[sweep]
    declared = [experiments._trial_bytes(sweep, dim) for dim in dims]
    budget = experiments.STACK_BYTES
    return max(budget, *declared) + sum(max(1, budget // trial) * 8 * sum(math.prod(s) for s in shapes(dim))
                                        for dim, trial in zip(dims, declared))


@pytest.mark.parametrize("budget", [experiments.STACK_BYTES, 2**16])
@pytest.mark.parametrize("sweep, trials", [("recon", 1000), ("recon", 5000), ("weak", 1000), ("av-split", 500),
                                           ("dispersion-free", 44)])
def test_sweep_peak_is_bounded_by_the_stack_budget(sweep, trials, budget, monkeypatch):
    """Each random sweep's traced peak stays within its stack bound, whatever
    its trial count, and with the dispersion-free sweep's 48- and
    64-dimensional trials, up to 16 KiB of array headers and loop state.  The
    bound also holds at a budget of 64 KiB, where every large dimension is
    cut into several stacks."""
    run = SWEEPS[sweep][0]
    monkeypatch.setattr(experiments, "STACK_BYTES", budget)
    run(np.random.default_rng(SEED + 65), 50)  # caches and lazy imports outside the trace
    tracemalloc.start()
    try:
        run(np.random.default_rng(SEED + 65), trials)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= stack_peak_bound(sweep) + 2**14


class CountingGenerator:
    """A ``Generator`` that counts its ``standard_normal`` calls and passes every call on."""

    def __init__(self, rng):
        self.rng, self.normal_calls = rng, 0

    def standard_normal(self, *args, **kwargs):
        self.normal_calls += 1
        return self.rng.standard_normal(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def buffer_runs(sizes, capacity):
    """Runs of consecutive whole trials of ``sizes`` normals that fill a buffer of ``capacity`` normals
    greedily, a trial larger than the buffer being a run of its own."""
    runs, filled = 0, None
    for size in sizes:
        if size > capacity:
            runs, filled = runs + 1, None
            continue
        if filled is None or filled + size > capacity:
            runs, filled = runs + 1, 0
        filled += size
    return runs


@pytest.mark.parametrize("budget", [experiments.STACK_BYTES, 2**16])
@pytest.mark.parametrize("sweep, trials", [("weak", 1000), ("av-split", 500)])
def test_claims_sweeps_draw_their_normals_once_per_buffer_run(sweep, trials, budget, monkeypatch):
    """The weak and alpha/beta sweeps call ``standard_normal`` once per run of
    trials that fills a buffer of ``STACK_BYTES // 16`` bytes, not once per
    trial, and reach the bits and the generator state of an unwrapped run."""
    run, _, shapes = SWEEPS[sweep]
    monkeypatch.setattr(experiments, "STACK_BYTES", budget)
    counting = CountingGenerator(np.random.default_rng(SEED + 67))
    got = run(counting, trials)
    plain = np.random.default_rng(SEED + 67)
    assert np.array_equal(np.array(got), np.array(run(plain, trials)))
    assert counting.rng.bit_generator.state == plain.bit_generator.state
    sizes = [sum(math.prod(shape) for shape in shapes(2 + trial % 7)) for trial in range(trials)]
    assert counting.normal_calls == buffer_runs(sizes, budget // 128) < trials // 2


def stacked_family_results(families):
    """Generators, tables, label counts, joint bases and generator bases of
    same-dimension families solved as one stack."""
    members = [np.stack([family[i].matrix for family in families]) for i in range(len(families[0]))]
    scales = np.array([[family[i].scale for family in families] for i in range(len(families[0]))])
    joint, _ = spectral._joint_stack(members, scales, *spectral._dense_solve(members[0], scales[0]))
    generators, tables, counts = spectral._vn_generator_stack(members, scales)
    _, basis = spectral._eigendecompose_stack(generators, operators._certify_stack(generators)[0])
    return generators, tables, counts, joint, basis


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 8), count=st.integers(1, 3),
       kinds=st.lists(st.sampled_from(["diagonal", "rotated", "polynomial"]), min_size=1, max_size=6),
       data=st.data())
def test_stacked_generators_do_not_depend_on_the_stack(seed, dim, count, kinds, data):
    """A family's generator, labels, tables, joint basis and generator basis are
    the same bytes alone, anywhere in a stack of real and complex families,
    and through vn_generator."""
    rng = np.random.default_rng(seed)
    families = [planted_degenerate_family(rng, dim, count, rotate=kind == "rotated") if kind != "polynomial"
                else random_commuting_family(rng, dim, count) for kind in kinds]
    order = data.draw(st.permutations(range(len(families))))
    stacked = stacked_family_results([families[f] for f in order])
    for position, f in enumerate(order):
        alone = stacked_family_results([families[f]])
        for together, single in zip(stacked, alone):
            assert together[position].tobytes() == single[0].tobytes()
        result = vn_generator(families[f])
        generators, tables, counts = alone[:3]
        assert result.generator.matrix.tobytes() == generators[0].tobytes()
        assert result.labels == [float(label) for label in range(counts[0])]
        assert result.tables == [dict(enumerate(table[: counts[0]].tolist())) for table in tables[0]]


def split_rows(rng, dim, kinds):
    """Hermitian matrices with levels in ±[1, 3] in one random basis, and a state for
    each: one of the basis vectors (an eigenvector, so its split has no perp) or a
    random state."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    matrices, states = [], []
    for kind in kinds:
        levels = rng.uniform(1.0, 3.0, size=dim) * rng.choice([-1.0, 1.0], size=dim)
        m = (q * levels) @ q.conj().T
        matrices.append(certify_hermitian((m + m.conj().T) / 2.0).matrix)
        states.append(q[:, rng.integers(dim)] if kind == "eigenvector" else drawn_state(rng, dim).coeffs)
    return np.array(matrices), np.array(states)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 8),
       kinds=st.lists(st.sampled_from(["eigenvector", "random"]), min_size=1, max_size=6), data=st.data())
def test_stacked_av_split_and_expectation_do_not_depend_on_the_stack(seed, dim, kinds, data):
    """A state's alpha/beta split and trace-form expectation are the same bytes
    alone, anywhere in a stack, and through av_decompose and expect_r, with and
    without a perp."""
    matrices, states = split_rows(np.random.default_rng(seed), dim, kinds)
    order = data.draw(st.permutations(range(len(kinds))))
    split = operators._av_stack(matrices[order], states[order], None)
    expectations = operators._expect_r_stack(matrices[order], states[order], None)
    for position, f in enumerate(order):
        alone = operators._av_stack(matrices[f][None], states[f][None], None)
        for together, single in zip(split, alone):
            assert together[position].tobytes() == single[0].tobytes()
        expectation = operators._expect_r_stack(matrices[f][None], states[f][None], None)
        assert expectations[position].tobytes() == expectation[0].tobytes()
        alpha, beta, perp, defined, _ = alone
        assert bool(defined[0]) == (kinds[f] == "random")
        a, psi = certify_hermitian(matrices[f]), StateVector(states[f])
        result = av_decompose(a, psi)
        assert (result.alpha, result.beta) == (alpha[0], beta[0])
        assert (result.perp is None) == (not defined[0])
        if result.perp is not None:
            assert result.perp.coeffs.tobytes() == perp[0].tobytes()
        assert expect_r(a, psi) == expectation[0]


def test_group_means_equal_np_mean_bit_for_bit():
    """Singletons take their value, except that -0.0 reads 0.0 as np.mean returns
    it; larger groups keep np.mean."""
    rng = np.random.default_rng(SEED + 70)
    values = np.concatenate(([-0.0, 0.0, -1.5, 3.0, 1e-300, -2.0**-1074],
                             rng.standard_normal(60) * 10.0 ** rng.integers(-8, 9, 60)))
    singletons = [(i,) for i in range(values.size)]
    larger = [tuple(rng.choice(values.size, size=size, replace=False)) for size in range(2, 10) for _ in range(5)]
    for groups in (singletons, larger):
        means = _group_means(values, groups)
        reference = [float(np.mean(values[list(group)])) for group in groups]
        assert all(type(mean) is float for mean in means)
        assert np.array(means).tobytes() == np.array(reference).tobytes()


# ---------------------------------------------------------------- band operators

#: a grid 64 points above 1536, where a dense solve of the filled tridiagonal once gave way to
#: ?stevd; every band solve now takes ?stevd, and its halves of order 800 merge through dgemm
ABOVE_CROSSOVER = 1600


def grid_band_operators(npoints):
    """The grid model's q, p and H, each held as its bands."""
    model = build_grid_model(GridMeta(length=1.0, npoints=npoints))
    return {"q": model.q, "p": model.p, "H": model.hamiltonian}


@pytest.mark.parametrize("npoints", [16, 128, 512])
@pytest.mark.parametrize("name", ["q", "p", "H"])
def test_band_solve_below_crossover_keeps_the_dense_bytes(name, npoints):
    """q's whole bands and p's complex ones are solved to the bytes of their certified
    dense matrices.  H, solved from its parity halves where the dense solve takes it
    whole, is held to backward stability instead."""
    op = grid_band_operators(npoints)[name]
    assert isinstance(op, BandOperator)
    if name == "H":
        assert_band_solve_backward_stable(op)
        return
    band = eigendecompose(op)
    values = eigenvalues(op)
    dense = certify_hermitian(op.matrix)
    reference = eigendecompose(dense)
    assert band.eigenvalues.tobytes() == reference.eigenvalues.tobytes()
    assert band.basis.tobytes() == reference.basis.tobytes()
    assert band.groups == reference.groups
    assert values.tobytes() == eigenvalues(dense).tobytes()


def band_norm(op):
    """Gershgorin bound on the 2-norm of a hermitian tridiagonal."""
    return float(np.max(np.abs(op.diagonal))) + 2.0 * float(np.max(np.abs(op.upper)))


def band_image(op, vectors):
    """The band operator applied to real columns, in O(N) per column."""
    image = op.diagonal[:, None] * vectors
    image[:-1] += op.upper[:, None] * vectors[1:]
    image[1:] += op.upper[:, None] * vectors[:-1]
    return image


def assert_band_solve_backward_stable(op):
    """The band solve's levels lie within N*eps*||A|| of the dense solve's, as both are
    backward stable; its basis is orthonormal to N*eps, each eigenpair's
    residual is within N*eps*||A||, and the conventions hold."""
    n, norm = op.dim, band_norm(op)
    dec = eigendecompose(op)
    dense = np.linalg.eigvalsh(op._dense(np.float64))
    assert np.max(np.abs(dec.eigenvalues - dense)) <= n * EPS * norm
    assert np.max(np.abs(eigenvalues(op) - dense)) <= n * EPS * norm
    assert dec.basis.dtype == np.complex128 and not dec.basis.imag.any()
    vectors = dec.basis.real
    assert np.max(np.abs(vectors.T @ vectors - np.eye(n))) <= n * EPS
    residual = band_image(op, vectors) - vectors * dec.eigenvalues
    assert np.max(np.linalg.norm(residual, axis=0)) <= n * EPS * norm
    assert dec.groups == tuple((i,) for i in range(n))
    pivots = vectors[np.argmax(np.abs(vectors) > PHASE_FLOOR, axis=0), np.arange(n)]
    assert np.all(pivots > 0)


@pytest.mark.parametrize("name", ["q", "H"])
def test_band_solve_above_crossover_is_backward_stable(name):
    """?stevd's levels lie within N*eps*||A|| of the dense solve's, as both are
    backward stable; its basis is orthonormal to N*eps, each eigenpair's
    residual is within N*eps*||A||, and the conventions hold."""
    assert_band_solve_backward_stable(grid_band_operators(ABOVE_CROSSOVER)[name])


@pytest.mark.parametrize("npoints", [1535, 1601])
@pytest.mark.parametrize("name", ["q", "H"])
def test_band_solve_is_backward_stable_at_odd_n(name, npoints):
    """The same at odd N, below and above ABOVE_CROSSOVER: H's even half there
    has the centre row."""
    assert_band_solve_backward_stable(grid_band_operators(npoints)[name])


_DECLARED_BAND_SOLVES = [
    ("H", 512, spectral.BAND_BASIS_BYTES_PER_ENTRY),
    ("q", 512, spectral.BAND_BASIS_BYTES_PER_ENTRY),
    ("H", ABOVE_CROSSOVER, spectral.BAND_BASIS_BYTES_PER_ENTRY),
    ("q", ABOVE_CROSSOVER, spectral.BAND_BASIS_BYTES_PER_ENTRY),
]


@pytest.mark.parametrize(
    "name, npoints, bytes_per_entry", _DECLARED_BAND_SOLVES,
    # position declares the Hamiltonian's count; its id names it apart
    ids=[f"{npoints}-{bytes_per_entry}" + ("-q" if name == "q" else "")
         for name, npoints, bytes_per_entry in _DECLARED_BAND_SOLVES],
)
def test_band_solve_declares_what_it_allocates(name, npoints, bytes_per_entry, monkeypatch):
    """Each band path refuses by its own byte count, and that count covers the
    traced peak of the decomposition, up to 32 float64 vectors of O(N) workspace.
    H's palindromic bands are solved from their half tridiagonals; position's
    bands are not palindromic, so it is solved whole.  Both go to ?stevd at every N."""
    op = grid_band_operators(npoints)[name]
    eigendecompose(grid_band_operators(16)[name])  # LAPACK bound outside the trace
    declared = []
    monkeypatch.setattr(spectral, "_require_fits", lambda grid, need, what: declared.append(need))
    tracemalloc.start()
    try:
        eigendecompose(op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert declared == [bytes_per_entry * npoints**2]
    assert peak <= declared[0] + 32 * 8 * npoints


def test_band_paths_refuse_before_allocating():
    """At 10^5 points the bands fit and the dense matrix and eigenbasis do not."""
    hamiltonian = grid_hamiltonian(GridMeta(length=1.0, npoints=100_000))
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="solving its 100000x100000 tridiagonal.*physical memory"):
            eigendecompose(hamiltonian)
        with pytest.raises(InputError, match="a dense 100000x100000 complex matrix.*physical memory"):
            hamiltonian.matrix
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_grid_decomposition_keeps_two_vectors_beyond_its_basis():
    """Beyond its N x N real basis a decomposition of the grid Hamiltonian
    keeps its eigenvalues and its N + 1 group bounds, and within 4 KiB the
    headers of the object, its dict and its arrays: no index tuple per group,
    and no complex copy of the basis."""
    npoints = 512
    hamiltonian = grid_hamiltonian(GridMeta(length=1.0, npoints=npoints))
    eigendecompose(hamiltonian)  # imports and the interpreter's free lists outside the trace
    tracemalloc.start()
    try:
        dec = eigendecompose(hamiltonian)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = dec.eigenvalues.nbytes + np.dtype(np.intp).itemsize * (npoints + 1)
    assert kept - dec._basis.nbytes <= held + 4096


def test_band_solve_builds_no_reference_cycles():
    """With the cyclic collector off, 20 more band solves of the grid Hamiltonian
    leave tracemalloc's total where one left it, within the 4 KiB of numpy's and
    the interpreter's caches: the LAPACK binding builds no cycle that only the
    collector would free (``ndarray.ctypes.data_as``, and so ``ndpointer``'s own
    conversion, builds one per array argument and call, about 4 KiB a solve)."""
    hamiltonian = grid_hamiltonian(GridMeta(length=1.0, npoints=512))
    for _ in range(20):  # LAPACK bound and the caches filled outside the trace
        eigendecompose(hamiltonian)
    gc.disable()
    tracemalloc.start()
    try:
        eigendecompose(hamiltonian)
        first, _ = tracemalloc.get_traced_memory()
        for _ in range(20):
            eigendecompose(hamiltonian)
        total, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert total - first <= 4096


def test_band_operator_builds_its_matrix_once_on_demand():
    model = build_grid_model(GridMeta(length=1.0, npoints=64))
    eigendecompose(model.hamiltonian)
    eigendecompose(model.q)
    for op in (model.q, model.p, model.hamiltonian):
        with pytest.raises(AttributeError):
            operators._DENSE.__get__(op)  # solved from its bands alone
        assert op.dim == 64
        assert op.matrix is op.matrix
        assert not op.matrix.flags.writeable
        assert certify_hermitian(op.matrix).certificate == op.certificate == 0.0


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_band_operator_refuses_non_finite_bands_as_certify_hermitian_does(bad):
    g = GridMeta(length=1.0, npoints=8)
    diagonal = np.arange(8.0)
    diagonal[3] = bad
    with pytest.raises(NotHermitianError) as band:
        BandOperator(diagonal, np.ones(7), g)
    dense = np.diag(diagonal) + np.diag(np.ones(7), 1) + np.diag(np.ones(7), -1)
    with pytest.raises(NotHermitianError) as reference:
        certify_hermitian(dense)
    assert str(band.value) == str(reference.value)


def test_band_operator_refuses_bands_that_do_not_fit_its_grid():
    g = GridMeta(length=1.0, npoints=8)
    for diagonal, upper in ((np.zeros(8), np.zeros(8)), (np.zeros(9), np.zeros(8)), (np.zeros((8, 1)), np.zeros(7))):
        with pytest.raises(GridError):
            BandOperator(diagonal, upper, g)


# ---------------------------------------------------------------- parity sectors


def centrosymmetric(rng, n, kind):
    """A real symmetric matrix equal to its reflection J A J exactly.

    ``decoupled`` has C = 0, so its two sectors are equal (every level a
    planted tie across the parities); ``palindromic-diagonal`` ties each
    entry with its mirror the same way, on the axes."""
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "identity":
        return np.eye(n)
    if kind == "palindromic-diagonal":
        levels = rng.integers(-3, 4, size=n).astype(float)
        return np.diag(levels + levels[::-1])
    m = rng.standard_normal((n, n))
    if kind == "decoupled":
        half = n // 2
        m[:half, n - half:] = m[n - half:, :half] = 0.0
        m[half, :] = m[:, half] = 0.0 if n % 2 else m[half, :]
    s = m + m[::-1, ::-1]
    return (s + s.T) * 2.0 ** int(rng.integers(-30, 31))


def assert_backward_stable_basis(a, dec, slack=1.0):
    """Levels within slack*N*eps*||A|| of the whole matrix's, residuals within
    that, orthonormality within slack*N*eps, and the order and phase conventions."""
    n = a.shape[0]
    norm = float(np.linalg.norm(a, 2))
    assert np.max(np.abs(dec.eigenvalues - np.linalg.eigvalsh(a))) <= slack * n * EPS * norm
    assert np.all(np.diff(dec.eigenvalues) >= 0.0)
    assert dec.basis.dtype == np.complex128 and not dec.basis.imag.any()
    vectors = dec.basis.real
    assert np.max(np.linalg.norm(a @ vectors - vectors * dec.eigenvalues, axis=0)) <= slack * n * EPS * norm
    assert np.max(np.abs(vectors.T @ vectors - np.eye(n))) <= slack * n * EPS
    pivots = vectors[np.argmax(np.abs(vectors) > PHASE_FLOOR, axis=0), np.arange(n)]
    assert np.all(pivots > 0)


_PARITY_KINDS = ["random", "zero", "identity", "palindromic-diagonal", "decoupled"]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64), kind=st.sampled_from(_PARITY_KINDS))
def test_parity_split_is_backward_stable(seed, n, kind):
    """The real solve of a centrosymmetric matrix, whose parities plant ties
    across them, is backward stable.

    LAPACK bounds its own errors by p(N)*eps, p growing modestly: on these
    matrices its whole solve reaches 3*N*eps orthogonality at N = 3 (60000
    draws of orders 2 to 9).  The solve is held to that bound with a factor of 4."""
    a = centrosymmetric(np.random.default_rng(seed), n, kind)
    assert np.array_equal(a, a[::-1, ::-1]) and np.array_equal(a, a.T)
    op = certify_hermitian(a)
    dec = eigendecompose(op)
    assert_backward_stable_basis(a, dec, slack=4.0)
    values = eigenvalues(op)
    assert np.all(np.diff(values) >= 0.0)
    assert np.max(np.abs(values - dec.eigenvalues)) <= 4.0 * n * EPS * float(np.linalg.norm(a, 2))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 24),
       kinds=st.lists(st.sampled_from([*_PARITY_KINDS, "real", "complex"]), min_size=1, max_size=6),
       data=st.data())
def test_parity_split_does_not_depend_on_the_stack(seed, n, kinds, data):
    """A matrix gives the same bytes alone as anywhere in a stack mixing
    centrosymmetric matrices, with their planted cross-parity ties, other real
    and complex matrices, and as eigendecompose."""
    rng = np.random.default_rng(seed)
    matrices = []
    for kind in kinds:
        if kind == "real":
            matrices.append(random_real_symmetric(rng, n).matrix)
        elif kind == "complex":
            matrices.append(random_hermitian(rng, n).matrix)
        else:
            matrices.append(certify_hermitian(centrosymmetric(rng, n, kind)).matrix)
    order = data.draw(st.permutations(range(len(matrices))))
    stack = np.array(matrices)[order]
    scales = operators._certify_stack(stack)[0]
    values, basis = spectral._eigendecompose_stack(stack, scales)
    levels = spectral._dense_solve(stack, scales, vectors=False)
    for position, f in enumerate(order):
        alone = spectral._eigendecompose_stack(stack[position][None], scales[position][None])
        assert values[position].tobytes() == alone[0][0].tobytes()
        assert basis[position].tobytes() == alone[1][0].tobytes()
        assert levels[position].tobytes() == spectral._dense_solve(stack[position][None], scales[position][None],
                                                                   vectors=False)[0].tobytes()
        dec = eigendecompose(certify_hermitian(matrices[f]))
        assert dec.eigenvalues.tobytes() == values[position].tobytes()
        assert dec.basis.tobytes() == basis[position].tobytes()


def spy_on_lapack(monkeypatch):
    """Record the shape and dtype of every np.linalg.eigh and eigvalsh call."""
    seen = []

    def spy(name):
        solver = getattr(np.linalg, name)

        def recorded(matrix):
            seen.append((name, matrix.shape, matrix.dtype))
            return solver(matrix)
        return recorded

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, spy(name))
    return seen


def spy_on_stevd(monkeypatch):
    """Record the order, the diagonal's last entry and ``jobz`` of every ``?stevd`` call, and a
    copy of its (diagonal, off-diagonal) input."""
    seen, inputs = [], []
    stevd, stebz, integer = spectral._lapack()

    def recorded(layout, jobz, n, d, e, *rest):
        seen.append((n, float(d[-1]), jobz.decode()))
        inputs.append((d.copy(), e.copy()))
        return stevd(layout, jobz, n, d, e, *rest)

    monkeypatch.setattr(spectral, "_lapack", lambda: (recorded, stebz, integer))
    return seen, inputs


@pytest.mark.parametrize("npoints, calls", [(512, [256, 256]), (513, [257, 256])])
def test_grid_hamiltonian_is_solved_in_its_parity_sectors(npoints, calls, monkeypatch):
    """The Hamiltonian's even and odd sectors go to ?stevd as two calls, even
    first; at odd N the even sector is one row and column larger.  No dense
    sector is formed for numpy's LAPACK."""
    hamiltonian = grid_hamiltonian(GridMeta(length=1.0, npoints=npoints))
    dense = spy_on_lapack(monkeypatch)
    seen, _ = spy_on_stevd(monkeypatch)
    eigendecompose(hamiltonian)
    assert [(size, jobz) for size, _, jobz in seen] == [(size, "V") for size in calls]
    seen.clear()
    eigenvalues(hamiltonian)
    assert [(size, jobz) for size, _, jobz in seen] == [(size, "N") for size in calls]
    assert dense == []


@pytest.mark.parametrize("name, npoints, sizes", [
    ("H", ABOVE_CROSSOVER, [800, 800]),
    ("H", ABOVE_CROSSOVER + 1, [801, 800]),
    ("q", ABOVE_CROSSOVER, [ABOVE_CROSSOVER]),
    ("H", 1536, [768, 768]),
    ("q", 1536, [1536]),
    ("H", 16, [8, 8]),
    ("q", 16, [16]),
    ("H", 512, [256, 256]),
    ("q", 512, [512]),
])
def test_band_operators_above_the_crossover_are_solved_by_stevd(name, npoints, sizes, monkeypatch):
    """At every N each tridiagonal goes to ?stevd from its bands: the
    Hamiltonian's two halves, even first (at even N the even half's last
    diagonal entry is 2k - k, the odd half's 2k + k), and position's
    non-palindromic bands whole; eigenvalues() asks for no vectors."""
    op = grid_band_operators(npoints)[name]
    seen, _ = spy_on_stevd(monkeypatch)
    eigendecompose(op)
    assert [(size, jobz) for size, _, jobz in seen] == [(size, "V") for size in sizes]
    if name == "H" and npoints % 2 == 0:
        assert seen[0][1] < seen[1][1]
    seen.clear()
    eigenvalues(op)
    assert [(size, jobz) for size, _, jobz in seen] == [(size, "N") for size in sizes]


def test_band_solve_above_crossover_gives_the_same_bytes_on_one_blas_thread_and_two():
    """?stevd merges through dgemm, whose OpenBLAS blocking follows the thread
    count; the kernel runs it on one thread, so a fresh interpreter's grid
    Hamiltonian basis at N = 1600 (halves of order 800) hashes the same under
    OPENBLAS_NUM_THREADS=1 and =2."""
    code = ("import hashlib; from traceqm import GridMeta, build_grid_model, eigendecompose; "
            f"d = eigendecompose(build_grid_model(GridMeta(length=1.0, npoints={ABOVE_CROSSOVER})).hamiltonian); "
            "print(hashlib.sha256(d.eigenvalues.tobytes() + d.basis.tobytes()).hexdigest())")
    src = str(Path(spectral.__file__).resolve().parents[1])
    digests = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120,
                              env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}).stdout
               for threads in ("1", "2")]
    assert digests[0] == digests[1] != ""

def test_dense_real_solve_gives_the_same_bytes_on_one_blas_thread_and_two():
    """numpy's ?syevd gives other last bits on two OpenBLAS threads than on one from order 800
    up; the solver holds numpy's OpenBLAS to one thread, so a dense real order-900 matrix
    decomposes to the same hash in fresh interpreters under OPENBLAS_NUM_THREADS=1 and =2."""
    code = ("import hashlib, numpy as np; from traceqm import certify_hermitian, eigendecompose; "
            "a = np.random.default_rng(900).standard_normal((900, 900)); "
            "d = eigendecompose(certify_hermitian(a + a.T)); "
            "print(hashlib.sha256(d.eigenvalues.tobytes() + d.basis.tobytes()).hexdigest())")
    src = str(Path(spectral.__file__).resolve().parents[1])
    digests = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120,
                              env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}).stdout
               for threads in ("1", "2")]
    assert digests[0] == digests[1] != ""


def palindromic_bands(rng, n):
    """Palindromic real bands with signed zeros among their entries, but a nonzero middle
    coupling, the one the parity halves add to or subtract from their diagonal."""
    d, u = rng.standard_normal(n), rng.standard_normal(n - 1)
    d[rng.random(n) < 0.2], u[rng.random(n - 1) < 0.3] = -0.0, -0.0
    u[rng.random(n - 1) < 0.2] = 0.0
    u[n // 2 - 1] = rng.standard_normal()
    return np.where(np.arange(n) < n // 2, d, d[::-1]), np.where(np.arange(n - 1) < (n - 1) // 2, u, u[::-1])


def parity_sectors(s):
    """The even and odd parity sectors of a centrosymmetric real symmetric matrix, cut from it
    densely (Cantoni and Butler): with N = 2m or 2m + 1, B = s[:m, :m] and C = s[N - m:, :m],
    the even sector is B + JC (bordered for odd N by sqrt(2) s[:m, m] and s[m, m]), the odd B - JC."""
    n = s.shape[0]
    m = n // 2
    b, jc = s[:m, :m], s[n - m:, :m][::-1]
    even = np.empty((n - m, n - m))
    even[:m, :m] = b + jc
    if n % 2:
        even[:m, m] = even[m, :m] = math.sqrt(2.0) * s[:m, m]
        even[m, m] = s[m, m]
    return [even, b - jc]


@pytest.mark.parametrize("npoints", [8, 9, 16, 33, 128, 129])
def test_band_half_blocks_are_the_dense_half_blocks(npoints, monkeypatch):
    """Palindromic bands feed ?stevd the half tridiagonals whose fill is the parity
    sectors of the band operator's matrix at the solve's power-of-two scale, and the
    basis they give is backward stable."""
    rng = np.random.default_rng(SEED + 80 + npoints)
    d, u = palindromic_bands(rng, npoints)
    op = BandOperator(d, u, GridMeta(length=1.0, npoints=npoints))
    _, halves = spy_on_stevd(monkeypatch)
    band = eigendecompose(op)
    filled = [operators._fill_tridiagonal(np.zeros((h.size, h.size)), h, e) for h, e in halves]
    sectors = parity_sectors(np.ldexp(op._dense(np.float64), -math.frexp(op.scale)[1]))
    assert len(filled) == 2 and all(np.array_equal(x, y) for x, y in zip(filled, sectors))
    assert_backward_stable_basis(op._dense(np.float64), band)
