"""Spectral engine: decomposition, commuting families, single generator."""

import tracemalloc
import warnings

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
    InputError,
    NotCommutingError,
    NotHermitianError,
    NumericalError,
    Operator,
    SpectralDecomposition,
    StateVector,
    apply_function,
    build_grid_model,
    certify_hermitian,
    commute_check,
    complex_inner,
    eigendecompose,
    eigenvalues,
    grid_hamiltonian,
    normalize,
    simultaneous_diagonalize,
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
            seen.append((name, matrix.dtype))
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
    assert seen == [
        ("eigh", np.complex128), ("eigvalsh", np.complex128),
        ("eigh", np.float64), ("eigvalsh", np.float64),
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


def loop_cluster_sorted(values, tol):
    """Index-by-index clustering, the reference for ``_cluster_sorted``."""
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
    result = spectral._cluster_sorted(values, tol)
    assert result == loop_cluster_sorted(values, tol)
    assert all(type(i) is int for group in result for i in group)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30), pick=st.integers(0, 100))
def test_cluster_sorted_equals_loop_with_tol_taken_from_a_gap(values, pick):
    values = np.sort(np.array(values + values[: len(values) // 3]))  # planted ties
    gaps = np.diff(values)
    tol = float(gaps[pick % gaps.size]) if gaps.size else 0.0
    assert spectral._cluster_sorted(values, tol) == loop_cluster_sorted(values, tol)


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


def loop_worst_family_recon(rng, trials):
    """The recon loop with one generator decomposition per member, as its reference."""
    worst = 0.0
    for _ in range(trials):
        dim = int(rng.integers(3, 9))
        base = experiments._random_hermitian(rng, dim)
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


@pytest.mark.parametrize("chunk, trials", [(1, 9), (7, 30), (16, 16), (16, 17)])
def test_worst_family_recon_equals_per_member_rebuild_across_chunks(chunk, trials, monkeypatch):
    monkeypatch.setattr(experiments, "RECON_CHUNK", chunk)
    worst = experiments._worst_family_recon(np.random.default_rng(SEED + 62 + chunk), trials)
    assert worst == loop_worst_family_recon(np.random.default_rng(SEED + 62 + chunk), trials)


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

#: a grid just above the crossover, solved by ?stemr
ABOVE_CROSSOVER = spectral.STEMR_CROSSOVER + 64


def grid_band_operators(npoints):
    """The grid model's q, p and H, each held as its bands."""
    model = build_grid_model(GridMeta(length=1.0, npoints=npoints))
    return {"q": model.q, "p": model.p, "H": model.hamiltonian}


@pytest.mark.parametrize("npoints", [16, 128, 512])
@pytest.mark.parametrize("name", ["q", "p", "H"])
def test_band_solve_below_crossover_keeps_the_dense_bytes(name, npoints):
    """Up to the crossover a band operator is solved to the bytes of its certified dense matrix."""
    op = grid_band_operators(npoints)[name]
    assert isinstance(op, BandOperator)
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


@pytest.mark.parametrize("name", ["q", "H"])
def test_band_solve_above_crossover_is_backward_stable(name):
    """?stemr's levels lie within N*eps*||A|| of the dense solve's, as both are
    backward stable; its basis is orthonormal to N*eps, each eigenpair's
    residual is within N*eps*||A||, and the conventions hold."""
    op = grid_band_operators(ABOVE_CROSSOVER)[name]
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


@pytest.mark.parametrize("npoints, bytes_per_entry", [
    (512, spectral.DENSE_BAND_BYTES_PER_ENTRY),
    (ABOVE_CROSSOVER, spectral.STEMR_BYTES_PER_ENTRY),
])
def test_band_solve_declares_what_it_allocates(npoints, bytes_per_entry, monkeypatch):
    """Each band path refuses by its own byte count, and that count covers the
    traced peak of the decomposition, up to 32 float64 vectors of O(N) workspace."""
    import scipy.linalg  # noqa: F401  (imported outside the trace)

    hamiltonian = grid_hamiltonian(GridMeta(length=1.0, npoints=npoints))
    declared = []
    monkeypatch.setattr(spectral, "_require_fits", lambda grid, need, what: declared.append(need))
    tracemalloc.start()
    try:
        eigendecompose(hamiltonian)
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
