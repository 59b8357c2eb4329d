"""Operator certification, expectation values, and the alpha/beta split."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceqm import (
    AvResult,
    DimensionError,
    GridError,
    GridMeta,
    HermitianOperator,
    NotHermitianError,
    NumericalError,
    Operator,
    StateError,
    StateVector,
    adjoint,
    av_decompose,
    certify_hermitian,
    complex_inner,
    dispersion,
    expect_c,
    expect_r,
    normalize,
    real_inner,
    sym_antisym_split,
)

from traceqm import (
    build_grid_model,
    build_oscillator_ladder,
    commute_check,
    eigendecompose,
    evolve_operator,
    evolve_state,
    gram_schmidt,
    measure_once,
    sample_rng,
    simultaneous_diagonalize,
    superpose,
)
from traceqm.operators import STATE_NORM_TOL, _certify_stack, _require_normalized

SEED = 3303
ORTH_TOL = 1e-10
RESIDUAL_TOL = 1e-9

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y = np.array([[0.0, -1j], [1j, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def random_hermitian(rng, dim, grid=None):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return certify_hermitian((m + m.conj().T) / 2.0, grid=grid)


def random_state(rng, dim, grid=None):
    c = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return normalize(StateVector(c, grid))


# ---------------------------------------------------------------- certification


def test_certify_accepts_hermitian():
    a = certify_hermitian(PAULI_Z)
    assert isinstance(a, HermitianOperator)
    assert a.certificate == 0.0  # worst entry deviation found at certification


def test_certify_rejects_nonhermitian():
    with pytest.raises(NotHermitianError) as exc:
        certify_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert exc.value.deviation > exc.value.bound


@pytest.mark.parametrize("order", [(0, 1, 2), (0, 2, 1), (1, 0, 2), (2, 1, 0)])
def test_certify_stack_refuses_its_first_failing_matrix_as_certify_hermitian_does(order):
    """A stack's scales and deviations are each matrix's own, and its first
    failing matrix is refused with certify_hermitian's error for it, whether
    skewed or non-finite, and with no warning from the non-finite one."""
    rng = np.random.default_rng(SEED + 30)
    good = random_hermitian(rng, 3)
    skewed = good.matrix.copy()
    skewed[0, 1] += 1.0
    infinite = good.matrix.copy()
    infinite[1, 1] = np.inf
    stack = np.stack([(good.matrix, skewed, infinite)[i] for i in order])
    with pytest.raises(NotHermitianError) as single:
        certify_hermitian(stack[[i for i in range(3) if order[i]][0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotHermitianError, match=re.escape(str(single.value))):
            _certify_stack(stack)
    scales, deviations = _certify_stack(good.matrix[None])
    assert (scales[0], deviations[0]) == (good.scale, good.certificate)


@pytest.mark.parametrize("entries", [
    {(0, 0): np.inf},
    {(0, 1): np.nan},
    {(0, 0): np.inf, (0, 1): np.nan},
    {(0, 1): np.inf, (1, 0): np.inf},  # symmetric inf: deviation reads NaN, bound inf
])
def test_certify_refuses_non_finite_entries(entries):
    m = np.array(PAULI_X, dtype=np.complex128)
    for index, value in entries.items():
        m[index] = value
    with np.errstate(invalid="ignore"):
        with pytest.raises(NotHermitianError, match="non-finite"):
            certify_hermitian(m)


def test_certify_refuses_non_finite_entries_without_a_warning():
    m = np.array(PAULI_X, dtype=np.complex128)
    m[0, 0] = np.inf  # inf - inf in the deviation is NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotHermitianError, match=r"deviation nan exceeds bound inf \(matrix has non-finite entries\)"):
            certify_hermitian(m)


def test_certify_shares_an_operators_matrix_and_copies_a_bare_array():
    op = Operator(PAULI_Y)
    certified = certify_hermitian(op)
    assert certified.matrix is op.matrix
    assert not certified.matrix.flags.writeable
    original = np.array(PAULI_Y)
    bare = certify_hermitian(original)
    assert not np.shares_memory(bare.matrix, original)
    original[0, 1] = 5.0
    np.testing.assert_array_equal(bare.matrix, PAULI_Y)


def test_certify_same_result_for_operator_and_bare_matrix():
    rng = np.random.default_rng(SEED + 20)
    g = GridMeta(length=1.0, npoints=12)
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    h = (m + m.conj().T) / 2.0
    for skew in (1e-13, 1e-3):  # within and beyond the default bound
        skewed = h.copy()
        skewed[0, 1] += skew
        deviation = float(np.max(np.abs(skewed - skewed.conj().T)))
        bound = 1e-10 * float(np.max(np.abs(skewed)))
        for given in (skewed, Operator(skewed), Operator(skewed, g)):
            grid = given.grid if isinstance(given, Operator) else None
            if deviation <= bound:
                a = certify_hermitian(given)
                assert a.certificate == deviation
                assert a.grid is grid
                np.testing.assert_array_equal(a.matrix, skewed)
            else:
                with pytest.raises(NotHermitianError) as exc:
                    certify_hermitian(given)
                assert (exc.value.deviation, exc.value.bound) == (deviation, bound)
    assert certify_hermitian(h, grid=g).grid is g


def test_certify_makes_no_extra_copy_of_an_operator():
    """Beyond the certified copy, only the adjoint (overwritten by the difference)
    and its real magnitude are formed: 1.5 matrices, below 2."""
    n = 300
    rng = np.random.default_rng(SEED + 21)
    m = rng.standard_normal((n, n))
    op = Operator(m + m.T)
    tracemalloc.start()
    try:
        certify_hermitian(op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * 16 * n * n


def test_certify_tolerance_is_relative_to_scale():
    # deviation 1e-8 hides below tol once entries reach 1e3
    m = 1e3 * PAULI_X.astype(complex)
    m[0, 1] += 1e-8
    a = certify_hermitian(m)
    assert a.certificate <= 1e-10 * (1.0 + 1e3)
    with pytest.raises(NotHermitianError):
        certify_hermitian(PAULI_X + np.array([[0.0, 1e-8], [0.0, 0.0]]))


def test_certify_rejects_nonsquare():
    with pytest.raises(DimensionError):
        certify_hermitian(np.ones((2, 3)))


def test_adjoint_matches_conjugate_transpose():
    rng = np.random.default_rng(SEED)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = Operator(m)
    np.testing.assert_allclose(adjoint(a).matrix, m.conj().T)


def test_sym_antisym_split_reassembles():
    """A*B = S + i*D with S, D both certified hermitian."""
    rng = np.random.default_rng(SEED + 1)
    for _ in range(25):
        a = random_hermitian(rng, 5)
        b = random_hermitian(rng, 5)
        s, d = sym_antisym_split(a, b)
        assert isinstance(s, HermitianOperator)
        assert isinstance(d, HermitianOperator)
        np.testing.assert_allclose(
            s.matrix + 1j * d.matrix, a.matrix @ b.matrix, atol=1e-12
        )


def test_sym_antisym_split_pauli():
    # sigma_x sigma_y = i sigma_z: symmetric part vanishes
    a = certify_hermitian(PAULI_X)
    b = certify_hermitian(PAULI_Y)
    s, d = sym_antisym_split(a, b)
    np.testing.assert_allclose(s.matrix, np.zeros((2, 2)), atol=1e-15)
    np.testing.assert_allclose(d.matrix, PAULI_Z, atol=1e-15)


def test_operator_apply_and_matmul():
    a = Operator(PAULI_X)
    v = StateVector([1.0, 0.0])
    np.testing.assert_allclose(a.apply(v).coeffs, [0.0, 1.0])
    both = Operator(PAULI_X) @ Operator(PAULI_Y)
    np.testing.assert_allclose(both.matrix, PAULI_X @ PAULI_Y)


def test_operator_grid_mismatch_rejected():
    g = GridMeta(length=1.0, npoints=8)
    a = Operator(np.eye(8), grid=g)
    with pytest.raises(GridError):
        a.apply(StateVector(np.ones(8)))
    with pytest.raises(DimensionError):
        Operator(np.eye(8)).apply(StateVector([1.0, 0.0]))


GRID_8 = GridMeta(length=1.0, npoints=8)


def _space_state(space, power=1):
    dim, grid = space
    return normalize(StateVector(np.arange(1.0, dim + 1.0) ** power, grid))


def _space_op(space):
    dim, grid = space
    return certify_hermitian(np.diag(np.arange(1.0, dim + 1.0)), grid=grid)


def _space_model(space):
    dim, grid = space
    return build_oscillator_ladder(dim) if grid is None else build_grid_model(grid)


#: every entry point that takes two operands of one space, called on an
#: operand of the first space and one of the second
SAME_SPACE_CALLS = {
    "apply": lambda a, b: _space_op(a).apply(_space_state(b)),
    "matmul": lambda a, b: _space_op(a) @ _space_op(b),
    "complex_inner": lambda a, b: complex_inner(_space_state(a), _space_state(b)),
    "superpose": lambda a, b: superpose([_space_state(a), _space_state(b)], [1.0, 1.0]),
    "gram_schmidt": lambda a, b: gram_schmidt([_space_state(a), _space_state(b, 2)]),
    "expect_c": lambda a, b: expect_c(_space_op(a), _space_state(b)),
    "measure_once": lambda a, b: measure_once(eigendecompose(_space_op(a)), _space_state(b), sample_rng(0, 0)),
    "evolve_state": lambda a, b: evolve_state(_space_model(a), _space_state(b), 0.1),
    "evolve_operator": lambda a, b: evolve_operator(_space_model(a), _space_op(b), 0.1),
    "commute_check": lambda a, b: commute_check([_space_op(a), _space_op(b)]),
    "simultaneous_diagonalize": lambda a, b: simultaneous_diagonalize([_space_op(a), _space_op(b)]),
}


@pytest.mark.parametrize("call", SAME_SPACE_CALLS.values(), ids=SAME_SPACE_CALLS.keys())
@pytest.mark.parametrize("other, error", [
    pytest.param((9, None), DimensionError, id="dim"),
    pytest.param((8, GridMeta(length=2.0, npoints=8)), GridError, id="grid"),
])
def test_same_space_entry_points_refuse_other_spaces(call, other, error):
    call((8, GRID_8), (8, GridMeta(length=1.0, npoints=8)))  # an equal grid is the same space
    with pytest.raises(error):
        call((8, GRID_8), other)


# ---------------------------------------------------------------- expectations


def test_expect_r_is_twice_expect_c():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(100):
        a = random_hermitian(rng, 6)
        psi = random_state(rng, 6)
        c = expect_c(a, psi)
        r = expect_r(a, psi)
        assert r == pytest.approx(2.0 * c, abs=1e-12)


def test_expectation_of_identity():
    psi = random_state(np.random.default_rng(SEED + 3), 4)
    eye = certify_hermitian(np.eye(4))
    assert expect_c(eye, psi) == pytest.approx(1.0, abs=1e-12)
    assert expect_r(eye, psi) == pytest.approx(2.0, abs=1e-12)


def test_expectation_requires_normalized_state():
    a = certify_hermitian(PAULI_Z)
    with pytest.raises(StateError):
        expect_c(a, StateVector([2.0, 0.0]))


def test_imaginary_expectation_raises_numerical_error():
    # labeled hermitian without certification, so the expectation is complex
    a = HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    psi = normalize(StateVector([1.0, 1j]))
    for route in (expect_c, dispersion, av_decompose):
        with pytest.raises(NumericalError) as exc:
            route(a, psi)
        assert exc.value.value == pytest.approx(0.5)
        assert exc.value.bound == pytest.approx(1e-10 * 0.5**0.5)


def test_expectation_pauli_values():
    a = certify_hermitian(PAULI_Z)
    up = StateVector([1.0, 0.0])
    down = StateVector([0.0, 1.0])
    plus = normalize(StateVector([1.0, 1.0]))
    assert expect_c(a, up) == pytest.approx(1.0)
    assert expect_c(a, down) == pytest.approx(-1.0)
    assert expect_c(a, plus) == pytest.approx(0.0, abs=1e-15)


def test_weak_commutativity_of_real_expectations():
    """tr<psi|(AB - BA)|psi> vanishes for hermitian A, B.

    The product operators fail hermiticity individually, yet the trace-form
    expectation cannot tell AB from BA.
    """
    rng = np.random.default_rng(SEED + 4)
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        a = random_hermitian(rng, dim)
        b = random_hermitian(rng, dim)
        psi = random_state(rng, dim)
        gap = expect_r(a @ b, psi) - expect_r(b @ a, psi)
        assert abs(gap) <= ORTH_TOL


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), exponent=st.integers(-200, 200))
def test_weak_commutativity_at_any_dimension_seed_and_scale(dim, seed, exponent):
    """tr<psi|AB psi> = tr<psi|BA psi> up to roundoff at the operands' own scale.

    AB and BA, their images of psi and the inner products each carry at most
    about dim*eps of |A||B| in every entry, and the trace form doubles the
    real part, so the gap is bounded by 8*dim*eps*|A|_F*|B|_F for unit psi.
    """
    rng = np.random.default_rng(seed)
    scale = 2.0 ** exponent
    a = certify_hermitian(random_hermitian(rng, dim).matrix * scale)
    b = certify_hermitian(random_hermitian(rng, dim).matrix * scale)
    psi = random_state(rng, dim)
    gap = expect_r(a @ b, psi) - expect_r(b @ a, psi)
    eps = np.finfo(np.float64).eps
    assert abs(gap) <= 8 * dim * eps * np.linalg.norm(a.matrix) * np.linalg.norm(b.matrix)


def test_expect_r_of_product_is_symmetrized_expectation():
    # tr<AB> equals <AB + BA> in the complex form
    rng = np.random.default_rng(SEED + 11)
    a = random_hermitian(rng, 4)
    b = random_hermitian(rng, 4)
    psi = random_state(rng, 4)
    sym = certify_hermitian(a.matrix @ b.matrix + b.matrix @ a.matrix)
    assert expect_r(a @ b, psi) == pytest.approx(expect_c(sym, psi), abs=1e-10)


def test_expectation_of_position_in_ground_state():
    # the lowest box mode is symmetric about the midpoint
    from traceqm import build_grid_model, eigendecompose

    g = GridMeta(length=1.0, npoints=400)
    model = build_grid_model(g, "infinite_well")
    dec = eigendecompose(model.hamiltonian)
    ground = dec.eigenvectors[0]
    assert expect_c(model.q, ground) == pytest.approx(0.5, abs=1e-6)


def test_dispersion_zero_on_eigenstate():
    a = certify_hermitian(PAULI_Z)
    assert dispersion(a, StateVector([1.0, 0.0])) == 0.0


def test_dispersion_on_balanced_superposition():
    a = certify_hermitian(PAULI_Z)
    plus = normalize(StateVector([1.0, 1.0]))
    assert dispersion(a, plus) == pytest.approx(1.0, abs=1e-12)


def test_dispersion_never_negative_under_roundoff():
    rng = np.random.default_rng(SEED + 5)
    for _ in range(100):
        a = random_hermitian(rng, 3)
        psi = random_state(rng, 3)
        assert dispersion(a, psi) >= 0.0


# ---------------------------------------------------------------- alpha/beta split


def test_av_decompose_eigenstate_branch():
    a = certify_hermitian(PAULI_Z)
    res = av_decompose(a, StateVector([1.0, 0.0]))
    assert isinstance(res, AvResult)
    assert res.alpha == pytest.approx(1.0)
    assert res.beta == 0.0
    assert res.perp is None


def test_av_decompose_cat_branch():
    # balanced superposition of the +1/-1 eigenstates: alpha 0, beta 1
    a = certify_hermitian(PAULI_Z)
    plus = normalize(StateVector([1.0, 1.0]))
    res = av_decompose(a, plus)
    assert res.alpha == pytest.approx(0.0, abs=1e-15)
    assert res.beta == pytest.approx(1.0, abs=1e-12)
    assert res.perp is not None
    # perp is the flipped cat, orthogonal and normalized
    assert abs(complex_inner(plus, res.perp).to_complex()) <= ORTH_TOL
    assert res.perp.norm() == pytest.approx(1.0, abs=1e-12)


def test_av_decompose_reconstructs_image():
    """A|psi> = alpha|psi> + beta|perp> with orthonormal pieces."""
    rng = np.random.default_rng(SEED + 6)
    for _ in range(200):
        dim = int(rng.integers(2, 12))
        a = random_hermitian(rng, dim)
        psi = random_state(rng, dim)
        res = av_decompose(a, psi)
        image = a.matrix @ psi.coeffs
        rebuilt = res.alpha * psi.coeffs
        if res.perp is not None:
            rebuilt = rebuilt + res.beta * res.perp.coeffs
            overlap = complex_inner(psi, res.perp).to_complex()
            assert abs(overlap) <= ORTH_TOL
            assert res.perp.norm() == pytest.approx(1.0, abs=1e-10)
        assert res.beta >= 0.0
        scale = 1.0 + float(np.linalg.norm(image))
        assert float(np.linalg.norm(image - rebuilt)) <= RESIDUAL_TOL * scale


def test_av_decompose_beta_matches_dispersion():
    # residual-norm route in av_decompose vs moment route in dispersion
    rng = np.random.default_rng(SEED + 7)
    for _ in range(100):
        a = random_hermitian(rng, 5)
        psi = random_state(rng, 5)
        res = av_decompose(a, psi)
        assert res.beta == pytest.approx(dispersion(a, psi), abs=1e-12)


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6), k=st.integers(-600, 600))
@settings(max_examples=200, deadline=None)
def test_av_split_scales_exactly_with_the_operator(seed, dim, k):
    """Scaling A by 2**k scales alpha, beta and the dispersion by exactly 2**k,
    even where the squares of A psi's entries overflow or underflow."""
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, dim)
    psi = random_state(rng, dim)
    factor = 2.0**k
    scaled = certify_hermitian(a.matrix * factor)
    res, res_k = av_decompose(a, psi), av_decompose(scaled, psi)
    assert res_k.alpha == res.alpha * factor
    assert res_k.beta == res.beta * factor
    assert dispersion(scaled, psi) == dispersion(a, psi) * factor


def test_variance_moment_identity():
    # dispersion^2 + <A>^2 recovers <A^2>
    rng = np.random.default_rng(SEED + 10)
    for _ in range(100):
        a = random_hermitian(rng, 6)
        psi = random_state(rng, 6)
        a_sq = certify_hermitian(a.matrix @ a.matrix)
        lhs = dispersion(a, psi) ** 2 + expect_c(a, psi) ** 2
        assert lhs == pytest.approx(expect_c(a_sq, psi), abs=1e-9)


def test_av_decompose_on_grid_states():
    g = GridMeta(length=1.0, npoints=32)
    rng = np.random.default_rng(SEED + 8)
    a = random_hermitian(rng, 32, grid=g)
    psi = random_state(rng, 32, grid=g)
    res = av_decompose(a, psi)
    assert res.perp is None or res.perp.grid is g
    image = a.matrix @ psi.coeffs
    rebuilt = res.alpha * psi.coeffs
    if res.perp is not None:
        rebuilt = rebuilt + res.beta * res.perp.coeffs
    scale = 1.0 + float(np.sqrt(g.spacing) * np.linalg.norm(image))
    gap = float(np.sqrt(g.spacing) * np.linalg.norm(image - rebuilt))
    assert gap <= RESIDUAL_TOL * scale


def test_real_inner_view_of_av_split():
    # alpha and beta are recoverable from trace-form inner products alone
    rng = np.random.default_rng(SEED + 9)
    a = random_hermitian(rng, 6)
    psi = random_state(rng, 6)
    res = av_decompose(a, psi)
    image = StateVector(a.matrix @ psi.coeffs)
    assert real_inner(psi, image) / 2.0 == pytest.approx(res.alpha, abs=1e-12)
    if res.perp is not None:
        assert real_inner(res.perp, image) / 2.0 == pytest.approx(res.beta, abs=1e-10)


@pytest.mark.parametrize("factor", [0.5, 4.0])
def test_normalized_flag_agrees_with_the_enforced_bound(factor):
    """One tolerance: a state reads as normalized exactly when expectations,
    evolution and measurement accept it."""
    r = 2.0 ** -0.5
    state = StateVector([r * (1.0 + factor * STATE_NORM_TOL), r])
    try:
        _require_normalized(state)
        accepted = True
    except StateError:
        accepted = False
    assert state.normalized == accepted == (factor < 1.0)
