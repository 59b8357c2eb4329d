"""State vectors, grids, and the trace-form inner product."""

import numpy as np
import pytest

from traceqm import (
    TRACE_OF_ONE,
    DegenerateSetError,
    DimensionError,
    GridError,
    GridMeta,
    SamplingError,
    StateVector,
    ZeroVectorError,
    complex_inner,
    grid_sample,
    normalize,
    real_inner,
    superpose,
    trace,
)
from traceqm.states import _orthonormal_rows, _raw_inner, _raw_norm

SEED = 2202
ORTH_TOL = 1e-10


def random_state(rng, dim, grid=None):
    c = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return normalize(StateVector(c, grid))


# ---------------------------------------------------------------- grids


class TestGridMeta:
    def test_spacing_excludes_boundary_points(self):
        g = GridMeta(length=1.0, npoints=9)
        assert g.spacing == pytest.approx(0.1)
        np.testing.assert_allclose(g.positions, np.arange(1, 10) * 0.1)

    def test_positions_are_interior(self):
        g = GridMeta(length=2.0, npoints=15)
        assert g.positions[0] > 0.0
        assert g.positions[-1] < 2.0
        assert len(g.positions) == 15

    @pytest.mark.parametrize("bad", [0, 7, -3])
    def test_too_few_points_rejected(self, bad):
        with pytest.raises(GridError):
            GridMeta(length=1.0, npoints=bad)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"length": 0.0, "npoints": 16},
            {"length": -1.0, "npoints": 16},
            {"length": 1.0, "npoints": 16, "mass": 0.0},
            {"length": 1.0, "npoints": 16, "hbar": -1.0},
            {"length": float("nan"), "npoints": 16},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(GridError):
            GridMeta(**kwargs)

    def test_is_immutable(self):
        g = GridMeta(length=1.0, npoints=16)
        with pytest.raises(Exception):
            g.length = 2.0


# ---------------------------------------------------------------- vectors


def test_state_vector_basic():
    v = StateVector([1.0, 2.0, 3.0])
    assert v.dim == 3
    assert v.grid is None
    assert v.coeffs.dtype == np.complex128
    assert v.norm() == pytest.approx(np.sqrt(14.0))


def test_state_vector_is_immutable():
    v = StateVector([1.0, 0.0])
    with pytest.raises(Exception):
        v.coeffs = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        v.coeffs[0] = 5.0  # backing array is read only


def test_empty_and_bad_shape_rejected():
    with pytest.raises(DimensionError):
        StateVector([])
    with pytest.raises(DimensionError):
        StateVector([[1.0, 0.0], [0.0, 1.0]])


def test_grid_length_mismatch_rejected():
    g = GridMeta(length=1.0, npoints=8)
    with pytest.raises(GridError):
        StateVector(np.ones(9), g)


def test_nonfinite_coefficients_rejected():
    with pytest.raises(ValueError):
        StateVector([1.0, float("inf")])


# ---------------------------------------------------------------- inner products


def test_real_inner_is_trace_of_complex_inner():
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        f = random_state(rng, 6)
        g = random_state(rng, 6)
        z = complex_inner(f, g)
        assert real_inner(f, g) == pytest.approx(trace(z), abs=1e-14)
        assert real_inner(f, g) == pytest.approx(2.0 * z.re, abs=1e-14)


def test_real_inner_of_unit_vector_with_itself():
    # the real form assigns a normalized state squared length TRACE_OF_ONE
    rng = np.random.default_rng(SEED + 1)
    f = random_state(rng, 5)
    assert real_inner(f, f) == pytest.approx(TRACE_OF_ONE, abs=1e-12)


def test_real_inner_is_symmetric():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(50):
        f = random_state(rng, 4)
        g = random_state(rng, 4)
        assert real_inner(f, g) == pytest.approx(real_inner(g, f), abs=1e-12)


def test_complex_inner_conjugate_symmetry():
    rng = np.random.default_rng(SEED + 3)
    f = random_state(rng, 7)
    g = random_state(rng, 7)
    z = complex_inner(f, g)
    w = complex_inner(g, f)
    assert z.to_complex() == pytest.approx(np.conj(w.to_complex()), abs=1e-14)


def test_grid_inner_product_carries_measure_weight():
    g = GridMeta(length=1.0, npoints=100)
    ones = StateVector(np.ones(100), g)
    # sum h * 1 over interior points approximates the box length
    raw = complex_inner(ones, ones).to_complex()
    assert raw.real == pytest.approx(100 * g.spacing, rel=1e-12)


def test_inner_mismatched_grids_rejected():
    a = StateVector(np.ones(8), GridMeta(length=1.0, npoints=8))
    b = StateVector(np.ones(8), GridMeta(length=2.0, npoints=8))
    with pytest.raises(GridError):
        complex_inner(a, b)


def test_inner_mismatched_dims_rejected():
    with pytest.raises(DimensionError):
        complex_inner(StateVector([1, 0]), StateVector([1, 0, 0]))


# ---------------------------------------------------------------- construction helpers


def test_normalize_unit_norm():
    v = normalize(StateVector([3.0, 4.0]))
    assert v.norm() == pytest.approx(1.0, abs=1e-15)
    assert v.normalized


@pytest.mark.parametrize("grid", [None, GridMeta(length=1.0, npoints=8)], ids=["bare", "grid"])
def test_norm_and_normalized_are_python_scalars(grid):
    s = normalize(StateVector(np.arange(1.0, 9.0), grid))
    assert type(s.norm()) is float
    assert type(s.normalized) is bool


def test_normalize_zero_vector_raises():
    with pytest.raises(ZeroVectorError):
        normalize(StateVector([0.0, 0.0]))


#: row scales of a stack: ordinary rows, and rows whose squares overflow (2**600)
#: or underflow (2**-600) and take the scaled fallback, and a zero row
MIXED_SCALES = (1.0, 2.0**600, 3.0, 2.0**-600, 0.5, 2.0**600, 0.0, 2.0**-600)


@pytest.mark.parametrize("grid", [None, GridMeta(length=3.0, npoints=8)], ids=["bare", "grid"])
def test_stacked_norm_gives_each_row_its_own_bits(grid):
    """Each row of a stack mixing ordinary and scaled-fallback rows has the
    bits of its norm alone, in any order and layout of the stack: an ordinary
    row's are np.linalg.norm's, and a fallback row's are those of its entries
    scaled by 2**-e, e the exponent of its largest part, with the norm scaled
    back by 2**e."""
    rng = np.random.default_rng(SEED + 1)
    rows = np.array([(rng.standard_normal(8) + 1j * rng.standard_normal(8)) * s for s in MIXED_SCALES])
    weight = np.sqrt(1.0 if grid is None else grid.spacing)
    references = []
    for row, scale in zip(rows, MIXED_SCALES):
        e = np.frexp(max(abs(row.real).max(), abs(row.imag).max()))[1] if scale in (2.0**600, 2.0**-600) else 0
        scaled = np.ldexp(row.real, -e) + 1j * np.ldexp(row.imag, -e)
        references.append((float(np.ldexp(np.linalg.norm(scaled), e)) * weight).hex())
    assert all(float(_raw_norm(row, grid)).hex() == reference for row, reference in zip(rows, references))
    for order in (slice(None), slice(None, None, -1)):
        for stack in (rows[order], np.asfortranarray(rows[order])):
            assert [float(norm).hex() for norm in _raw_norm(stack, grid)] == references[order]
    norms = _raw_norm(rows, grid)
    assert np.all(np.isfinite(norms)) and np.count_nonzero(norms) == len(MIXED_SCALES) - 1
    # a norm of finite entries beyond the float range is refused, alone or in a stack
    beyond = np.array([1.5e308, 1.5e308j, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    for stack in (beyond, np.array([rows[0], beyond])):
        with pytest.raises(OverflowError):
            _raw_norm(stack, grid)


def test_stacked_inner_equals_vdot_per_row():
    rng = np.random.default_rng(SEED + 2)
    grid = GridMeta(length=3.0, npoints=8)
    a, b = (np.array([(rng.standard_normal(8) + 1j * rng.standard_normal(8)) * s for s in MIXED_SCALES[:3]])
            for _ in range(2))
    for g in (None, grid):
        weight = 1.0 if g is None else g.spacing
        for row_a, row_b, inner in zip(a, b, _raw_inner(a, b, g)):
            reference = complex(np.vdot(row_a, row_b)) * weight
            assert (inner.real.hex(), inner.imag.hex()) == (reference.real.hex(), reference.imag.hex())


def test_superpose_is_the_raw_weighted_sum():
    # not auto-normalized: the caller decides when to normalize
    e0 = StateVector([1.0, 0.0])
    e1 = StateVector([0.0, 1.0])
    v = superpose([e0, e1], [2 ** -0.5, 2 ** -0.5])
    np.testing.assert_allclose(v.coeffs, [2 ** -0.5, 2 ** -0.5], atol=1e-15)
    w = superpose([e0, e1], [1.0, 1j])
    np.testing.assert_allclose(w.coeffs, [1.0, 1j], atol=1e-15)
    assert w.norm() == pytest.approx(np.sqrt(2.0))


def test_superpose_accepts_trace_scalar_weights():
    from traceqm import IMAG_UNIT, ONE

    e0 = StateVector([1.0, 0.0])
    e1 = StateVector([0.0, 1.0])
    v = superpose([e0, e1], [ONE, IMAG_UNIT])
    np.testing.assert_allclose(v.coeffs, [1.0, 1j], atol=1e-15)


def test_superpose_rejects_degenerate_input():
    e0 = StateVector([1.0, 0.0])
    with pytest.raises(ZeroVectorError):
        superpose([e0, e0], [0.0, 0.0])
    with pytest.raises(DimensionError):
        superpose([e0], [1.0, 2.0])
    with pytest.raises(DimensionError):
        superpose([], [])


def test_superpose_mixed_grids_rejected():
    g = GridMeta(length=1.0, npoints=8)
    a = StateVector(np.ones(8), g)
    b = StateVector(np.ones(8))
    with pytest.raises(GridError):
        superpose([a, b], [1.0, 1.0])


def test_gram_schmidt_orthonormal_output():
    """``_orthonormal_rows``, the modified Gram-Schmidt sweep, returns orthonormal rows."""
    rng = np.random.default_rng(SEED + 4)
    rows = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    basis = [StateVector(row) for row in _orthonormal_rows(rows)]
    assert len(basis) == 4
    for i, u in enumerate(basis):
        for j, w in enumerate(basis):
            want = 1.0 if i == j else 0.0
            got = complex_inner(u, w).to_complex()
            assert abs(got - want) <= ORTH_TOL


def test_gram_schmidt_detects_dependence():
    rows = np.array([[1.0, 0.0, 0.0],
                     [0.0, 1.0, 0.0],
                     [1.0, 1.0, 0.0]])  # the last row in the span of the first two
    with pytest.raises(DegenerateSetError, match="vector 2 is dependent"):
        _orthonormal_rows(rows)
    with pytest.raises(DegenerateSetError, match="vector 1 is zero"):
        _orthonormal_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_grid_sample_normalizes():
    g = GridMeta(length=1.0, npoints=64)
    psi = grid_sample(lambda x: np.sin(np.pi * x), g)
    assert psi.grid is g
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)


def test_grid_sample_ground_state_shape():
    # lowest box mode: coefficients all share one phase and peak mid box
    g = GridMeta(length=1.0, npoints=65)
    psi = grid_sample(lambda x: np.sin(np.pi * x), g)
    mag = np.abs(psi.coeffs)
    assert np.argmax(mag) == 32
    assert mag[0] == pytest.approx(mag[-1], rel=1e-10)


def test_grid_sample_rejects_nonfinite_profile():
    g = GridMeta(length=1.0, npoints=8)
    with pytest.raises(SamplingError):
        grid_sample(lambda x: float("nan"), g)
