"""Model systems, Poisson/commutator correspondence, and time evolution."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceqm import dynamics, spectral
from traceqm.operators import STATE_NORM_TOL
from traceqm import (
    BracketCheck,
    ConvergenceError,
    DegreeError,
    GridMeta,
    InputError,
    ModelSystem,
    NumericalError,
    PolynomialObservable,
    StateError,
    StateVector,
    TruncationError,
    apply_function,
    bracket_correspondence,
    build_grid_model,
    build_oscillator_ladder,
    certify_hermitian,
    complex_inner,
    dispersion,
    eigendecompose,
    eigenvalues,
    evolve_operator,
    evolve_state,
    expect_c,
    gaussian_spread_width,
    grid_hamiltonian,
    grid_levels,
    grid_sample,
    heisenberg_rhs,
    normalize,
    oscillator_hamiltonian_poly,
    poisson_rhs_classical,
    quantize,
    spread_series,
    superpose,
    well_level_energy,
)

SEED = 5505

# oscillator parameters used throughout; chosen away from 1 so unit bugs show
MASS = 1.3
OMEGA = 0.7
HBAR = 2.0


def ladder_state(model, weights):
    """Finite superposition of the lowest ladder levels."""
    dim = model.dim
    states, w = [], []
    for level, weight in enumerate(weights):
        if weight == 0.0:
            continue
        c = np.zeros(dim)
        c[level] = 1.0
        states.append(StateVector(c))
        w.append(weight)
    return normalize(superpose(states, w))


# ---------------------------------------------------------------- polynomials


class TestPolynomialObservable:
    def test_generators_and_evaluate(self):
        q = PolynomialObservable.q()
        p = PolynomialObservable.p()
        poly = 2.0 * q * q + q * p - 3.0 * PolynomialObservable.constant(1.0)
        assert poly.evaluate(2.0, 5.0) == pytest.approx(2 * 4 + 10 - 3)
        assert poly.degree() == 2

    def test_zero_terms_dropped(self):
        q = PolynomialObservable.q()
        assert (q - q).monomials == {}
        assert (q - q).degree() == 0

    def test_derivatives(self):
        q = PolynomialObservable.q()
        p = PolynomialObservable.p()
        poly = q * q * p  # q^2 p
        assert poly.diff_q() == 2.0 * (q * p)
        assert poly.diff_p() == q * q

    def test_degree_cap_enforced(self):
        q = PolynomialObservable.q()
        cube = q * q * q
        with pytest.raises(DegreeError):
            cube * cube * q  # degree 7
        with pytest.raises(DegreeError):
            PolynomialObservable({(4, 3): 1.0})

    def test_rejects_bad_monomials(self):
        with pytest.raises(ValueError):
            PolynomialObservable({(-1, 0): 1.0})
        with pytest.raises(ValueError):
            PolynomialObservable({(0, 0): float("nan")})

    def test_immutability(self):
        q = PolynomialObservable.q()
        with pytest.raises(AttributeError):
            q._monomials = {}
        grabbed = q.monomials
        grabbed[(5, 0)] = 9.0
        assert q.monomials == {(1, 0): 1.0}


# ---------------------------------------------------------------- grid models


def test_grid_position_is_exact_diagonal():
    g = GridMeta(length=2.0, npoints=16)
    model = build_grid_model(g, "infinite_well")
    np.testing.assert_array_equal(np.diag(model.q.matrix).real, g.positions)
    assert model.kind == "grid_well"


def test_grid_momentum_certificate_tiny():
    g = GridMeta(length=1.0, npoints=64)
    model = build_grid_model(g, "free")
    assert model.p.certificate <= 1e-14
    assert model.kind == "grid_free"


def loop_grid_stencils(g):
    """Momentum and kinetic matrices filled entry by entry, the reference
    for the vectorized builders."""
    n, h = g.npoints, g.spacing
    p = np.zeros((n, n), dtype=np.complex128)
    off = g.hbar / (2.0 * h)
    kinetic = np.zeros((n, n), dtype=np.complex128)
    k = g.hbar * g.hbar / (2.0 * g.mass * h * h)
    np.fill_diagonal(kinetic, 2.0 * k)
    for j in range(n - 1):
        p[j, j + 1] = -1j * off
        p[j + 1, j] = 1j * off
        kinetic[j, j + 1] = -k
        kinetic[j + 1, j] = -k
    return p, kinetic


def test_grid_stencils_bit_identical_to_loop_reference():
    g = GridMeta(length=1.3, npoints=37, mass=0.7, hbar=1.9)
    p_ref, kinetic_ref = loop_grid_stencils(g)
    hamiltonian = grid_hamiltonian(g)
    model = build_grid_model(g, "free")
    assert hamiltonian.grid is g
    assert hamiltonian.matrix.tobytes() == model.hamiltonian.matrix.tobytes() == kinetic_ref.tobytes()
    assert model.p.matrix.tobytes() == p_ref.tobytes()
    assert hamiltonian.certificate == model.hamiltonian.certificate == 0.0


@pytest.mark.parametrize("build, bytes_per_point", [
    (grid_hamiltonian, dynamics.STENCIL_BYTES_PER_POINT),
    (build_grid_model, dynamics.GRID_MODEL_BYTES_PER_POINT),
])
def test_declared_band_working_set_of_builders_bounds_traced_peak(build, bytes_per_point):
    """The byte counts behind the builders' memory refusal cover what they
    allocate, O(N) with no N x N matrix, at a grid whose dense matrix alone
    would need 160 GB."""
    g = GridMeta(length=1.0, npoints=100_000)
    tracemalloc.start()
    try:
        built = build(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built.dim == g.npoints
    assert peak <= bytes_per_point * g.npoints + 2**16


def test_grid_model_rejects_unknown_potential():
    g = GridMeta(length=1.0, npoints=16)
    with pytest.raises(ValueError):
        build_grid_model(g, "harmonic")


def test_well_spectrum_matches_discrete_closed_form():
    """Three-point kinetic matrix has the exact spectrum
    (2 hbar^2 / m h^2) sin^2(n pi h / 2L); the solver must hit it cold."""
    g = GridMeta(length=1.0, npoints=150, mass=2.0, hbar=0.5)
    model = build_grid_model(g, "infinite_well")
    dec = eigendecompose(model.hamiltonian)
    n = np.arange(1, g.npoints + 1)
    h = g.spacing
    exact = (2.0 * g.hbar**2 / (g.mass * h * h)) * np.sin(n * np.pi * h / (2.0 * g.length)) ** 2
    np.testing.assert_allclose(dec.eigenvalues, exact, rtol=1e-10)


def test_well_low_levels_approach_continuum():
    g = GridMeta(length=1.0, npoints=300)
    model = build_grid_model(g, "infinite_well")
    dec = eigendecompose(model.hamiltonian)
    for n in range(1, 6):
        target = well_level_energy(n, g.length, g.mass, g.hbar)
        rel = abs(dec.eigenvalues[n - 1] - target) / target
        assert rel <= 1e-3


# ---------------------------------------------------------------- band path

EPS = np.finfo(np.float64).eps

GRID_SHAPES = [  # (length, mass, hbar, npoints)
    (1.0, 1.0, 1.0, 2000),
    (2.5, 0.3, 1.7, 101),
    (0.4, 7.0, 0.2, 500),
    (1.3, 0.7, 1.9, 37),
    (1.0, 1.0, 1.0, 8),
]


def stencil_norm(g):
    """Gershgorin bound 2k + 2k on the 2-norm of the kinetic stencil."""
    return 4.0 * g.hbar * g.hbar / (2.0 * g.mass * g.spacing**2)


@pytest.mark.parametrize("length, mass, hbar, npoints", GRID_SHAPES)
def test_grid_levels_agree_with_dense_eigenvalues(length, mass, hbar, npoints):
    """Bisection on the bands and the dense solver are both backward stable:
    each level lies within n*eps*||H|| of the other's."""
    g = GridMeta(length=length, npoints=npoints, mass=mass, hbar=hbar)
    levels = grid_levels(g, 5)
    dense = eigenvalues(grid_hamiltonian(g))[:5]
    assert levels.shape == (5,)
    assert np.all(np.diff(levels) > 0)
    assert np.max(np.abs(levels - dense)) <= npoints * EPS * stencil_norm(g)


@pytest.mark.parametrize("length, mass, hbar, npoints", GRID_SHAPES)
def test_grid_levels_match_discrete_closed_form(length, mass, hbar, npoints):
    """(2 hbar^2 / m h^2) sin^2(n pi h / 2L), within the same n*eps*||H||."""
    g = GridMeta(length=length, npoints=npoints, mass=mass, hbar=hbar)
    n = np.arange(1, 6)
    h = g.spacing
    exact = (2.0 * g.hbar**2 / (g.mass * h * h)) * np.sin(n * np.pi * h / (2.0 * g.length)) ** 2
    assert np.max(np.abs(grid_levels(g, 5) - exact)) <= npoints * EPS * stencil_norm(g)


def whole_band_stebz_levels(d, e, count):
    """scipy's ?stebz on the whole tridiagonal (d, e): its ``count`` lowest levels."""
    from scipy.linalg import eigvalsh_tridiagonal

    return eigvalsh_tridiagonal(d, e, select="i", select_range=(0, count - 1), lapack_driver="stebz")


def unscaled_halves_stebz_levels(g, count):
    """scipy's ?stebz on the parity halves of the unscaled bands 2k and -k, ceil(count/2) even and
    floor(count/2) odd levels merged, as grid_levels bisects them before scaling."""
    k = dynamics._kinetic_coupling(g)
    halves = spectral._band_halves(np.full(g.npoints, 2.0 * k), np.full(g.npoints - 1, -k))
    levels = np.concatenate([whole_band_stebz_levels(d, e, share)
                             for (d, e), share in zip(halves, ((count + 1) // 2, count // 2)) if share])
    return np.sort(levels, kind="stable")


@pytest.mark.parametrize("npoints", [2000, 500, 1001])
def test_grid_levels_scaling_keeps_the_default_well_spectrum_bytes(npoints):
    """The power-of-two scaling changes no bit on the three default grids."""
    g = GridMeta(length=1.0, npoints=npoints)
    assert grid_levels(g, 5).tobytes() == unscaled_halves_stebz_levels(g, 5).tobytes()


@pytest.mark.parametrize("npoints", [8, 9, 40, 41])
def test_grid_levels_parity_split_equals_whole_band_bisection(npoints):
    """Bisecting the two parity halves for ceil(count/2) even and floor(count/2)
    odd levels gives the lowest ``count`` of the whole band, at every count."""
    g = GridMeta(length=1.3, npoints=npoints, mass=0.7, hbar=1.9)
    k = dynamics._kinetic_coupling(g)
    whole = whole_band_stebz_levels(np.full(npoints, 2.0 * k), np.full(npoints - 1, -k), npoints)
    bound = npoints * EPS * stencil_norm(g)
    for count in range(1, npoints + 1):
        np.testing.assert_allclose(grid_levels(g, count), whole[:count], rtol=0, atol=bound)


@pytest.mark.parametrize("npoints", [8, 9, 40, 41])
def test_grid_levels_bisect_each_parity_half_for_its_share(npoints, monkeypatch):
    """The even half (one row larger at odd N) is bisected first for ceil(count/2)
    levels, then the odd half for floor(count/2); an empty share is not bisected."""
    calls = []
    stebz = dynamics._stebz
    monkeypatch.setattr(dynamics, "_stebz", lambda d, e, count: calls.append((d.size, count)) or stebz(d, e, count))
    g = GridMeta(length=1.0, npoints=npoints)
    even, odd = (npoints + 1) // 2, npoints // 2
    for count, shares in ((1, [(even, 1)]), (2, [(even, 1), (odd, 1)]), (5, [(even, 3), (odd, 2)]),
                          (npoints, [(even, even), (odd, odd)])):
        calls.clear()
        grid_levels(g, count)
        assert calls == shares


@pytest.mark.parametrize("npoints", [8, 9, 40, 41])
def test_grid_levels_alternate_in_parity(npoints):
    """The oscillation theorem behind the split: level j's vector is symmetric
    under x -> L - x for odd j and antisymmetric for even j."""
    basis = eigendecompose(grid_hamiltonian(GridMeta(length=1.0, npoints=npoints))).basis
    for j, vector in enumerate(basis.T, 1):
        np.testing.assert_allclose(vector[::-1], vector if j % 2 else -vector, rtol=0, atol=1e-13)


@pytest.mark.parametrize("count", [0, 10])
def test_stebz_refuses_a_count_outside_its_order_before_lapack(count, capfd):
    """?stebz would print an illegal-parameter line and return info -7; the
    count is refused first, and nothing is printed."""
    with pytest.raises(ValueError, match=r"count must lie in \[1, 9\]"):
        spectral._stebz(np.full(9, 2.0), np.full(8, -1.0), count)
    assert capfd.readouterr() == ("", "")


def test_stebz_levels_own_their_memory():
    """The found levels are an array of their own, so the first parity half's
    N-vector output is freed before the second half is bisected."""
    levels = spectral._stebz(np.full(1000, 2.0), np.full(999, -1.0), 3)
    assert levels.shape == (3,) and levels.flags.owndata and levels.base is None


@pytest.mark.parametrize("hbar", [1e-75, 1e-100, 1e-150])
def test_grid_levels_scale_as_hbar_squared_at_tiny_hbar(hbar):
    """Levels are proportional to hbar^2; unscaled, k^2 underflowed and every
    level read as the diagonal 2k from about hbar = 1e-82 on."""
    unit = GridMeta(length=1.0, npoints=2000)
    tiny = GridMeta(length=1.0, npoints=2000, hbar=hbar)
    scaled = grid_levels(tiny, 5) / hbar**2
    assert np.max(np.abs(scaled - grid_levels(unit, 5))) <= unit.npoints * EPS * stencil_norm(unit)


def test_grid_levels_count_selects_the_lowest():
    g = GridMeta(length=1.0, npoints=40)
    everything = grid_levels(g, g.npoints)
    bound = g.npoints * EPS * stencil_norm(g)
    for count in (1, 7):
        np.testing.assert_allclose(grid_levels(g, count), everything[:count], rtol=0, atol=bound)
    for count in (0, 41, -3):
        with pytest.raises(ValueError, match="count"):
            grid_levels(g, count)


def test_grid_levels_solver_failure_is_convergence_error(monkeypatch):
    """A nonzero ``info`` from ?stebz is a ConvergenceError."""
    stevd, _, integer = spectral._lapack()
    monkeypatch.setattr(spectral, "_lapack", lambda: (stevd, lambda *args: 1, integer))
    with pytest.raises(ConvergenceError, match=r"\?stebz returned info 1"):
        grid_levels(GridMeta(length=1.0, npoints=16), 5)


@pytest.mark.parametrize("mass", [1e-305, 1e-320])
def test_non_finite_stencil_refused_by_both_paths(mass):
    """2 m h^2 overflowing k (1e-305) or underflowing to zero (1e-320) is
    refused with one message naming the overflowing coupling, on the band and
    dense paths."""
    g = GridMeta(length=1.0, npoints=2000, mass=mass)
    messages = []
    for build in (lambda: grid_levels(g, 5), lambda: grid_hamiltonian(g), lambda: build_grid_model(g)):
        with pytest.raises(NumericalError, match=r"stencil coupling .* overflows at spacing .*, mass") as exc:
            build()
        messages.append(str(exc.value))
    assert len(set(messages)) == 1


@pytest.mark.parametrize("grid", [GridMeta(length=1.0, npoints=64, hbar=1e-200),
                                  GridMeta(length=1e200, npoints=64)], ids=["hbar-squared", "spacing-squared"])
def test_zero_stencil_coupling_refused_by_every_builder(grid):
    """hbar^2 underflowing or 2 m h^2 overflowing makes k, and the whole
    Hamiltonian, zero: every builder refuses it with the same message."""
    messages = []
    for build in (lambda: grid_levels(grid, 5), lambda: grid_hamiltonian(grid), lambda: build_grid_model(grid)):
        with pytest.raises(NumericalError, match="stencil coupling .* underflows to zero") as exc:
            build()
        messages.append(str(exc.value))
    assert len(set(messages)) == 1


def test_ladder_refuses_underflowing_mass_times_omega():
    with pytest.raises(NumericalError, match="2 m omega underflows to zero"):
        build_oscillator_ladder(6, mass=1e-300, omega=1e-300)


def test_declared_band_working_set_bounds_traced_peak():
    """The byte count behind the band path's memory refusal covers what it allocates."""
    grid_levels(GridMeta(length=1.0, npoints=16), 5)  # bind numpy's LAPACK outside the trace
    g = GridMeta(length=1.0, npoints=100_000)
    tracemalloc.start()
    try:
        grid_levels(g, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= dynamics.BAND_BYTES_PER_POINT * g.npoints + 2**16


def test_band_refusal_before_allocation():
    g = GridMeta(length=1.0, npoints=10**12)
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="band working set.*physical memory"):
            grid_levels(g, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------- oscillator ladder


def test_ladder_requires_four_levels():
    with pytest.raises(ValueError):
        build_oscillator_ladder(3)


def test_ladder_ground_state_energy_exact():
    for dim in (4, 8, 16):
        model = build_oscillator_ladder(dim, MASS, OMEGA, HBAR)
        ground = ladder_state(model, [1.0])
        assert expect_c(model.hamiltonian, ground) == pytest.approx(
            HBAR * OMEGA / 2.0, abs=1e-12
        )


def test_ladder_hamiltonian_is_diagonal_with_known_levels():
    dim = 8
    model = build_oscillator_ladder(dim, MASS, OMEGA, HBAR)
    h = model.hamiltonian.matrix
    off = h - np.diag(np.diag(h))
    assert float(np.max(np.abs(off))) <= 1e-14 * HBAR * OMEGA * dim
    levels = np.diag(h).real
    for n in range(dim - 1):
        assert levels[n] == pytest.approx(HBAR * OMEGA * (n + 0.5), rel=1e-14)
    # top level carries the truncation: p^2 and q^2 each lose the n -> n+1 hop
    assert levels[-1] == pytest.approx(HBAR * OMEGA * (dim - 1) / 2.0, rel=1e-14)


def test_ladder_canonical_commutator_on_interior():
    for dim in (4, 8, 16):
        model = build_oscillator_ladder(dim, MASS, OMEGA, HBAR)
        comm = model.q.matrix @ model.p.matrix - model.p.matrix @ model.q.matrix
        target = 1j * HBAR * np.eye(dim)
        block = slice(0, dim - 1)
        gap = np.max(np.abs(comm[block, block] - target[block, block]))
        assert float(gap) <= 1e-12
        # the bottom-right corner absorbs the truncation instead
        assert comm[-1, -1] == pytest.approx(1j * HBAR * (1 - dim), rel=1e-12)


# ---------------------------------------------------------------- Poisson bracket


def test_poisson_bracket_oscillator_closed_forms():
    q = PolynomialObservable.q()
    p = PolynomialObservable.p()
    h = oscillator_hamiltonian_poly(MASS, OMEGA)
    assert poisson_rhs_classical(q, h) == (1.0 / MASS) * p
    assert poisson_rhs_classical(p, h) == (-MASS * OMEGA**2) * q
    assert poisson_rhs_classical(h, h).monomials == {}


def test_poisson_bracket_antisymmetry():
    q = PolynomialObservable.q()
    p = PolynomialObservable.p()
    a = q * q + 2.0 * p
    b = q * p
    lhs = poisson_rhs_classical(a, b)
    rhs = poisson_rhs_classical(b, a)
    assert lhs == -1.0 * rhs


# ---------------------------------------------------------------- quantization


def test_quantize_bare_symbols():
    model = build_oscillator_ladder(8, MASS, OMEGA, HBAR)
    np.testing.assert_array_equal(quantize(PolynomialObservable.q(), model).matrix, model.q.matrix)
    np.testing.assert_array_equal(quantize(PolynomialObservable.p(), model).matrix, model.p.matrix)


def test_quantize_mixed_term_symmetrizes():
    model = build_oscillator_ladder(8, MASS, OMEGA, HBAR)
    qp = PolynomialObservable.q() * PolynomialObservable.p()
    got = quantize(qp, model)
    qm, pm = model.q.matrix, model.p.matrix
    np.testing.assert_allclose(got.matrix, (qm @ pm + pm @ qm) / 2.0, atol=1e-12)


def test_quantize_pure_power():
    model = build_oscillator_ladder(8, MASS, OMEGA, HBAR)
    qq = PolynomialObservable.q() * PolynomialObservable.q()
    np.testing.assert_allclose(
        quantize(qq, model).matrix, model.q.matrix @ model.q.matrix, atol=1e-12
    )


def test_quantize_output_is_certified():
    model = build_oscillator_ladder(8, MASS, OMEGA, HBAR)
    q, p = PolynomialObservable.q(), PolynomialObservable.p()
    mixed = q * q * p + 3.0 * p * p * q
    op = quantize(mixed, model)
    assert float(np.max(np.abs(op.matrix - op.matrix.conj().T))) <= 1e-10 * (
        1.0 + float(np.max(np.abs(op.matrix)))
    )


# ---------------------------------------------------------------- Heisenberg form


def test_heisenberg_rhs_commuting_vanishes():
    h = certify_hermitian(np.diag([1.0, 2.0, 3.0]))
    a = certify_hermitian(np.diag([5.0, 5.0, 7.0]))
    rhs = heisenberg_rhs(h, a)
    assert float(np.max(np.abs(rhs.matrix))) == 0.0


def test_heisenberg_rhs_oscillator_velocity():
    # (i/hbar)[H, q] = p/m away from the truncation row and column
    dim = 12
    model = build_oscillator_ladder(dim, MASS, OMEGA, HBAR)
    rhs = heisenberg_rhs(model.hamiltonian, model.q, HBAR)
    want = model.p.matrix / MASS
    block = slice(0, dim - 1)
    gap = np.max(np.abs(rhs.matrix[block, block] - want[block, block]))
    assert float(gap) <= 1e-10


def test_heisenberg_rhs_oscillator_force():
    dim = 12
    model = build_oscillator_ladder(dim, MASS, OMEGA, HBAR)
    rhs = heisenberg_rhs(model.hamiltonian, model.p, HBAR)
    want = -MASS * OMEGA**2 * model.q.matrix
    block = slice(0, dim - 1)
    gap = np.max(np.abs(rhs.matrix[block, block] - want[block, block]))
    assert float(gap) <= 1e-10


def test_heisenberg_rhs_rejects_bad_hbar():
    h = certify_hermitian(np.diag([1.0, 2.0]))
    with pytest.raises(ValueError):
        heisenberg_rhs(h, h, hbar=0.0)


# ---------------------------------------------------------------- bracket correspondence


@pytest.mark.parametrize(
    "name,poly",
    [
        ("q", PolynomialObservable.q()),
        ("p", PolynomialObservable.p()),
        ("q2", PolynomialObservable.q() * PolynomialObservable.q()),
        ("p2", PolynomialObservable.p() * PolynomialObservable.p()),
        ("qp", PolynomialObservable.q() * PolynomialObservable.p()),
    ],
)
def test_bracket_correspondence_quadratic_family(name, poly):
    """Classical Poisson route and commutator route agree on low levels."""
    model = build_oscillator_ladder(16, MASS, OMEGA, HBAR)
    h = oscillator_hamiltonian_poly(MASS, OMEGA)
    psi = ladder_state(model, [0.5, 0.5j, -0.5, 0.5])
    check = bracket_correspondence(poly, h, model, psi)
    assert isinstance(check, BracketCheck)
    assert check.gap <= 1e-9
    assert check.gap == pytest.approx(abs(check.lhs - check.rhs))


def test_bracket_correspondence_hamiltonian_self():
    model = build_oscillator_ladder(16, MASS, OMEGA, HBAR)
    h = oscillator_hamiltonian_poly(MASS, OMEGA)
    psi = ladder_state(model, [1.0, 1.0])
    check = bracket_correspondence(h, h, model, psi)
    assert check.lhs == pytest.approx(0.0, abs=1e-12)
    assert check.rhs == pytest.approx(0.0, abs=1e-12)


def test_bracket_correspondence_guards_truncation_edge():
    model = build_oscillator_ladder(8, MASS, OMEGA, HBAR)
    h = oscillator_hamiltonian_poly(MASS, OMEGA)
    top = np.zeros(8)
    top[-1] = 1.0
    with pytest.raises(TruncationError):
        bracket_correspondence(
            PolynomialObservable.q(), h, model, StateVector(top)
        )


# ---------------------------------------------------------------- evolution


def test_evolve_state_zero_time_identity():
    g = GridMeta(length=1.0, npoints=32)
    model = build_grid_model(g)
    psi0 = grid_sample(lambda x: np.sin(np.pi * x), g)
    psi = evolve_state(model, psi0, 0.0)
    np.testing.assert_allclose(psi.coeffs, psi0.coeffs, atol=1e-12)


def test_evolve_state_requires_normalized_state():
    g = GridMeta(length=1.0, npoints=32)
    model = build_grid_model(g)
    psi0 = grid_sample(lambda x: np.sin(np.pi * x), g)
    evolve_state(model, StateVector(psi0.coeffs * (1.0 + 0.5 * STATE_NORM_TOL), g), 0.1)
    with pytest.raises(StateError):
        evolve_state(model, StateVector(psi0.coeffs * (1.0 + 2.0 * STATE_NORM_TOL), g), 0.1)


def test_evolution_refuses_a_time_over_hbar_that_overflows():
    """A finite t whose t / hbar is inf would give NaN phases; it is refused."""
    g = GridMeta(length=1.0, npoints=16, hbar=0.5)
    model = build_grid_model(g)
    psi0 = grid_sample(lambda x: np.sin(np.pi * x), g)
    for evolve, operand in ((evolve_state, psi0), (evolve_operator, model.q)):
        with pytest.raises(NumericalError, match="overflows"):
            evolve(model, operand, 1.5e308)


def pairs(z):
    """A complex vector (N,) as its real and imaginary parts side by side, (N, 2)."""
    return np.ascontiguousarray(z).view(np.float64).reshape(-1, 2)


def coordinate_forms(dec, coeffs, phases):
    """The coordinates basis^H c and the evolved coefficients basis @ (phases * basis^H c), in the
    kept basis's arithmetic: ``basis.conj().T`` products on a complex basis, and on a real basis V
    real products on the stacked real and imaginary parts, V.T @ (N, 2) and V @ (N, 2).  The
    phases multiply as one row of a (times, N) stack, whose complex product at N = 1 has other
    last bits than that of two (1,) vectors."""
    basis = dec._basis
    if np.iscomplexobj(basis):
        amps = basis.conj().T @ coeffs
        return amps, basis @ (phases[None] * amps)[0]
    amps = (basis.T @ pairs(coeffs)).view(np.complex128)[:, 0]
    return amps, (basis @ pairs((phases[None] * amps)[0])).view(np.complex128)[:, 0]


def sector_form(model, coeffs, t):
    """evolve_state of a grid model written out by parity sector.  With N = 2m or 2m + 1, J the
    reversal and r = sqrt(1/2): the even coordinates x = r (c[:m] + J c[N - m:]), and c[m] for odd N,
    and the odd ones y = r (c[:m] - J c[N - m:]); each nonzero part is evolved as V (phases * V^T part)
    in its half tridiagonal's ?stevd basis V, by real products on the stacked parts, with its levels
    scaled back by H's power of two; then the top is r (x + y), the centre x[m] and the bottom
    J r (x - y), a missing part contributing nothing."""
    n, m, r = coeffs.size, coeffs.size // 2, np.sqrt(0.5)
    c = pairs(coeffs)
    top, mirror = c[:m], c[::-1][:m]
    parts = [np.concatenate([(top + mirror) * r, c[m:n - m]]), (top - mirror) * r]
    h = model.hamiltonian
    e = np.frexp(h.scale)[1]
    halves = spectral._band_halves(np.ldexp(h.diagonal, -e), np.ldexp(h.upper, -e))
    evolved = []
    for (d, u), part in zip(halves, parts):
        if not part.any():
            evolved.append(None)
            continue
        levels, vectors = spectral._stevd(d, u, True)
        phases = np.exp(-1j * np.ldexp(levels, e) * (t / model.hbar))
        amps = (vectors.T @ part).view(np.complex128)[:, 0]
        evolved.append(vectors @ pairs((phases[None] * amps)[0]))
    x, y = evolved
    if y is None:
        upper, lower = x[:m] * r, x[:m] * r
    elif x is None:
        upper, lower = y * r, -(y * r)
    else:
        upper, lower = (x[:m] + y) * r, (x[:m] - y) * r
    centre = [] if n % 2 == 0 else [np.zeros(2) if x is None else x[m]]
    return np.ascontiguousarray(np.vstack([upper, *centre, lower[::-1]])).view(np.complex128)[:, 0]


def test_evolution_is_bit_identical_to_the_conjugate_transpose_form():
    """Coordinates read off the basis give the same bytes as the per-call forms: the grid
    Hamiltonian's state evolution by parity sector (:func:`sector_form`), and the operator
    picture by forming basis.conj().T."""
    g = GridMeta(length=1.0, npoints=40, mass=0.7, hbar=0.9)
    model = build_grid_model(g)
    psi0 = grid_sample(lambda x: np.exp(-((x - 0.4) ** 2) / 0.01 + 5j * x), g)
    dec = model.energy_spectrum()
    assert dec._basis.dtype == np.float64
    for t in (0.0, 0.013, 0.37, 2.5):
        phases = np.exp(-1j * dec.eigenvalues * (t / g.hbar))
        want_state = sector_form(model, psi0.coeffs, t)
        assert evolve_state(model, psi0, t).coeffs.tobytes() == want_state.tobytes()
        u = (dec.basis * phases) @ dec.basis.conj().T
        want_op = u.conj().T @ model.q.matrix @ u
        assert evolve_operator(model, model.q, t).matrix.tobytes() == want_op.tobytes()


def random_model(rng, dim):
    """A model whose Hamiltonian is random hermitian, with a complex eigenbasis from dimension 2 on
    (at dimension 1 the matrix is real, and so is its basis)."""
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = certify_hermitian((m + m.conj().T) / 2.0)
    return ModelSystem("random", h, h, h, hbar=0.9)


def assert_basis_reads_match_the_adjoint_forms(model, psi, t):
    """amplitudes and evolve_state give the bytes of :func:`coordinate_forms`, a grid model's
    evolve_state those of :func:`sector_form`, and apply_function and evolve_operator those of
    ``(basis * v) @ basis.conj().T`` on the complex ``basis``."""
    dec = model.energy_spectrum()
    adjoint = dec.basis.conj().T
    weight = 1.0 if dec.grid is None else dec.grid.spacing
    phases = np.exp(-1j * dec.eigenvalues * (t / model.hbar))
    amps, want_state = coordinate_forms(dec, psi.coeffs, phases)
    if dec.grid is not None:
        want_state = sector_form(model, psi.coeffs, t)
    assert dec.amplitudes(psi).tobytes() == (np.sqrt(weight) * amps).tobytes()
    values = np.exp(0.7j * dec.eigenvalues)
    applied = apply_function(dec, lambda lam: np.exp(0.7j * lam)).matrix
    assert applied.tobytes() == ((dec.basis * values) @ adjoint).tobytes()
    assert evolve_state(model, psi, t).coeffs.tobytes() == want_state.tobytes()
    u = (dec.basis * phases) @ adjoint
    want_op = u.conj().T @ model.q.matrix @ u
    assert evolve_operator(model, model.q, t).matrix.tobytes() == want_op.tobytes()


def test_basis_reads_on_random_complex_bases_are_bit_identical_to_the_adjoint_forms():
    rng = np.random.default_rng(SEED + 16)
    for dim in range(1, 65):
        model = random_model(rng, dim)
        psi = normalize(StateVector(rng.standard_normal(dim) + 1j * rng.standard_normal(dim)))
        assert_basis_reads_match_the_adjoint_forms(model, psi, float(rng.uniform(0.0, 3.0)))


@pytest.mark.parametrize("npoints", [128, 512, 1600])  # 1600 is decomposed by ?stevd
def test_basis_reads_on_grid_hamiltonians_are_bit_identical_to_the_adjoint_forms(npoints):
    g = GridMeta(length=1.0, npoints=npoints, mass=0.7, hbar=0.9)
    model = build_grid_model(g)
    psi0 = grid_sample(lambda x: np.exp(-((x - 0.4) ** 2) / 0.01 + 5j * x), g)
    assert model.energy_spectrum()._basis.dtype == np.float64
    assert_basis_reads_match_the_adjoint_forms(model, psi0, 0.013)


@pytest.mark.parametrize("npoints", [128, 512, 513, 1601])  # 513, 1601: the centre row; 1601: ?stevd merges
def test_sector_ground_state_is_the_bytes_of_the_first_eigenvector(npoints):
    """The ground state laid out from the even half alone has the bytes of the merged
    decomposition's first eigenvector, and solves no odd half on its own."""
    g = GridMeta(length=1.0, npoints=npoints, mass=0.7, hbar=0.9)
    model = build_grid_model(g)
    ground = dynamics._ground_state(model)
    assert model._halves[1] is None
    assert ground.coeffs.tobytes() == model.energy_spectrum().eigenvector(0).coeffs.tobytes()


def random_grid_state(rng, npoints, parity):
    """A normalized random complex state on a grid of ``npoints``: any (``parity`` None), or with its
    entries mirrored exactly (0, even) or mirrored exactly negated with a zero centre (1, odd)."""
    c = rng.standard_normal(npoints) + 1j * rng.standard_normal(npoints)
    m = npoints // 2
    if parity is not None:
        c[npoints - m:] = (c[:m] if parity == 0 else -c[:m])[::-1]
        if npoints % 2 and parity == 1:
            c[m] = 0.0
    return c


@settings(max_examples=60, deadline=None)
@given(npoints=st.integers(8, 97), parity=st.sampled_from([None, 0, 1]), t=st.floats(0.0, 3.0),
       seed=st.integers(0, 2**32 - 1))
def test_sector_evolution_agrees_with_the_merged_basis_and_keeps_parity(npoints, parity, t, seed):
    """Evolving by parity sector agrees with the merged basis's B (phases * B^T c), entry by entry
    and part by part, within 4 N eps (|B| |B|^T |c|) with |c| = |Re c| + |Im c|.  Both forms map c
    through the same computed vectors (B is the halves' vectors laid out by sqrt(1/2), mirror and
    sign, and the phases have the same bytes), so they differ only by rounding: a length-n dot
    product errs by at most gamma_n = n u / (1 - n u) times the sum of its terms' magnitudes
    (u = eps/2), so each form's two products err by 2 gamma_N |B| |B|^T |c|, and the phase products
    (whose real and imaginary parts mix the two parts of c) and the sqrt(1/2) roundings add a few u;
    the two forms together differ by under 2 (N + 4) eps times that, below 4 N eps from N = 8.  An
    exactly even state stays mirror-equal to the bit, an odd one negated mirror-equal, and the
    other sector is never solved."""
    g = GridMeta(length=1.3, npoints=npoints, mass=0.7, hbar=0.9)
    model = build_grid_model(g)
    rng = np.random.default_rng(seed)
    psi = normalize(StateVector(random_grid_state(rng, npoints, parity), g))
    evolved = evolve_state(model, psi, t).coeffs
    if parity is not None:
        assert model._halves[1 - parity] is None
        m = npoints // 2
        top, bottom = pairs(evolved)[:m], pairs(evolved)[npoints - m:][::-1]
        assert top.tobytes() == (bottom if parity == 0 else -bottom).tobytes()
        if npoints % 2 and parity == 1:
            assert not pairs(evolved)[m].any()
    dec = model.energy_spectrum()
    phases = np.exp(-1j * dec.eigenvalues * (t / g.hbar))
    merged = coordinate_forms(dec, psi.coeffs, phases)[1]
    size = abs(dec._basis) @ (abs(dec._basis).T @ (abs(psi.coeffs.real) + abs(psi.coeffs.imag)))
    bound = 4 * npoints * np.finfo(float).eps * size
    assert (abs(pairs(evolved) - pairs(merged)) <= bound[:, None]).all()


@pytest.mark.parametrize("npoints", [128, 512, 513, 1600])  # 513: the centre row; 1600: ?stevd
def test_spread_series_rows_are_the_bytes_of_evolve_state(npoints):
    """spread_series evolves every time in one stacked product; each row, and each width read
    from it, has the bytes evolve_state and dispersion give that time alone."""
    g = GridMeta(length=1.0, npoints=npoints, mass=0.7, hbar=0.9)
    model = build_grid_model(g)
    psi0 = grid_sample(lambda x: np.exp(-((x - 0.4) ** 2) / 0.01 + 5j * x), g)
    tau = 2.0 * g.mass * (g.length / 40.0) ** 2 / g.hbar
    times = [factor * tau for factor in (0.0, 0.5, 1.0, np.sqrt(3.0), 2.0)]
    rows = dynamics._evolved(model, psi0, times)
    series = spread_series(model, psi0, times)
    assert [t for t, _ in series] == times
    for t, row, (_, width) in zip(times, rows, series):
        alone = evolve_state(model, psi0, t)
        assert row.tobytes() == alone.coeffs.tobytes()
        assert np.float64(width).tobytes() == np.float64(dispersion(model.q, alone)).tobytes()


def test_evolution_refuses_a_time_whose_phases_are_roundoff():
    """Rounding E t / hbar errs by up to eps |E t| / hbar in each phase, which moves the evolved
    state by up to that much in norm: the first time at which eps max|E| |t| / hbar reaches 1 is
    refused, by evolve_state, evolve_operator and spread_series alike; a time below it is evolved."""
    g = GridMeta(length=1.0, npoints=16, hbar=0.9)
    model = build_grid_model(g)
    psi0 = grid_sample(lambda x: np.sin(np.pi * x), g)
    top = float(np.max(np.abs(model.energy_spectrum().eigenvalues)))
    edge = g.hbar / (np.finfo(float).eps * top)  # eps max|E| edge / hbar is 1, up to roundoff
    below, beyond = float(0.99 * edge), float(1.01 * edge)
    assert evolve_state(model, psi0, below).normalized
    for evolve, operand in ((evolve_state, psi0), (evolve_operator, model.q)):
        with pytest.raises(NumericalError, match=rf"^energy times time {beyond!r} over hbar 0.9 .*not below 1$"):
            evolve(model, operand, beyond)
    with pytest.raises(NumericalError, match=rf"time {beyond!r} "):
        spread_series(model, psi0, [0.0, below, beyond, 2.0 * beyond])


def test_evolve_state_eigenstate_gets_phase_only():
    g = GridMeta(length=1.0, npoints=48)
    model = build_grid_model(g)
    dec = eigendecompose(model.hamiltonian)
    f0 = dec.eigenvectors[0]
    psi = evolve_state(model, f0, 0.8)
    overlap = complex_inner(f0, psi).to_complex()
    assert abs(abs(overlap) - 1.0) <= 1e-8
    # phase matches exp(-i E0 t / hbar)
    want = np.exp(-1j * dec.eigenvalues[0] * 0.8 / g.hbar)
    assert overlap == pytest.approx(want, abs=1e-9)


def test_evolution_preserves_norm_and_energy():
    g = GridMeta(length=1.0, npoints=64)
    model = build_grid_model(g)
    psi0 = grid_sample(lambda x: np.exp(-((x - 0.5) ** 2) / 0.005), g)
    e0 = expect_c(model.hamiltonian, psi0)
    for t in (0.001, 0.01, 0.05):
        psi = evolve_state(model, psi0, t)
        assert abs(psi.norm() - 1.0) <= 1e-8
        assert expect_c(model.hamiltonian, psi) == pytest.approx(e0, abs=1e-8 * (1 + abs(e0)))


def test_evolve_operator_conserves_hamiltonian():
    g = GridMeta(length=1.0, npoints=32)
    model = build_grid_model(g)
    moved = evolve_operator(model, model.hamiltonian, 0.3)
    scale = 1.0 + float(np.max(np.abs(model.hamiltonian.matrix)))
    gap = float(np.max(np.abs(moved.matrix - model.hamiltonian.matrix)))
    assert gap <= 1e-10 * scale


def test_evolve_operator_spectrum_invariant():
    g = GridMeta(length=1.0, npoints=32)
    model = build_grid_model(g)
    moved = evolve_operator(model, model.q, 0.17)
    before = eigendecompose(model.q).eigenvalues
    after = eigendecompose(moved).eigenvalues
    np.testing.assert_allclose(after, before, atol=1e-8)


def test_picture_duality():
    """Heisenberg and Schroedinger pictures give one expectation."""
    g = GridMeta(length=1.0, npoints=40)
    model = build_grid_model(g)
    rng = np.random.default_rng(SEED)
    c = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    psi0 = normalize(StateVector(c, g))
    for t in (0.02, 0.4):
        lhs = expect_c(evolve_operator(model, model.q, t), psi0)
        rhs = expect_c(model.q, evolve_state(model, psi0, t))
        assert lhs == pytest.approx(rhs, abs=1e-9)


# ---------------------------------------------------------------- packet spread


def test_spread_series_initial_width():
    g = GridMeta(length=1.0, npoints=256)
    model = build_grid_model(g, "free")
    sigma0 = g.length / 40.0
    psi0 = grid_sample(
        lambda x: np.exp(-((x - 0.5) ** 2) / (4.0 * sigma0 * sigma0)), g
    )
    series = spread_series(model, psi0, [0.0])
    assert series[0][1] == pytest.approx(sigma0, rel=0.01)


def test_free_packet_follows_spread_law():
    g = GridMeta(length=1.0, npoints=512)
    model = build_grid_model(g, "free")
    sigma0 = g.length / 40.0
    tau = 2.0 * g.mass * sigma0**2 / g.hbar
    psi0 = grid_sample(
        lambda x: np.exp(-((x - 0.5) ** 2) / (4.0 * sigma0 * sigma0)), g
    )
    times = [0.0, 0.5 * tau, tau, np.sqrt(3.0) * tau]
    series = spread_series(model, psi0, times)
    for t, width in series:
        want = gaussian_spread_width(sigma0, t, g.mass, g.hbar)
        assert width == pytest.approx(want, rel=0.01)
    # doubling time: the closed form hits exactly 2 sigma0 at sqrt(3) tau
    assert series[-1][1] == pytest.approx(2.0 * sigma0, rel=0.02)
    widths = [w for _, w in series]
    assert widths == sorted(widths)


def test_well_ground_state_width_is_stationary():
    g = GridMeta(length=1.0, npoints=128)
    model = build_grid_model(g, "infinite_well")
    ground = eigendecompose(model.hamiltonian).eigenvectors[0]
    base = dispersion(model.q, ground)
    series = spread_series(model, ground, [0.0, 0.3, 1.7, 6.0])
    for _, width in series:
        assert abs(width - base) <= 1e-6


def test_spread_series_rejects_bad_times():
    g = GridMeta(length=1.0, npoints=32)
    model = build_grid_model(g)
    psi0 = grid_sample(lambda x: np.sin(np.pi * x), g)
    with pytest.raises(ValueError):
        spread_series(model, psi0, [0.5, 0.1])
    with pytest.raises(ValueError):
        spread_series(model, psi0, [-1.0])
