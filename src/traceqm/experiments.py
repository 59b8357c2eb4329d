"""Canned, seeded experiments behind the command-line workbench.

Each experiment function takes a resolved :class:`ExperimentConfig` and
returns ``(rows, checks)``: a uniform table of result rows plus a list of
:class:`Check` records, one per tolerance the experiment guards.  All
tolerances have compiled-in defaults, overridable through ``cfg.tols``;
whatever bound was actually used is echoed in the check record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    PolynomialObservable,
    build_grid_model,
    build_oscillator_ladder,
    bracket_correspondence,
    gaussian_spread_width,
    grid_levels,
    oscillator_hamiltonian_poly,
    spread_series,
    well_level_energy,
)
from .errors import NumericalError
from .measurement import cat_experiment, reconstruct_density, repeat_experiment
from .operators import Operator, _certify_stack, _require_fits, av_decompose, certify_hermitian, expect_r
from .scalars import IMAG_UNIT, TraceScalar, minimal_poly_residual, trace
from .spectral import (
    _band_eigenbasis_bytes,
    _eigendecompose_stack,
    _spectral_sum,
    _vn_generator_stack,
    eigendecompose,
    verify_dispersion_free,
    vn_generator,
)
from .states import GridMeta, StateVector, grid_sample, normalize

__all__ = [
    "ExperimentConfig",
    "Check",
    "EXPERIMENTS",
    "EXPERIMENT_DEFAULTS",
    "TOL_KEYS",
]


@dataclass
class ExperimentConfig:
    """Fully resolved parameters of one experiment run."""

    experiment: str
    n: int = 10000
    seed: int = 42
    grid_n: int = 2000
    length: float = 1.0
    mass: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0
    d: int = 16
    times: tuple[float, ...] | None = None
    a1: float = 1.0
    a2: float = -1.0
    out: str | None = None
    format: str = "csv"
    tols: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Check:
    """One guarded tolerance: value against bound, in the given direction."""

    name: str
    value: float
    bound: float
    mode: str = "max"  # "max": value <= bound; "min": value >= bound

    @property
    def passed(self) -> bool:
        """False whenever the bound is not finite: an overflowed bound guards nothing."""
        if not np.isfinite(self.bound):
            return False
        if self.mode == "max":
            return bool(self.value <= self.bound)
        return bool(self.value >= self.bound)


EXPERIMENT_DEFAULTS: dict[str, dict[str, object]] = {
    "cat": {},
    "well-spectrum": {},
    "spread": {"grid_n": 512},
    "poisson": {},
    "vn-generator": {"n": 100},
    "ensemble-density": {"grid_n": 128, "n": 50000},
    "claims": {},
}

#: every tolerance any experiment understands, for flag validation.
TOL_KEYS = (
    "support", "mean", "std",
    "spectrum", "convergence",
    "spread", "stationary",
    "gap",
    "canned", "tables", "recon",
    "envelope", "mass-one-cell",
    "weak", "av-residual", "av-orth", "av-beta",
    "dispersion-free", "eigen-residual",
    "trace-i", "minpoly",
)


def _check(cfg: ExperimentConfig, name: str, value, default: float, mode: str = "max") -> Check:
    """Check ``name`` on ``value``, bounded by ``cfg.tols[name]`` if given, else ``default``."""
    return Check(name, value, float(cfg.tols.get(name, default)), mode)


def _hermitian_part(normals: np.ndarray) -> np.ndarray:
    """(A + adjoint(A)) / 2 for A = normals[..., 0, :, :] + 1j * normals[..., 1, :, :], one matrix or a stack."""
    raw = normals[..., 0, :, :] + 1j * normals[..., 1, :, :]
    return (raw + np.swapaxes(raw.conj(), -1, -2)) / 2.0


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    return _hermitian_part(rng.standard_normal((2, dim, dim)))


def _random_state(rng: np.random.Generator, dim: int) -> StateVector:
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return normalize(StateVector(raw))


def _grid_model(cfg: ExperimentConfig):
    """The hard-wall grid model of ``cfg``, refused up front, before its bands
    exist, when its energy eigenbasis would not fit in physical memory: every
    caller decomposes the Hamiltonian."""
    grid = GridMeta(cfg.length, cfg.grid_n, cfg.mass, cfg.hbar)
    _require_fits(grid, _band_eigenbasis_bytes(grid.npoints), "its energy eigenbasis")
    return build_grid_model(grid)


# ---------------------------------------------------------------------------
# cat
# ---------------------------------------------------------------------------

def run_cat(cfg: ExperimentConfig):
    result = cat_experiment(cfg.a1, cfg.a2, cfg.n, cfg.seed)
    report = result.report

    rows = [
        {"outcome": value, "count": count, "frequency": count / cfg.n}
        for value, count in sorted(report.counts.items())
    ]

    match_tol = 1e-12 * max(abs(cfg.a1), abs(cfg.a2))
    alien = sum(
        count for value, count in report.counts.items()
        if min(abs(value - cfg.a1), abs(value - cfg.a2)) > match_tol
    )

    delta = min(0.5, 1.5 / np.sqrt(cfg.n))
    mean_default = 3.0 * result.beta / np.sqrt(cfg.n)
    if np.isinf(mean_default):  # 3 beta overflowed: take it at beta's exact power of two
        e = np.frexp(result.beta)[1]
        mean_default = np.ldexp(3.0 * np.ldexp(result.beta, -e) / np.sqrt(cfg.n), e)
    std_default = result.beta * (1.0 - np.sqrt(1.0 - 4.0 * delta * delta))
    checks = [
        _check(cfg, "support", float(alien), 0.0),
        _check(cfg, "mean", abs(report.empirical_mean - result.alpha), mean_default),
        _check(cfg, "std", abs(report.empirical_std - result.beta), std_default),
    ]
    return rows, checks


# ---------------------------------------------------------------------------
# well-spectrum
# ---------------------------------------------------------------------------

def _well_rows(npoints: int, cfg: ExperimentConfig) -> list[dict]:
    """The five lowest hard-wall levels on an ``npoints`` grid against the analytic law."""
    values = grid_levels(GridMeta(cfg.length, npoints, cfg.mass, cfg.hbar), 5)
    rows = []
    for level in range(1, 6):
        numeric = float(values[level - 1])
        analytic = well_level_energy(level, cfg.length, cfg.mass, cfg.hbar)
        if analytic == 0.0:
            raise NumericalError(f"analytic level {level} underflows to zero; "
                                 f"its relative error is undefined (hbar {cfg.hbar!r}, "
                                 f"mass {cfg.mass!r}, length {cfg.length!r})")
        rows.append({
            "n": level,
            "numeric": numeric,
            "analytic": analytic,
            "rel_err": abs(numeric - analytic) / analytic,
        })
    return rows


def run_well_spectrum(cfg: ExperimentConfig):
    rows = _well_rows(cfg.grid_n, cfg)
    base = max(200, cfg.grid_n // 4)
    # the fine grid doubles the resolution of the coarse one: h -> h/2
    coarse, fine = (np.array([row["rel_err"] for row in _well_rows(npoints, cfg)])
                    for npoints in (base, 2 * base + 1))
    checks = [
        _check(cfg, "spectrum", max(r["rel_err"] for r in rows), 0.005),
        _check(cfg, "convergence", float(np.min(coarse / fine)), 3.0, "min"),
    ]
    return rows, checks


# ---------------------------------------------------------------------------
# spread
# ---------------------------------------------------------------------------

def run_spread(cfg: ExperimentConfig):
    # "free" and "infinite_well" grid models have the same q, p and H and
    # differ only in their recorded kind, so one model evolves both series
    model = _grid_model(cfg)
    grid = model.grid

    sigma0 = cfg.length / 40.0
    tau = 2.0 * cfg.mass * sigma0 * sigma0 / cfg.hbar
    times = cfg.times
    if times is None:
        times = tuple(factor * tau for factor in (0.0, 0.5, 1.0, np.sqrt(3.0), 2.0))

    center = cfg.length / 2.0
    psi0 = grid_sample(lambda x: np.exp(-((x - center) ** 2) / (4.0 * sigma0 * sigma0)), grid)

    rows = []
    free_errors = []
    for t, width in spread_series(model, psi0, times):
        reference = gaussian_spread_width(sigma0, t, cfg.mass, cfg.hbar)
        err = abs(width - reference) / reference
        free_errors.append(err)
        rows.append({"series": "free", "t": t, "width": width, "reference": reference, "err": err})

    ground = model.energy_spectrum().eigenvector(0)
    stationary = spread_series(model, ground, times)
    base_width = stationary[0][1]
    drifts = []
    for t, width in stationary:
        drift = abs(width - base_width)
        drifts.append(drift)
        rows.append({"series": "stationary", "t": t, "width": width, "reference": base_width, "err": drift})

    checks = [
        _check(cfg, "spread", max(free_errors), 0.01),
        _check(cfg, "stationary", max(drifts), 1e-6),
    ]
    return rows, checks


# ---------------------------------------------------------------------------
# poisson (bracket correspondence)
# ---------------------------------------------------------------------------

def run_poisson(cfg: ExperimentConfig):
    model = build_oscillator_ladder(cfg.d, cfg.mass, cfg.omega, cfg.hbar)
    h_poly = oscillator_hamiltonian_poly(cfg.mass, cfg.omega)
    q = PolynomialObservable.q()
    p = PolynomialObservable.p()
    observables = [("q", q), ("p", p), ("q2", q * q), ("p2", p * p), ("qp", q * p)]

    coeffs = np.zeros(cfg.d, dtype=np.complex128)
    coeffs[:4] = [0.5, 0.5j, -0.5, 0.5]  # levels 0..3 with varied phases, unit norm
    psi = StateVector(coeffs)

    rows = []
    gaps = []
    for name, a_poly in observables:
        check = bracket_correspondence(a_poly, h_poly, model, psi)
        gaps.append(check.gap)
        rows.append({"observable": name, "lhs": check.lhs, "rhs": check.rhs, "gap": check.gap})

    checks = [_check(cfg, "gap", max(gaps), 1e-9)]
    return rows, checks


# ---------------------------------------------------------------------------
# vn-generator
# ---------------------------------------------------------------------------

CANNED_FIRST = (1.0, 1.0, 2.0)
CANNED_SECOND = (3.0, 4.0, 4.0)
CANNED_GENERATOR = (0.0, 1.0, 2.0)
CANNED_TABLES = [{0: 1.0, 1: 1.0, 2: 2.0}, {0: 3.0, 1: 4.0, 2: 4.0}]


def _canned_generator():
    """Generator of the canned diagonal pair, its worst entry deviation from
    ``CANNED_GENERATOR``, and whether its labels and tables match exactly."""
    a = certify_hermitian(np.diag(CANNED_FIRST))
    b = certify_hermitian(np.diag(CANNED_SECOND))
    result = vn_generator([a, b])
    deviation = float(np.max(np.abs(result.generator.matrix - np.diag(CANNED_GENERATOR))))
    exact = result.labels == [0.0, 1.0, 2.0] and result.tables == CANNED_TABLES
    return result, deviation, exact


#: random families ``_worst_family_recon`` draws and solves together.  On 1000
#: families (one core, one BLAS thread, best of 12) chunks of 256 take 54 ms
#: against 43 ms in one chunk, and hold a working set of 1.0 MB against 3.2 MB
#: (``tracemalloc`` peak), which would show in the process's peak RSS.
RECON_CHUNK = 256


def _worst_family_recon(rng: np.random.Generator, trials: int) -> float:
    """Worst entry error over ``trials`` random commuting families of three
    polynomials in one hermitian base, each member rebuilt from one
    decomposition of the family's single generator through its table.

    Each family draws its dimension, its base's two normal matrices and its
    members' three coefficient triples, in that order.  Families are drawn
    ``RECON_CHUNK`` at a time and solved as one stack per dimension, so the
    working set does not grow with ``trials``.
    """
    worst = 0.0
    for lo in range(0, trials, RECON_CHUNK):
        drawn: dict[int, list] = {}
        for _ in range(min(RECON_CHUNK, trials - lo)):
            dim = int(rng.integers(3, 9))
            drawn.setdefault(dim, []).append((rng.standard_normal((2, dim, dim)), rng.uniform(-2.0, 2.0, size=(3, 3))))
        for draws in drawn.values():
            normals, coeffs = (np.stack(column) for column in zip(*draws))
            worst = max(worst, _family_recon_error(normals, coeffs))
    return worst


def _family_recon_error(normals: np.ndarray, coeffs: np.ndarray) -> float:
    """Worst entry error of :func:`_worst_family_recon` over k families of one
    dimension, drawn as ``normals`` (k, 2, N, N) and ``coeffs`` (k, 3, 3)."""
    base = _hermitian_part(normals)
    c = coeffs.transpose(1, 2, 0)[..., None, None]  # member, coefficient, family
    members = c[:, 0] * np.eye(base.shape[-1]) + c[:, 1] * base + c[:, 2] * (base @ base)
    scales = _certify_stack(members.reshape(-1, *base.shape[1:]))[0].reshape(3, -1)
    generators, tables, counts = _vn_generator_stack(list(members), scales)
    values, basis = _eigendecompose_stack(generators, _certify_stack(generators)[0])
    # round half to even, as round() does
    labels = np.rint(values)
    outside = np.argwhere(~((labels >= 0) & (labels < counts[:, None])))
    if outside.size:
        f, k = outside[0]
        raise NumericalError(f"generator eigenvalue {values[f, k]:.17g} rounds to {labels[f, k]:g}, "
                             f"outside the labels 0 .. {counts[f] - 1}")
    rebuilt_values = np.take_along_axis(tables, labels.astype(np.intp)[:, None, :], axis=-1)
    adjoint = basis.conj().transpose(0, 2, 1)
    return max(float(abs(_spectral_sum(basis, rebuilt_values[:, i], adjoint) - member).max())
               for i, member in enumerate(members))


def run_vn_generator(cfg: ExperimentConfig):
    result, canned_dev, exact = _canned_generator()
    rows = [
        {"label": int(label), "value_a": result.tables[0][int(label)], "value_b": result.tables[1][int(label)]}
        for label in result.labels
    ]
    worst = _worst_family_recon(np.random.default_rng(cfg.seed), cfg.n)
    checks = [
        _check(cfg, "canned", canned_dev, 0.0),
        _check(cfg, "tables", 0.0 if exact else 1.0, 0.0),
        _check(cfg, "recon", worst, 1e-9),
    ]
    return rows, checks


# ---------------------------------------------------------------------------
# ensemble-density
# ---------------------------------------------------------------------------

def run_ensemble_density(cfg: ExperimentConfig):
    model = _grid_model(cfg)
    grid = model.grid
    ground = model.energy_spectrum().eigenvector(0)

    report = repeat_experiment(lambda: ground, model.q, cfg.n, cfg.seed)
    density = reconstruct_density(report, grid)

    expected = np.abs(ground.coeffs) ** 2 * grid.spacing
    rows = []
    sigmas = []
    for j, (x, freq) in enumerate(density):
        p = float(expected[j])
        sigma = np.sqrt(cfg.n * p * (1.0 - p))
        deviation = abs(freq * cfg.n - cfg.n * p) / max(sigma, 1.0)  # one-count floor for near-empty cells
        sigmas.append(deviation)
        rows.append({"x": x, "freq": freq, "expected": p, "sigmas": deviation})

    # dispersion-free preparation: a position eigenstate lands in one cell
    j0 = cfg.grid_n // 2
    delta_coeffs = np.zeros(cfg.grid_n, dtype=np.complex128)
    delta_coeffs[j0] = 1.0 / np.sqrt(grid.spacing)
    delta = StateVector(delta_coeffs, grid)
    delta_report = repeat_experiment(lambda: delta, model.q, min(cfg.n, 1000), cfg.seed)
    top_mass = max(delta_report.counts.values()) / delta_report.n

    checks = [
        _check(cfg, "envelope", float(max(sigmas)), 3.0),
        _check(cfg, "mass-one-cell", float(top_mass), 0.99, "min"),
    ]
    return rows, checks


# ---------------------------------------------------------------------------
# claims
# ---------------------------------------------------------------------------

def run_claims(cfg: ExperimentConfig):
    rng = np.random.default_rng(cfg.seed)
    rows = []
    checks = []

    # trace form of a commutator expectation vanishes
    worst_weak = 0.0
    for trial in range(1000):
        dim = 2 + trial % 7
        a = certify_hermitian(_random_hermitian(rng, dim))
        b = certify_hermitian(_random_hermitian(rng, dim))
        psi = _random_state(rng, dim)
        commutator = Operator(a.matrix @ b.matrix - b.matrix @ a.matrix)
        worst_weak = max(worst_weak, abs(expect_r(commutator, psi)))
    rows.append({"claim": "weak-commutativity", "trials": 1000, "worst": worst_weak})
    checks.append(_check(cfg, "weak", worst_weak, 1e-10))

    # mean-plus-deviation split reconstructs the operator action
    worst_residual = 0.0
    worst_orth = 0.0
    min_beta = np.inf
    for trial in range(500):
        dim = 2 + trial % 7
        a = certify_hermitian(_random_hermitian(rng, dim))
        psi = _random_state(rng, dim)
        alpha, beta, perp = av_decompose(a, psi)
        min_beta = min(min_beta, beta)
        image = a.matrix @ psi.coeffs
        recon = alpha * psi.coeffs + (beta * perp.coeffs if perp is not None else 0.0)
        worst_residual = max(worst_residual, float(np.linalg.norm(image - recon)))
        if perp is not None:
            worst_orth = max(worst_orth, abs(np.vdot(psi.coeffs, perp.coeffs)))
    rows.append({"claim": "av-split", "trials": 500, "worst": worst_residual})
    checks.append(_check(cfg, "av-residual", worst_residual, 1e-9))
    checks.append(_check(cfg, "av-orth", float(worst_orth), 1e-10))
    checks.append(_check(cfg, "av-beta", float(min_beta), 0.0, "min"))

    # eigenbases are dispersion-free and solve the eigenproblem
    worst_spread = 0.0
    worst_eig = 0.0
    dims = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)
    for trial in range(44):
        dim = dims[trial % len(dims)]
        a = certify_hermitian(_random_hermitian(rng, dim))
        dec = eigendecompose(a)
        norm = float(np.max(np.abs(dec.eigenvalues)))
        worst_spread = max(worst_spread, verify_dispersion_free(dec, a) / np.sqrt(1.0 + norm * norm))
        residual = np.max(np.abs(a.matrix @ dec.basis - dec.basis * dec.eigenvalues))
        worst_eig = max(worst_eig, float(residual) / (1.0 + norm))
    rows.append({"claim": "dispersion-free", "trials": 44, "worst": worst_spread})
    checks.append(_check(cfg, "dispersion-free", worst_spread, 1e-8))
    checks.append(_check(cfg, "eigen-residual", worst_eig, 1e-9))

    # scalar algebra: tr(i) = 0 exactly, minimal polynomial annihilates
    trace_i = abs(trace(IMAG_UNIT))
    worst_minpoly = 0.0
    for _ in range(1000):
        x = TraceScalar(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
        worst_minpoly = max(worst_minpoly, abs(minimal_poly_residual(x)))
    rows.append({"claim": "trace-algebra", "trials": 1000, "worst": worst_minpoly})
    checks.append(_check(cfg, "trace-i", trace_i, 0.0))
    checks.append(_check(cfg, "minpoly", worst_minpoly, 1e-9))

    # single generator reconstructs a commuting family
    _, canned_dev, exact = _canned_generator()
    worst_recon = max(canned_dev if exact else np.inf, _worst_family_recon(rng, 100))
    rows.append({"claim": "single-generator", "trials": 100, "worst": float(worst_recon)})
    checks.append(_check(cfg, "recon", float(worst_recon), 1e-9))

    return rows, checks


EXPERIMENTS = {
    "cat": run_cat,
    "well-spectrum": run_well_spectrum,
    "spread": run_spread,
    "poisson": run_poisson,
    "vn-generator": run_vn_generator,
    "ensemble-density": run_ensemble_density,
    "claims": run_claims,
}
