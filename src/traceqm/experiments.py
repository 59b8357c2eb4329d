"""Canned, seeded experiments behind the command-line workbench.

Each experiment function takes a resolved :class:`ExperimentConfig` and
returns ``(rows, checks)``: a uniform table of result rows plus a list of
:class:`Check` records, one per tolerance the experiment guards.  All
tolerances have compiled-in defaults, overridable through ``cfg.tols``;
whatever bound was actually used is echoed in the check record.  Each
experiment is declared once, as an :class:`Experiment` record in
:data:`DECLARATIONS`, which the command line reads for everything it knows
of it.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    PolynomialObservable,
    _ground_state,
    _time_over_hbar,
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
from .operators import _av_stack, _certify_stack, _expect_r_stack, _require_fits, certify_hermitian
from .scalars import IMAG_UNIT, _minimal_poly_parts, trace
from .spectral import (
    BAND_BASIS_BYTES_PER_ENTRY,
    _eigendecompose_stack,
    _open_grid,
    _spectral_sum,
    _vn_generator_stack,
    _worst_spread,
    vn_generator,
)
from .states import GridMeta, StateVector, _squares, _unit_rows, normalize

__all__ = [
    "ExperimentConfig",
    "Check",
    "Experiment",
    "DECLARATIONS",
    "EXPERIMENTS",
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


def _check(cfg: ExperimentConfig, name: str, value, default: float, mode: str = "max") -> Check:
    """Check ``name`` on ``value``, bounded by ``cfg.tols[name]`` if given, else ``default``."""
    return Check(name, value, float(cfg.tols.get(name, default)), mode)


def _hermitian_part(normals: np.ndarray) -> np.ndarray:
    """(A + adjoint(A)) / 2 for A = X + iY, X = normals[..., 0, :, :] and Y = normals[..., 1, :, :], one
    matrix or a stack: (X + X^T) / 2 + i (Y - Y^T) / 2, formed in the parts of one complex output."""
    x, y = normals[..., 0, :, :], normals[..., 1, :, :]
    out = np.empty(x.shape, dtype=np.complex128)
    np.add(x, np.swapaxes(x, -1, -2), out=out.real)
    np.subtract(y, np.swapaxes(y, -1, -2), out=out.imag)
    parts = out.view(np.float64)
    np.divide(parts, 2.0, out=parts)
    return out


def _grid_model(cfg: ExperimentConfig, even_half: bool):
    """The hard-wall grid model of ``cfg``, refused up front, before its bands
    exist, when the eigenbasis the run solves, with its ``?stevd`` workspace,
    would not fit in physical memory: the even parity half's, of order
    N - N//2, for ``even_half``, and otherwise the whole energy eigenbasis."""
    grid = GridMeta(cfg.length, cfg.grid_n, cfg.mass, cfg.hbar)
    order, what = ((grid.npoints + 1) // 2, "its even-sector eigenbasis") if even_half \
        else (grid.npoints, "its energy eigenbasis")
    _require_fits(grid, BAND_BASIS_BYTES_PER_ENTRY * order * order, what)
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
    """The five lowest hard-wall levels on an ``npoints`` grid against the analytic law.

    An analytic level that underflows to zero is refused before the grid's
    stencil, whose coupling then underflows too."""
    analytic = [well_level_energy(level, cfg.length, cfg.mass, cfg.hbar) for level in range(1, 6)]
    if 0.0 in analytic:
        raise NumericalError(f"analytic level {analytic.index(0.0) + 1} underflows to zero; "
                             f"its relative error is undefined (hbar {cfg.hbar!r}, "
                             f"mass {cfg.mass!r}, length {cfg.length!r})")
    values = grid_levels(GridMeta(cfg.length, npoints, cfg.mass, cfg.hbar), 5)
    rows = []
    for level, exact in enumerate(analytic, start=1):
        numeric = float(values[level - 1])
        rows.append({
            "n": level,
            "numeric": numeric,
            "analytic": exact,
            "rel_err": abs(numeric - exact) / exact,
        })
    return rows


def run_well_spectrum(cfg: ExperimentConfig):
    rows = _well_rows(cfg.grid_n, cfg)
    base = max(200, cfg.grid_n // 4)
    # the fine grid doubles the resolution of the coarse one: h -> h/2
    coarse, fine = (np.array([row["rel_err"] for row in _well_rows(npoints, cfg)])
                    for npoints in (base, 2 * base + 1))
    checks = [
        _check(cfg, "spectrum", float(np.max([r["rel_err"] for r in rows])), 0.005),
        _check(cfg, "convergence", float(np.min(coarse / fine)), 3.0, "min"),
    ]
    return rows, checks


# ---------------------------------------------------------------------------
# spread
# ---------------------------------------------------------------------------

def run_spread(cfg: ExperimentConfig):
    sigma0 = cfg.length / 40.0
    tau = 2.0 * cfg.mass * sigma0 * sigma0 / cfg.hbar
    times = cfg.times
    if times is None:
        if not math.isfinite(tau):
            raise NumericalError(f"the spreading time 2 m sigma0^2 / hbar overflows (mass {cfg.mass!r}, "
                                 f"length {cfg.length!r}, hbar {cfg.hbar!r}); give --times")
        times = tuple(factor * tau for factor in (0.0, 0.5, 1.0, np.sqrt(3.0), 2.0))
    # a time whose phase rate overflows is refused before the stencil, whose
    # coupling underflows at the same tiny hbar
    for t in times:
        _time_over_hbar(t, cfg.hbar)

    # "free" and "infinite_well" grid models have the same q, p and H and
    # differ only in their recorded kind, so one model evolves both series;
    # the packet and the ground state are both even, so only the even sector is solved
    model = _grid_model(cfg, even_half=True)
    grid = model.grid

    # exp(-(x - c)^2 / (4 sigma0^2)) formed at sigma0's power of two 2**e, where neither (x - c)^2 nor
    # 4 sigma0^2 leaves float range: d = (x - c) 2**-e exactly, and d * d correctly rounded; sampled on
    # the left half and the centre point, and mirrored, so the packet is exactly even
    e = math.frexp(sigma0)[1]
    center, scaled = math.ldexp(cfg.length / 2.0, -e), math.ldexp(sigma0, -e)
    n = grid.npoints
    d = np.ldexp(grid.positions[:n - n // 2], -e) - center
    left = np.exp(-(d * d) / (4.0 * scaled * scaled))
    psi0 = normalize(StateVector(np.concatenate((left, left[:n // 2][::-1])), grid))

    rows = []
    free_errors = []
    for t, width in spread_series(model, psi0, times):
        reference = gaussian_spread_width(sigma0, t, cfg.mass, cfg.hbar)
        err = abs(width - reference) / reference
        free_errors.append(err)
        rows.append({"series": "free", "t": t, "width": width, "reference": reference, "err": err})

    stationary = spread_series(model, _ground_state(model), times)
    base_width = stationary[0][1]
    drifts = []
    for t, width in stationary:
        drift = abs(width - base_width)
        drifts.append(drift)
        rows.append({"series": "stationary", "t": t, "width": width, "reference": base_width, "err": drift})

    checks = [
        _check(cfg, "spread", float(np.max(free_errors)), 0.01),
        # the drift relative to the stationary width, so the verdict does not depend on the length unit
        _check(cfg, "stationary", float(np.max(drifts) / base_width), 1e-6),
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
        # relative to the larger route, so the verdict does not depend on the model's units
        size = max(abs(check.lhs), abs(check.rhs))
        gaps.append(check.gap / size if size else 0.0)
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


#: the working-set budget, in bytes, of one stack of a random sweep's trials.
#: ``_worst_family_recon`` and the ``claims`` sweeps draw each trial into its
#: dimension's pending stack and solve the stack once it holds as many trials
#: as fit in this budget at the sweep's declared bytes per trial
#: (:func:`_trial_bytes` of its ``TRIAL_MATRICES`` entry).  Each stack pays
#: about 0.4 ms of numpy dispatch whatever its size (a recon stack of one), while the
#: working set shows in the process's peak RSS.  At 1 MiB a default
#: ``small-algebra`` pass solves 41 stacks, and no sweep's traced peak
#: exceeds 1.7 MB.
STACK_BYTES = 2**20

#: complex matrices of order N + 1 that one trial of dimension N of each sweep
#: holds at most while its stack is drawn and solved: its draws, and its share
#: of the solve's N x N matrices with their N-vectors and array headers.
TRIAL_MATRICES = {"recon": 8, "weak": 6, "av-split": 4, "dispersion-free": 6}


def _trial_bytes(sweep: str, dim: int) -> int:
    """Declared bytes one trial of dimension ``dim`` of ``sweep`` holds (see ``TRIAL_MATRICES``)."""
    return TRIAL_MATRICES[sweep] * 16 * (dim + 1) ** 2


def _stacks(dims, sweep: str, arrays, draw):
    """Trials drawn in order into pending stacks, one per dimension: yields
    ``(dim, stack)`` for each stack to solve.

    ``dims`` yields each trial's dimension in draw order, and may draw it.  A
    dimension's stack is the tuple ``arrays(dim, cap)`` of arrays with one
    row per trial and at most ``cap`` rows, where ``cap`` trials of
    ``_trial_bytes(sweep, dim)`` fit in ``STACK_BYTES`` (at least one); and
    ``draw(stack, i)`` draws one trial into row i.  A stack is yielded as
    soon as it is full, and its arrays are then filled again, so each is
    valid until the next is asked for.  What is pending after the last trial
    is yielded last, in order of each dimension's first trial.
    """
    pending = {}  # dim: [stack, rows drawn]
    for dim in dims:
        if dim not in pending:
            pending[dim] = [arrays(dim, max(1, STACK_BYTES // _trial_bytes(sweep, dim))), 0]
        entry = pending[dim]
        draw(entry[0], entry[1])
        entry[1] += 1
        if entry[1] == len(entry[0][0]):
            entry[1] = 0
            yield dim, entry[0]
    for dim, (stack, filled) in pending.items():
        if filled:
            yield dim, tuple([array[:filled] for array in stack])  # a list: see spectral._open_grid


def _worst_family_recon(rng: np.random.Generator, trials: int) -> float:
    """Worst entry error over ``trials`` random commuting families of three
    polynomials in one hermitian base, each member rebuilt from one
    decomposition of the family's single generator through its table.

    Each family draws its dimension, its base's two normal matrices and its
    members' three coefficient triples, in that order, straight into its
    dimension's pending stack (:func:`_stacks`), so the working set does not
    grow with ``trials``.  The triples are drawn as the unit uniforms u that
    ``uniform(-2, 2)`` maps to -2 + 4u: the same variates, at under half
    the call's cost.
    """
    def arrays(dim, cap):
        return np.empty((cap, 2, dim, dim)), np.empty((cap, 3, 3))

    def draw(stack, i):
        rng.standard_normal(out=stack[0][i])
        rng.random(out=stack[1][i])

    worst = 0.0
    dims = (int(rng.integers(3, 9)) for _ in range(trials))
    for _, (normals, units) in _stacks(dims, "recon", arrays, draw):
        worst = float(np.maximum(worst, _family_recon_error(normals, -2.0 + 4.0 * units)))
    return worst


def _family_recon_error(normals: np.ndarray, coeffs: np.ndarray) -> float:
    """Worst entry error of :func:`_worst_family_recon` over k families of one
    dimension, drawn as ``normals`` (k, 2, N, N) and ``coeffs`` (k, 3, 3)."""
    base = _hermitian_part(normals)
    square, identity = base @ base, np.eye(base.shape[-1])
    members = np.empty((3, *base.shape), dtype=np.complex128)
    # each member c0 I + c1 base + c2 base^2 in its own slot, one temporary at a time
    for member, (c0, c1, c2) in zip(members, coeffs.transpose(1, 2, 0)[..., None, None]):
        np.multiply(c1, base, out=member)
        np.add(c0 * identity, member, out=member)
        member += c2 * square
    del base, square
    # each member certified in turn, which refuses the first matrix in member order as one stack would
    scales = np.array([_certify_stack(member)[0] for member in members])
    generators, tables, counts = _vn_generator_stack(list(members), scales)
    values, basis = _eigendecompose_stack(generators, _certify_stack(generators)[0])
    # round half to even, as round() does
    labels = np.rint(values)
    outside = ~((labels >= 0) & (labels < counts[:, None]))
    if outside.any():
        f, k = np.argwhere(outside)[0]
        raise NumericalError(f"generator eigenvalue {values[f, k]:.17g} rounds to {labels[f, k]:g}, "
                             f"outside the labels 0 .. {counts[f] - 1}")
    rebuilt_values = tables[(*_open_grid(tables.shape)[:-1], labels.astype(np.intp)[:, None, :])]
    worst = 0.0
    for member, values in zip(members, rebuilt_values.transpose(1, 0, 2)):  # one member's temporaries at a time
        worst = np.maximum(worst, abs(_spectral_sum(basis, values) - member).max())
    return float(worst)


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
    model = _grid_model(cfg, even_half=False)
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
        _check(cfg, "envelope", float(np.max(sigmas)), 3.0),
        _check(cfg, "mass-one-cell", float(top_mass), 0.99, "min"),
    ]
    return rows, checks


# ---------------------------------------------------------------------------
# claims
# ---------------------------------------------------------------------------

def _trial_normals(rng: np.random.Generator, dims: list[int], sweep: str, shapes):
    """Standard normals of trials of dimensions ``dims``, trial by trial in
    order, each drawing one array of every shape in ``shapes(dim)`` in turn.

    The normals are drawn by one ``standard_normal`` call per run of
    consecutive whole trials into a buffer of at most ``STACK_BYTES // 16``
    bytes, and each trial is copied from it into its dimension's pending
    stack of ``sweep`` (:func:`_stacks`); a trial larger than the buffer is
    drawn straight into its row.  numpy fills arrays variate by variate, so
    every array gets the variates of one call per array.  A stack holds no
    more rows than its dimension has trials.  Yields, per stack, one
    (k, *shape) array per shape over its k trials.
    """
    counts = Counter(dims)
    widths = {dim: sum(math.prod(shape) for shape in shapes(dim)) for dim in counts}
    buffer = np.empty(min(STACK_BYTES // 128, sum(widths[dim] * count for dim, count in counts.items())))
    cursor = [0, 0, 0]  # the next trial, its offset in the buffer, and the end of the buffer's draws

    def arrays(dim, cap):
        return (np.empty((min(cap, counts[dim]), widths[dim])),)

    def draw(stack, i):
        trial, offset, end = cursor
        size, row = widths[dims[trial]], stack[0][i]
        if offset + size > end:  # the buffer is spent: refill it with the whole trials from this one that fit
            offset, end = 0, 0
            for later in itertools.islice(dims, trial, None):
                if end + widths[later] > buffer.size:
                    break
                end += widths[later]
            if not end:
                rng.standard_normal(out=row)
                cursor[:] = trial + 1, 0, 0
                return
            rng.standard_normal(out=buffer[:end])
        row[...] = buffer[offset:offset + size]
        cursor[:] = trial + 1, offset + size, end

    for dim, (block,) in _stacks(dims, sweep, arrays, draw):
        ends = np.cumsum([0, *(math.prod(shape) for shape in shapes(dim))]).tolist()
        yield [block[:, a:b].reshape(len(block), *shape) for a, b, shape in zip(ends, ends[1:], shapes(dim))]


def _worst_weak(rng: np.random.Generator, trials: int) -> float:
    """Worst |tr<psi|[A, B] psi>| over random hermitian A, B and states psi of
    dimension 2 + trial % 7, each trial drawing A, B, then psi."""
    worst = 0.0
    dims = [2 + trial % 7 for trial in range(trials)]
    for a, b, re, im in _trial_normals(rng, dims, "weak", lambda d: [(2, d, d), (2, d, d), (d,), (d,)]):
        a, b = _hermitian_part(a), _hermitian_part(b)
        _certify_stack(a)
        _certify_stack(b)
        values = _expect_r_stack(a @ b - b @ a, _unit_rows(re + 1j * im, None), None)
        worst = float(np.maximum(worst, abs(values).max()))
    return worst


def _worst_av_split(rng: np.random.Generator, trials: int) -> tuple[float, float, float]:
    """Worst residual |A psi - alpha psi - beta perp|, worst |<psi|perp>| and
    least beta of the alpha/beta split over random hermitian A and states psi
    of dimension 2 + trial % 7, each trial drawing A, then psi."""
    worst_residual, worst_orth, min_beta = 0.0, 0.0, np.inf
    dims = [2 + trial % 7 for trial in range(trials)]
    for a, re, im in _trial_normals(rng, dims, "av-split", lambda d: [(2, d, d), (d,), (d,)]):
        a = _hermitian_part(a)
        _certify_stack(a)
        psi = _unit_rows(re + 1j * im, None)
        alpha, beta, perp, defined, images = _av_stack(a, psi, None)
        min_beta = float(np.minimum(min_beta, beta.min()))
        recon = alpha[:, None] * psi + np.where(defined[:, None], beta[:, None] * perp, 0.0)
        # each row's np.linalg.norm
        worst_residual = float(np.maximum(worst_residual, np.sqrt(_squares(images - recon)).max()))
        inner = np.vecdot(psi[defined], perp[defined])
        # hypot, as abs() of one complex scalar computes it
        worst_orth = float(np.maximum(worst_orth, np.hypot(inner.real, inner.imag).max(initial=0.0)))
    return worst_residual, worst_orth, min_beta


def _worst_dispersion_free(rng: np.random.Generator, trials: int) -> tuple[float, float]:
    """Worst spread of a random hermitian A over its own eigenbasis, relative
    to sqrt(1 + max|eigenvalue|^2), and worst eigen-residual max|AU - U diag(w)|,
    relative to 1 + max|eigenvalue|, with dimensions cycling from 2 to 64."""
    worst_spread, worst_eig = 0.0, 0.0
    cycle = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)
    dims = [cycle[trial % len(cycle)] for trial in range(trials)]
    for (a,) in _trial_normals(rng, dims, "dispersion-free", lambda d: [(2, d, d)]):
        a = _hermitian_part(a)
        values, basis = _eigendecompose_stack(a, _certify_stack(a)[0])
        norm = abs(values).max(axis=-1)
        product = a @ basis
        residual = abs(product - basis * values[:, None, :]).max(axis=(1, 2))
        worst_eig = float(np.maximum(worst_eig, (residual / (1.0 + norm)).max()))
        # the spread reads the same product last, as it centers it in place
        spread = _worst_spread(product, basis, norm)
        worst_spread = float(np.maximum(worst_spread, (spread / np.sqrt(1.0 + norm * norm)).max()))
    return worst_spread, worst_eig


def run_claims(cfg: ExperimentConfig):
    rng = np.random.default_rng(cfg.seed)
    rows = []
    checks = []

    # trace form of a commutator expectation vanishes
    worst_weak = _worst_weak(rng, 1000)
    rows.append({"claim": "weak-commutativity", "trials": 1000, "worst": worst_weak})
    checks.append(_check(cfg, "weak", worst_weak, 1e-10))

    # mean-plus-deviation split reconstructs the operator action
    worst_residual, worst_orth, min_beta = _worst_av_split(rng, 500)
    rows.append({"claim": "av-split", "trials": 500, "worst": worst_residual})
    checks.append(_check(cfg, "av-residual", worst_residual, 1e-9))
    checks.append(_check(cfg, "av-orth", worst_orth, 1e-10))
    checks.append(_check(cfg, "av-beta", min_beta, 0.0, "min"))

    # eigenbases are dispersion-free and solve the eigenproblem
    worst_spread, worst_eig = _worst_dispersion_free(rng, 44)
    rows.append({"claim": "dispersion-free", "trials": 44, "worst": worst_spread})
    checks.append(_check(cfg, "dispersion-free", worst_spread, 1e-8))
    checks.append(_check(cfg, "eigen-residual", worst_eig, 1e-9))

    # scalar algebra: tr(i) = 0 exactly, minimal polynomial annihilates
    trace_i = abs(trace(IMAG_UNIT))
    x = rng.uniform(-1e3, 1e3, size=(1000, 2))  # (re, im) per trial, as drawn one by one
    worst_minpoly = float(np.hypot(*_minimal_poly_parts(x[:, 0], x[:, 1])).max())  # abs() of each residual
    rows.append({"claim": "trace-algebra", "trials": 1000, "worst": worst_minpoly})
    checks.append(_check(cfg, "trace-i", trace_i, 0.0))
    checks.append(_check(cfg, "minpoly", worst_minpoly, 1e-9))

    # single generator reconstructs a commuting family
    _, canned_dev, exact = _canned_generator()
    worst_recon = float(np.maximum(canned_dev if exact else np.inf, _worst_family_recon(rng, 100)))
    rows.append({"claim": "single-generator", "trials": 100, "worst": worst_recon})
    checks.append(_check(cfg, "recon", worst_recon, 1e-9))

    return rows, checks


@dataclass(frozen=True)
class Experiment:
    """One experiment's declaration: its command-line name, its runner, the
    names of the checks the runner emits in order (each one's bound is
    ``--tol-NAME``), its one-line usage summary, and its overrides of the
    :class:`ExperimentConfig` defaults."""

    name: str
    run: Callable[[ExperimentConfig], tuple[list[dict], list[Check]]]
    checks: tuple[str, ...]
    summary: str
    defaults: dict[str, object] = field(default_factory=dict)


#: every experiment, declared once, in the order the usage text lists them.
DECLARATIONS = {experiment.name: experiment for experiment in (
    Experiment("cat", run_cat, ("support", "mean", "std"), "two-outcome superposition statistics"),
    Experiment("well-spectrum", run_well_spectrum, ("spectrum", "convergence"),
               "hard-wall level energies against the analytic law"),
    Experiment("spread", run_spread, ("spread", "stationary"),
               "free-packet width growth and stationary-state width", {"grid_n": 512}),
    Experiment("poisson", run_poisson, ("gap",), "classical bracket vs commutator expectations"),
    Experiment("vn-generator", run_vn_generator, ("canned", "tables", "recon"),
               "single generator of a commuting family", {"n": 100}),
    Experiment("ensemble-density", run_ensemble_density, ("envelope", "mass-one-cell"),
               "sampled position density against the state density", {"grid_n": 128, "n": 50000}),
    Experiment("claims", run_claims,
               ("weak", "av-residual", "av-orth", "av-beta", "dispersion-free", "eigen-residual",
                "trace-i", "minpoly", "recon"),
               "structural invariant sweep"),
)}

#: name -> runner, in declaration order: what the command line dispatches through.
EXPERIMENTS = {name: experiment.run for name, experiment in DECLARATIONS.items()}
