"""Projective measurement, collapse, and ensemble statistics.

Outcome probabilities follow the squared-amplitude rule per degenerate
group of the measured observable's decomposition.  A single measurement
draws one uniform variate, walks the cumulative probabilities (with the
final group as catch-all for the roundoff sliver at the top), and collapses
the state onto the selected eigenspace.

Ensembles model repeated preparation: every sample rebuilds the state from
its preparation recipe, measures, and discards.  Randomness comes from one
named seed split into independent per-sample substreams, so sample i sees
the same variate no matter how samples are batched or ordered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegenerateSpectrumError, InputError, NumericalError
from .operators import HermitianOperator, _require_normalized, av_decompose, certify_hermitian
from .spectral import SpectralDecomposition, eigendecompose
from .states import GridMeta, StateVector, normalize, superpose, _weight

__all__ = [
    "MeasurementOutcome",
    "EnsembleReport",
    "CatResult",
    "sample_rng",
    "born_probabilities",
    "measure_once",
    "repeat_experiment",
    "reconstruct_density",
    "cat_experiment",
]

#: probabilities this far below zero are clamped; further is an error.
PROB_CLAMP = 1e-12

#: a distribution whose largest probability is below this is unusable.
PROB_FLOOR = 1e-14

#: measured values must sit this close (scaled) to a grid position to bin.
POSITION_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class MeasurementOutcome:
    """One measured value, its degenerate group, and the collapsed state."""

    eigenvalue: float
    group_index: int
    collapsed: StateVector


@dataclass(frozen=True)
class EnsembleReport:
    """Outcome counts of a repeated prepare-measure-discard experiment.

    ``counts`` maps each observed representative eigenvalue to its count in
    ascending eigenvalue order; unobserved outcomes do not appear.  The
    empirical mean and standard deviation are computed from the counts.
    """

    counts: dict[float, int]
    n: int
    empirical_mean: float
    empirical_std: float
    seed: int


class CatResult(NamedTuple):
    """Two-outcome superposition experiment with its mean and spread."""

    report: EnsembleReport
    alpha: float
    beta: float


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """Independent substream for sample ``index`` of experiment ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),)))


def _group_probabilities(dec: SpectralDecomposition, amps: np.ndarray) -> np.ndarray:
    weights = np.abs(amps) ** 2
    probs = np.empty(len(dec.groups), dtype=np.float64)
    for g, group in enumerate(dec.groups):
        p = float(np.sum(weights[list(group)]))
        if p < -PROB_CLAMP:
            raise NumericalError(f"group probability {p:.3e} is negative beyond clamping")
        probs[g] = max(0.0, p)
    return probs


def _draw_group(probs: np.ndarray, rng: np.random.Generator) -> int:
    cumulative = np.cumsum(probs)
    u = rng.random()
    g = int(np.searchsorted(cumulative, u, side="right"))
    return min(g, len(probs) - 1)


def born_probabilities(dec: SpectralDecomposition, psi: StateVector) -> list[tuple[float, float]]:
    """(eigenvalue, probability) per degenerate group; probabilities sum to 1."""
    _require_normalized(psi)
    amps = dec.amplitudes(psi)
    probs = _group_probabilities(dec, amps)
    return [(dec.group_eigenvalue(g), float(probs[g])) for g in range(len(probs))]


def measure_once(dec: SpectralDecomposition, psi: StateVector,
                 rng: np.random.Generator) -> MeasurementOutcome:
    """Draw one outcome and collapse; consumes exactly one uniform variate."""
    _require_normalized(psi)
    amps = dec.amplitudes(psi)
    probs = _group_probabilities(dec, amps)
    if float(np.max(probs)) < PROB_FLOOR:
        raise NumericalError("all outcome probabilities vanish; state is numerically unusable")
    g = _draw_group(probs, rng)
    idx = list(dec.groups[g])
    coeffs = (dec.basis[:, idx] @ amps[idx]) / np.sqrt(_weight(dec.grid))
    collapsed = normalize(StateVector(coeffs, dec.grid))
    return MeasurementOutcome(dec.group_eigenvalue(g), g, collapsed)


def repeat_experiment(preparation: Callable[[], StateVector], observable: HermitianOperator,
                      n: int, seed: int) -> EnsembleReport:
    """Run n independent prepare-measure-discard cycles.

    ``preparation`` is a pure recipe called once per sample; nothing carries
    over between samples except the outcome tally.  Sample i draws from
    ``sample_rng(seed, i)``, so the counts are identical however the loop is
    chunked, and each outcome can be replayed with :func:`measure_once`.
    """
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    dec = eigendecompose(observable)
    counts = np.zeros(len(dec.groups), dtype=np.int64)
    cached_coeffs = None
    cached_grid = None
    probs = None
    for i in range(n):
        psi = preparation()
        if cached_coeffs is None or psi.grid != cached_grid or not np.array_equal(psi.coeffs, cached_coeffs):
            _require_normalized(psi)
            amps = dec.amplitudes(psi)
            probs = _group_probabilities(dec, amps)
            if float(np.max(probs)) < PROB_FLOOR:
                raise NumericalError("all outcome probabilities vanish; state is numerically unusable")
            cached_coeffs = psi.coeffs
            cached_grid = psi.grid
        counts[_draw_group(probs, sample_rng(seed, i))] += 1

    observed = {}
    total = 0.0
    for g in range(len(dec.groups)):
        if counts[g] > 0:
            value = dec.group_eigenvalue(g)
            observed[value] = int(counts[g])
            total += value * counts[g]
    mean = total / n
    variance = sum(c * (value - mean) ** 2 for value, c in observed.items()) / n
    return EnsembleReport(observed, n, float(mean), float(np.sqrt(variance)), int(seed))


def reconstruct_density(reports, grid: GridMeta) -> list[tuple[float, float]]:
    """Empirical position density from one or more position-measurement reports.

    Every counted eigenvalue must coincide with a grid position (within a
    scaled tolerance); the result covers all cells, zeros included, and the
    frequencies sum to one.
    """
    if isinstance(reports, EnsembleReport):
        reports = [reports]
    reports = list(reports)
    if not reports:
        raise InputError("no reports to reconstruct from")
    positions = grid.positions
    tol = POSITION_MATCH_TOL * max(1.0, grid.length)
    tally = np.zeros(grid.npoints, dtype=np.int64)
    total = 0
    for report in reports:
        for value, count in report.counts.items():
            j = int(np.round(value / grid.spacing)) - 1
            if j < 0 or j >= grid.npoints or abs(positions[j] - value) > tol:
                raise InputError(f"outcome {value!r} is not a position on this grid")
            tally[j] += count
            total += count
    frequencies = tally / total
    return [(float(positions[j]), float(frequencies[j])) for j in range(grid.npoints)]


def cat_experiment(a1: float, a2: float, n: int, seed: int) -> CatResult:
    """Measure an equal two-outcome superposition n times.

    The observable is diag(a1, a2) with a1 != a2; the state is the equal
    superposition of its two eigenstates.  Returns the ensemble report plus
    the mean/spread pair of the observable in that state, which for
    outcomes a1, a2 is ((a1 + a2)/2, |a1 - a2|/2).
    """
    a1, a2 = float(a1), float(a2)
    if a1 == a2:
        raise DegenerateSpectrumError(f"outcomes must be distinct, both are {a1!r}")
    observable = certify_hermitian(np.diag([a1, a2]).astype(np.complex128))

    def prepare() -> StateVector:
        branch1 = StateVector([1.0, 0.0])
        branch2 = StateVector([0.0, 1.0])
        return normalize(superpose([branch1, branch2], [1.0, 1.0]))

    report = repeat_experiment(prepare, observable, n, seed)
    alpha, beta, _ = av_decompose(observable, prepare())
    return CatResult(report, alpha, beta)
