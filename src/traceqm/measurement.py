"""Projective measurement, collapse, and ensemble statistics.

Outcome probabilities follow the squared-amplitude rule per degenerate
group of the measured observable's decomposition: |amplitude|^2 summed over
each group.  A single measurement draws one uniform variate, picks the group
whose cumulative-probability interval holds it (the final group catches the
roundoff sliver at the top), and collapses the state onto that eigenspace.
Each decomposition remembers the outcome bounds of the last few states
measured on it and every collapse built from them (at most ``MEMO_ENTRIES``
entries, the oldest evicted first), found by one lookup in :func:`measure_once`
and :func:`repeat_experiment`: the last state by identity, any other by its
grid and coefficient bytes, so an equal copy reuses the entry.  A measurement
whose state and outcome are known costs one variate and two lookups: replaying
samples, or measuring a collapsed state again, repeats no Born computation.

Ensembles model repeated preparation: every sample rebuilds the state from
its preparation recipe, measures, and discards.  Randomness comes from one
named seed split into per-sample substreams: sample i's variate is the
first draw of ``sample_rng(seed, i)``, so it depends on (seed, i) alone and
never on how samples are batched or ordered.  One function,
:func:`_seed_words`, reproduces numpy's SeedSequence hash with array
arithmetic for a range of sample indices.  :func:`repeat_experiment` runs
PCG64 seeding and one draw on those words a fixed-size chunk at a time, so
a batch yields the per-sample substreams' variates bit for bit, every
outcome can be replayed with :func:`measure_once`, and the working memory
does not grow with the number of samples.  ``sample_rng`` seeds numpy's
own PCG64 from a row of a small cache of such word blocks instead of
hashing a new SeedSequence per call; the generator is numpy's in state,
stream, spawning and pickling.
"""

from __future__ import annotations

import functools
import math
import operator
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

#: a distribution whose largest probability is below this is unusable.
PROB_FLOOR = 1e-14

#: measured values must sit this close, relative to the grid length, to a grid position to bin.
POSITION_MATCH_TOL = 1e-9

#: states and (state, outcome group) collapses one decomposition remembers
#: for measure_once; each entry holds a few dimension-length arrays.
MEMO_ENTRIES = 16

#: samples whose variates are drawn and binned together; bounds the working
#: set.  Also the rows of one cached block of ``sample_rng`` seed words.
SAMPLE_CHUNK = 4096

#: more samples than this are refused: every sample index must fit the one
#: uint32 spawn word that ``_seed_words`` mixes.
MAX_SAMPLES = 2**32 - 1

#: blocks of ``SAMPLE_CHUNK`` seed words ``sample_rng`` keeps, 128 KiB each;
#: at least two, so two seeds read in turn do not evict each other.
SEED_BLOCKS = 4


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


# numpy's SeedSequence hash (pool of four uint32 words) and PCG64 constants,
# as in numpy/random/bit_generator.pyx and pcg64.h
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_PCG_MULT_HI, _PCG_MULT_LO = 2549297995355413924, 4865540595714422341


def _hashmix(value, hash_const: int, mult: int = _MULT_A) -> tuple:
    """SeedSequence's hashmix on an int or a uint64 array of uint32 values; returns the next constant."""
    value = value ^ hash_const
    hash_const = (hash_const * mult) & _MASK32
    value *= hash_const
    value &= _MASK32
    value ^= value >> _XSHIFT
    return value, hash_const


def _mix(x, y):
    """SeedSequence's mix of two uint32 values (ints or uint64 arrays)."""
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    result &= _MASK32
    result ^= result >> _XSHIFT
    return result


def _pcg_step(high: np.ndarray, low: np.ndarray, inc_high: np.ndarray, inc_low: np.ndarray):
    """state * multiplier + increment modulo 2**128, on (high, low) uint64 halves, in place.

    The 128-bit product of ``low`` and the multiplier's low half is built
    from 32-bit halves, each partial product fitting a uint64.
    """
    low0, low1 = low & _MASK32, low >> 32
    m0, m1 = np.uint64(_PCG_MULT_LO & _MASK32), np.uint64(_PCG_MULT_LO >> 32)
    cross = low0 * m1
    middle = low0 * m0
    middle >>= 32
    middle += cross & _MASK32
    high *= np.uint64(_PCG_MULT_LO)
    high += low * np.uint64(_PCG_MULT_HI)
    cross >>= 32
    high += cross
    cross = low1 * m0
    middle += cross & _MASK32
    cross >>= 32
    high += cross
    low1 *= m1
    high += low1
    middle >>= 32
    high += middle
    low *= np.uint64(_PCG_MULT_LO)
    low += inc_low
    high += inc_high
    high += low < inc_low


def _seed_words(seed: int, lo: int, hi: int) -> np.ndarray:
    """``SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(4, np.uint64)``
    for every i in [lo, hi), as the rows of a ``(hi - lo, 4)`` uint64 array.

    Reproduces numpy's hash with array arithmetic.  The seed's words come
    first in the entropy, so the pool after mixing them is
    ``SeedSequence(seed).pool``; the hash constant then depends only on how
    many hashmix calls numpy made (4 to fill the pool, 12 to cross-mix it, 4
    per seed word beyond the fourth).  Only the spawn word ``i`` (one
    uint32, hence ``hi <= 2**32``) is mixed across the array.  The array is
    column-major, each of the four words one contiguous column, and at most
    a dozen arrays of length ``hi - lo`` are alive at once.
    """
    pool = [int(word) for word in np.random.SeedSequence(seed).pool]
    words = max(1, -(-seed.bit_length() // 32))
    hashes = _POOL_SIZE**2 + _POOL_SIZE * max(0, words - _POOL_SIZE)
    hash_const = (_INIT_A * pow(_MULT_A, hashes, 1 << 32)) & _MASK32
    # the spawn word, in uint64 lanes holding uint32 values
    spawn = np.arange(lo, hi, dtype=np.uint64)
    for dst in range(_POOL_SIZE):
        value, hash_const = _hashmix(spawn, hash_const)
        pool[dst] = _mix(pool[dst], value)
    del spawn, value

    # generate_state(4, uint64): eight uint32 words, paired little-endian
    out = np.empty((_POOL_SIZE, hi - lo), dtype=np.uint64)
    hash_const = _INIT_B
    for k in range(2 * _POOL_SIZE):
        value, hash_const = _hashmix(pool[k % _POOL_SIZE], hash_const, _MULT_B)
        if k % 2:
            value <<= 32
            out[k // 2] |= value
        else:
            out[k // 2] = value
    return out.T


def _first_uniforms(seed: int, lo: int, hi: int) -> np.ndarray:
    """``sample_rng(seed, i).random()`` for every i in [lo, hi), bit for bit.

    PCG64 seeding and one ``random()`` draw on the rows of
    :func:`_seed_words`, with array arithmetic; the seed words are the
    initial state (high, low) and sequence (high, low).  Every array has
    length ``hi - lo`` and at most a dozen are alive at once.
    """
    high, low, inc_high, inc_low = _seed_words(seed, lo, hi).T

    # PCG64 seeding: inc = initseq << 1 | 1, state = (inc + initstate) * M + inc
    inc_high <<= 1
    inc_high |= inc_low >> 63
    inc_low <<= 1
    inc_low |= 1
    low += inc_low
    high += inc_high
    high += low < inc_low
    _pcg_step(high, low, inc_high, inc_low)
    # one draw: step, XSL-RR output, top 53 bits as a double in [0, 1)
    _pcg_step(high, low, inc_high, inc_low)
    rotation = high >> 58
    low ^= high
    high = low >> rotation
    rotation = (64 - rotation) & 63
    low <<= rotation
    low |= high
    low >>= 11
    return low.astype(np.float64) * 2.0**-53


class _SeedWords:
    """``SeedSequence(entropy=seed, spawn_key=(index,))`` holding its PCG64 seed words.

    The first ``generate_state(4, np.uint64)``, the one request PCG64
    makes, returns a copy of ``row``.  ``spawn`` and every other request go
    to the real SeedSequence, built on first use; the object pickles as it.
    """

    __slots__ = ("entropy", "spawn_key", "_row", "_real")

    def __init__(self, seed: int, index: int, row: np.ndarray):
        self.entropy, self.spawn_key, self._row, self._real = seed, (index,), row, None

    def _sequence(self) -> np.random.SeedSequence:
        if self._real is None:
            self._real = np.random.SeedSequence(entropy=self.entropy, spawn_key=self.spawn_key)
        return self._real

    def generate_state(self, n_words, dtype=np.uint32):
        # the row is dropped once used, so a generator does not keep its block alive
        row, self._row = self._row, None
        if row is not None and n_words == 4 and dtype is np.uint64:
            return row.copy()
        return self._sequence().generate_state(n_words, dtype)

    def __getattr__(self, name):
        return getattr(self._sequence(), name)

    def __reduce__(self):
        return self._sequence().__reduce__()


@functools.lru_cache(maxsize=SEED_BLOCKS)
def _seed_block(seed: int, block: int) -> np.ndarray:
    """Read-only :func:`_seed_words` of ``seed`` for samples ``block * SAMPLE_CHUNK`` on.

    Also registers :class:`_SeedWords` as numpy's spawnable seed sequence,
    which every ``sample_rng`` generator needs first; doing it at import
    would load ``numpy.random`` with ``traceqm``.
    """
    np.random.bit_generator.ISpawnableSeedSequence.register(_SeedWords)
    words = _seed_words(seed, block * SAMPLE_CHUNK, (block + 1) * SAMPLE_CHUNK)
    words.flags.writeable = False
    return words


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """Independent substream for sample ``index`` of experiment ``seed``.

    The generator is ``Generator(PCG64(SeedSequence(entropy=seed,
    spawn_key=(index,))))`` in state, stream, spawned children and pickle.
    For ``index`` in [0, 2**32) its seed words come from a cached block
    (:func:`_seed_block`) instead of a fresh SeedSequence hash; any other
    index is built as written.  ``seed`` and ``index`` must be integers: a
    float raises ``TypeError`` rather than being truncated.
    """
    seed, index = operator.index(seed), operator.index(index)
    if 0 <= index < 2**32:  # one uint32 spawn word
        row = _seed_block(seed, index // SAMPLE_CHUNK)[index % SAMPLE_CHUNK]
        return np.random.Generator(np.random.PCG64(_SeedWords(seed, index, row)))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(index,))))


def _group_probabilities(dec: SpectralDecomposition, amps: np.ndarray) -> np.ndarray:
    return np.add.reduceat(np.abs(amps) ** 2, dec.group_starts)


def _born_weights(dec: SpectralDecomposition, psi: StateVector) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes of a normalized state and the Born probability of each outcome group."""
    _require_normalized(psi)
    amps = dec.amplitudes(psi)
    return amps, _group_probabilities(dec, amps)


def _outcome_bounds(dec: SpectralDecomposition, psi: StateVector) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes of a normalized state and the upper bounds of its outcome groups.

    The bounds are the cumulative group probabilities without the last, so
    ``bounds.searchsorted(u, side="right")`` picks group g for a variate u
    and the final group catches the roundoff sliver at the top: it equals
    the full cumulative search clamped to the last group.
    """
    amps, probs = _born_weights(dec, psi)
    # array methods rather than np.max/np.cumsum: same result, less dispatch
    if probs.max() < PROB_FLOOR:
        raise NumericalError("all outcome probabilities vanish; state is numerically unusable")
    return amps, probs.cumsum()[:-1]


def born_probabilities(dec: SpectralDecomposition, psi: StateVector) -> list[tuple[float, float]]:
    """(eigenvalue, probability) per degenerate group; probabilities sum to 1."""
    _, probs = _born_weights(dec, psi)
    return [(dec.group_eigenvalue(g), float(probs[g])) for g in range(len(probs))]


def _collapse(dec: SpectralDecomposition, amps: np.ndarray, g: int) -> MeasurementOutcome:
    """Outcome of group ``g``: its eigenvalue and the state projected onto its eigenspace."""
    idx = list(dec.groups[g])
    projected = StateVector((dec.basis[:, idx] @ amps[idx]) / np.sqrt(_weight(dec.grid)), dec.grid)
    return MeasurementOutcome(dec.group_eigenvalue(g), g, normalize(projected))


def _remember(memo, key, value):
    """Store ``value`` under ``key``, evicting the oldest entries beyond ``MEMO_ENTRIES``."""
    while len(memo) >= MEMO_ENTRIES:
        memo.popitem(last=False)
    memo[key] = value
    return value


def _known_state(dec: SpectralDecomposition, psi: StateVector):
    """Memo key of ``psi`` and its ``(amplitudes, bounds)``, computed once per content.
    The state looked up last is known by identity (states are immutable), any other
    by its key; only successes are stored, so a refused state is refused every time."""
    last = dec._last_state
    if last is not None and last[0] is psi:
        return last[1]
    memo = dec._memo
    key = (psi.grid, psi.coeffs.tobytes())
    known = memo.get(key)
    if known is None:
        known = _remember(memo, key, _outcome_bounds(dec, psi))
    dec._last_state = (psi, (key, known))
    return key, known


def measure_once(dec: SpectralDecomposition, psi: StateVector,
                 rng: np.random.Generator) -> MeasurementOutcome:
    """Draw one outcome and collapse; consumes exactly one uniform variate.

    The outcome bounds of ``psi`` and the collapse onto the drawn group are
    taken from ``dec``'s memo when an earlier call computed them for a state
    with the same grid and coefficient bytes.
    """
    state, (amps, bounds) = _known_state(dec, psi)
    g = int(bounds.searchsorted(rng.random(), side="right"))
    memo = dec._memo
    outcome = memo.get((state, g))
    if outcome is None:
        outcome = _remember(memo, (state, g), _collapse(dec, amps, g))
    return outcome


def repeat_experiment(preparation: Callable[[], StateVector], observable: HermitianOperator,
                      n: int, seed: int) -> EnsembleReport:
    """Run n independent prepare-measure-discard cycles.

    ``preparation`` is a pure recipe called once per sample; nothing carries
    over between samples except the outcome tally.  A prepared state's
    outcome bounds come from the decomposition's memo, as for
    :func:`measure_once`.  Sample i draws from ``sample_rng(seed, i)``, so
    the counts are identical however the loop is chunked, and each outcome
    can be replayed with :func:`measure_once`.
    """
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    if n > MAX_SAMPLES:
        raise InputError(f"at most {MAX_SAMPLES} samples per experiment, got {n}")
    seed = operator.index(seed)
    np.random.SeedSequence(seed)  # a negative seed fails here as in sample_rng, before any sample
    dec = eigendecompose(observable)
    counts = np.zeros(len(dec.groups), dtype=np.int64)
    bounds = None
    for lo in range(0, n, SAMPLE_CHUNK):
        hi = min(n, lo + SAMPLE_CHUNK)
        # where the outcome bounds change in this chunk: the memo returns the
        # same bounds object for the same prepared state
        starts, run_bounds = [0], [bounds]
        for i in range(lo, hi):
            _, (_, known) = _known_state(dec, preparation())
            if known is not bounds:
                bounds = known
                starts.append(i - lo)
                run_bounds.append(bounds)
        starts.append(hi - lo)
        u = _first_uniforms(seed, lo, hi)
        picked = np.empty(hi - lo, dtype=np.intp)
        for start, stop, run in zip(starts, starts[1:], run_bounds):
            if stop > start:
                picked[start:stop] = run.searchsorted(u[start:stop], side="right")
        counts += np.bincount(picked, minlength=counts.size)

    seen = np.flatnonzero(counts)
    observed = {dec.group_eigenvalue(g): int(counts[g]) for g in seen}
    # the outcomes are scaled by the power of two 2**-e that brings the largest into
    # [0.5, 1) and the mean and std back by 2**e, all exactly, so the mean's products
    # and the squared deviations stay in range whatever the outcomes' scale
    e = math.frexp(max(map(abs, observed)))[1]
    scaled = [math.ldexp(value, -e) for value in observed]
    mean = float(sum(value * counts[g] for value, g in zip(scaled, seen)) / n)
    variance = sum(c * (value - mean) ** 2 for value, c in zip(scaled, observed.values())) / n
    return EnsembleReport(observed, n, math.ldexp(mean, e), math.ldexp(math.sqrt(variance), e), seed)


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
    tol = POSITION_MATCH_TOL * grid.length
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

    cat = normalize(superpose([StateVector([1.0, 0.0]), StateVector([0.0, 1.0])], [1.0, 1.0]))
    report = repeat_experiment(lambda: cat, observable, n, seed)
    alpha, beta, _ = av_decompose(observable, cat)
    return CatResult(report, alpha, beta)
