"""Projective measurement, collapse, and ensemble statistics.

Outcome probabilities follow the squared-amplitude rule per degenerate
group of the measured observable's decomposition: |amplitude|^2 summed over
each group.  A single measurement draws one uniform variate, picks the group
whose cumulative-probability interval holds it (the last group of nonzero
probability catches the roundoff sliver at the top), and collapses the state
onto that eigenspace.
Each decomposition remembers the outcome bounds of the last few states
measured on it and every collapse built from them (at most ``MEMO_ENTRIES``
entries, the oldest evicted first).  A state's entry carries an outcome table
with one slot per group, holding that group's collapse while the memo holds
it.  The last ``MEMO_ENTRIES`` state objects looked up are known by identity,
from a table that holds each of them so that its id is not reused; any other
state is looked up by its grid and coefficient bytes, so an equal copy reuses
the entry.  A measurement whose state object and outcome are known costs one
variate, one identity lookup, one bisection of the bounds and one table slot:
replaying samples, or measuring a collapsed state again, repeats no Born
computation, hashes no coefficients and looks up nothing in the memo.
:func:`repeat_experiment` tallies the variates of a chunk under equal
bounds together, by sorting them and counting those below each bound.

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
stream, spawning and pickling.  The row is handed to PCG64 in place, with
no copy: a block is laid out C-contiguous and read-only, since PCG64 reads
the four words through the array's data pointer and ignores its strides.
"""

from __future__ import annotations

import bisect
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
#: set.  Also the rows of one cached block of ``sample_rng`` seed words, so
#: a power of two: sample i is row ``i & _CHUNK_MASK`` of block ``i >> _CHUNK_SHIFT``.
SAMPLE_CHUNK = 4096
_CHUNK_SHIFT, _CHUNK_MASK = SAMPLE_CHUNK.bit_length() - 1, SAMPLE_CHUNK - 1

#: more samples than this are refused: every sample index must fit the one
#: uint32 spawn word that ``_seed_words`` mixes.
MAX_SAMPLES = 2**32 - 1

#: blocks of ``SAMPLE_CHUNK`` seed words ``sample_rng`` keeps, about 608 KiB
#: each (128 KiB of words, 4096 row views and their list); at least two, so
#: two seeds read in turn do not evict each other.
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


def _hashmix(value: np.ndarray, hash_const: int, mult: int = _MULT_A) -> tuple:
    """SeedSequence's hashmix on a uint32 array, wrapping mod 2**32; returns the next constant."""
    value = value ^ hash_const
    hash_const = (hash_const * mult) & _MASK32
    value *= hash_const
    value ^= value >> _XSHIFT
    return value, hash_const


def _mix(x: int, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of a uint32 int and a uint32 array, wrapping mod 2**32.

    The int's product is reduced first: numpy refuses a Python int beyond uint32.
    """
    result = ((_MIX_MULT_L * x) & _MASK32) - _MIX_MULT_R * y
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
    spawn = np.arange(lo, hi, dtype=np.uint32)
    for dst in range(_POOL_SIZE):
        value, hash_const = _hashmix(spawn, hash_const)
        pool[dst] = _mix(pool[dst], value)
    del spawn, value

    # generate_state(4, uint64): eight uint32 words, each pair one little-endian uint64
    out = np.empty((_POOL_SIZE, hi - lo, 2), dtype="<u4")
    hash_const = _INIT_B
    for k in range(2 * _POOL_SIZE):
        out[k // 2, :, k % 2], hash_const = _hashmix(pool[k % _POOL_SIZE], hash_const, _MULT_B)
    return out.view("<u8")[..., 0].astype(np.uint64, copy=False).T


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
    makes, returns ``row`` itself, a read-only view into a cached block,
    with no copy.  PCG64 reads the four words from the array's data pointer
    and ignores its strides, so the row must be C-contiguous.  ``spawn``
    and every other request go to the real SeedSequence, built on first
    use; the object pickles as it.
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
            return row
        return self._sequence().generate_state(n_words, dtype)

    def __getattr__(self, name):
        return getattr(self._sequence(), name)

    def __reduce__(self):
        return self._sequence().__reduce__()


@functools.lru_cache(maxsize=SEED_BLOCKS)
def _seed_block(seed: int, block: int) -> list:
    """Rows of :func:`_seed_words` of ``seed`` for samples ``block * SAMPLE_CHUNK`` on.

    The block is copied out of ``_seed_words``' column layout into a
    C-contiguous read-only array, so that each sample's four words are
    adjacent: PCG64 reads a row through its data pointer alone.  The rows
    are returned as a list of read-only views, built once per block, so
    that ``sample_rng`` takes one by a list index.

    Also registers :class:`_SeedWords` as numpy's spawnable seed sequence,
    which every ``sample_rng`` generator needs first; doing it at import
    would load ``numpy.random`` with ``traceqm``.
    """
    np.random.bit_generator.ISpawnableSeedSequence.register(_SeedWords)
    words = np.ascontiguousarray(_seed_words(seed, block * SAMPLE_CHUNK, (block + 1) * SAMPLE_CHUNK))
    words.flags.writeable = False
    return list(words)


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """Independent substream for sample ``index`` of experiment ``seed``.

    The generator is ``Generator(PCG64(SeedSequence(entropy=seed,
    spawn_key=(index,))))`` in state, stream, spawned children and pickle.
    For ``index`` in [0, 2**32) its seed words are a row of a cached block
    (:func:`_seed_block`), handed to PCG64 in place, instead of a fresh
    SeedSequence hash; any other index is built as written.  ``seed`` and
    ``index`` must be integers: a float raises ``TypeError`` rather than
    being truncated.
    """
    seed, index = operator.index(seed), operator.index(index)
    if 0 <= index < 2**32:  # one uint32 spawn word
        row = _seed_block(seed, index >> _CHUNK_SHIFT)[index & _CHUNK_MASK]
        return np.random.Generator(np.random.PCG64(_SeedWords(seed, index, row)))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(index,))))


def _group_probabilities(dec: SpectralDecomposition, amps: np.ndarray) -> np.ndarray:
    return np.add.reduceat(np.abs(amps) ** 2, dec.bounds[:-1])


def _born_weights(dec: SpectralDecomposition, psi: StateVector) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes of a normalized state and the Born probability of each outcome group."""
    _require_normalized(psi)
    amps = dec.amplitudes(psi)
    return amps, _group_probabilities(dec, amps)


def _outcome_bounds(dec: SpectralDecomposition, psi: StateVector) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes of a normalized state and the upper bounds of its outcome groups.

    The bounds are the cumulative group probabilities without the last, so
    ``bisect.bisect_right(bounds, u)`` (or ``bounds.searchsorted(u,
    side="right")``, the same index) picks group g for a variate u.  The
    last group of nonzero probability catches the roundoff sliver between
    the total and one: its bound and the bounds after it are infinite, so
    a variate never lands in a trailing group of probability zero.
    """
    amps, probs = _born_weights(dec, psi)
    # array methods rather than np.max/np.cumsum: same result, less dispatch
    if probs.max() < PROB_FLOOR:
        raise NumericalError("all outcome probabilities vanish; state is numerically unusable")
    bounds = probs.cumsum()[:-1]
    bounds[probs.nonzero()[0][-1]:] = np.inf
    return amps, bounds


def born_probabilities(dec: SpectralDecomposition, psi: StateVector) -> list[tuple[float, float]]:
    """(eigenvalue, probability) per degenerate group; probabilities sum to 1."""
    _, probs = _born_weights(dec, psi)
    return [(dec.group_eigenvalue(g), float(probs[g])) for g in range(len(probs))]


def _collapse(dec: SpectralDecomposition, amps: np.ndarray, g: int) -> MeasurementOutcome:
    """Outcome of group ``g``: its eigenvalue and the state projected onto its eigenspace."""
    idx = list(range(dec.bounds[g], dec.bounds[g + 1]))
    projected = StateVector(dec._combination(amps[idx], idx) / np.sqrt(_weight(dec.grid)), dec.grid)
    return MeasurementOutcome(dec.group_eigenvalue(g), g, normalize(projected))


def _remember(memo, key, value):
    """Store ``value`` under ``key``, evicting the oldest entries beyond ``MEMO_ENTRIES``.

    An evicted collapse, stored as its state's outcome table under ``(id(table), g)``,
    is cleared from slot g of that table.
    """
    while len(memo) >= MEMO_ENTRIES:
        (_, g), held = memo.popitem(last=False)
        if type(held) is list:
            held[g] = None
    memo[key] = value
    return value


def _known_state(dec: SpectralDecomposition, psi: StateVector) -> tuple:
    """``(psi, amplitudes, bounds, outcome table)`` of a state not known by identity.

    The entry is looked up by grid and coefficient bytes, and computed once per
    content; slot g of its outcome table holds the collapse onto group g while
    the memo holds it, else None.  The state then joins ``dec._known``, the last
    ``MEMO_ENTRIES`` state objects looked up, which holds each one so that its
    id cannot be reused while its entry lives (states are immutable).  Only
    successes are stored, so a refused state is refused every time.
    """
    memo = dec._memo
    key = (psi.grid, psi.coeffs.tobytes())
    entry = memo.get(key)
    if entry is None:
        amps, bounds = _outcome_bounds(dec, psi)
        entry = _remember(memo, key, (amps, bounds, [None] * (bounds.size + 1)))
    known = dec._known
    while len(known) >= MEMO_ENTRIES:
        known.popitem(last=False)
    known[id(psi)] = hit = (psi, *entry)
    return hit


def measure_once(dec: SpectralDecomposition, psi: StateVector,
                 rng: np.random.Generator) -> MeasurementOutcome:
    """Draw one outcome and collapse; consumes exactly one uniform variate.

    The outcome bounds of ``psi`` and the collapse onto the drawn group are
    taken from ``dec``'s memo when an earlier call computed them for the same
    state object or for a state with the same grid and coefficient bytes.  A
    state object known by identity costs one lookup in ``dec._known``, a
    bisection of its bounds and one slot of its outcome table.
    """
    hit = dec._known.get(id(psi))
    if hit is None or hit[0] is not psi:
        hit = _known_state(dec, psi)
    _, amps, bounds, table = hit
    g = bisect.bisect_right(bounds, rng.random())
    outcome = table[g]
    if outcome is None:
        outcome = table[g] = _collapse(dec, amps, g)
        _remember(dec._memo, (id(table), g), table)
    return outcome


def _tally(u: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Count per outcome group of the variates ``u`` under the outcome ``bounds``.

    Equal to ``np.bincount(bounds.searchsorted(u, side="right"))`` padded to
    ``bounds.size + 1`` groups: the variates below each bound are counted on
    the sorted variates, one search per bound rather than one per variate,
    and group g counts those below its bound less those below the one before.
    """
    below = np.sort(u).searchsorted(bounds, side="left")
    counts = np.empty(bounds.size + 1, dtype=np.int64)
    counts[:-1], counts[-1] = below, u.size
    counts[1:] -= below
    return counts


def repeat_experiment(preparation: Callable[[], StateVector], observable: HermitianOperator,
                      n: int, seed: int) -> EnsembleReport:
    """Run n independent prepare-measure-discard cycles.

    ``preparation`` is a pure recipe called once per sample; nothing carries
    over between samples except the outcome tally.  A prepared state's
    outcome bounds come from the decomposition's memo, as for
    :func:`measure_once`; a preparation that returns the same object as the
    sample before is not looked up again, and any other object must be a
    :class:`StateVector` (else ``InputError``).  The samples of a chunk
    under equal bounds are tallied at once (:func:`_tally`).  Sample i draws
    from ``sample_rng(seed, i)``, so the counts are identical however the
    loop is chunked, and each outcome can be replayed with
    :func:`measure_once`.  ``n`` and ``seed`` must be integers (a bool is
    refused with ``TypeError``).
    """
    if isinstance(n, bool):
        raise TypeError("the sample count must be an integer, not a bool")
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    if n > MAX_SAMPLES:
        raise InputError(f"at most {MAX_SAMPLES} samples per experiment, got {n}")
    seed = operator.index(seed)
    np.random.SeedSequence(seed)  # a negative seed fails here as in sample_rng, before any sample
    dec = eigendecompose(observable)
    known = dec._known
    counts = np.zeros(dec.bounds.size - 1, dtype=np.int64)
    psi, bounds = object(), None  # an object no preparation returns
    for lo in range(0, n, SAMPLE_CHUNK):
        hi = min(n, lo + SAMPLE_CHUNK)
        # where the outcome bounds change in this chunk: the memo returns the
        # same bounds object for the same prepared state
        starts, run_bounds = [0], [bounds]
        for i in range(lo, hi):
            prepared = preparation()
            if prepared is psi:
                continue
            if not isinstance(prepared, StateVector):
                raise InputError(f"the preparation must return a StateVector, not {type(prepared).__name__}")
            psi = prepared
            hit = known.get(id(psi))
            if hit is None or hit[0] is not psi:
                hit = _known_state(dec, psi)
            if hit[2] is not bounds:
                bounds = hit[2]
                starts.append(i - lo)
                run_bounds.append(bounds)
        starts.append(hi - lo)
        u = _first_uniforms(seed, lo, hi)
        # a tally depends only on the bound values and not on the order of its
        # variates, so all the runs under equal bounds are tallied together,
        # also when a recomputed content brings a new bounds object
        runs = {}
        for start, stop, run in zip(starts, starts[1:], run_bounds):
            if stop > start:
                runs.setdefault(run.tobytes(), (run, []))[1].append(u[start:stop])
        for run, pieces in runs.values():
            counts += _tally(np.concatenate(pieces), run)

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
            index = float(value) / grid.spacing  # not finite for a NaN or inf outcome, or if it overflows
            if not math.isfinite(index):
                raise InputError(f"outcome {value!r} is not a position on this grid")
            j = int(np.round(index)) - 1
            if j < 0 or j >= grid.npoints or abs(positions[j] - value) > tol:
                raise InputError(f"outcome {value!r} is not a position on this grid")
            tally[j] += count
            total += count
    if total == 0:
        raise InputError("the reports count no samples")
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
