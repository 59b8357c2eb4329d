"""Born sampling, collapse, ensembles, and density reconstruction."""

import gc
import pickle
import tracemalloc
import weakref
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from traceqm import (
    DegenerateSpectrumError,
    EnsembleReport,
    GridError,
    GridMeta,
    InputError,
    SpectralDecomposition,
    StateError,
    StateVector,
    ZeroVectorError,
    born_probabilities,
    build_grid_model,
    cat_experiment,
    certify_hermitian,
    complex_inner,
    eigendecompose,
    measure_once,
    normalize,
    reconstruct_density,
    repeat_experiment,
    sample_rng,
    superpose,
)
from traceqm import measurement
from traceqm.measurement import MEMO_ENTRIES, SAMPLE_CHUNK, _collapse, _first_uniforms, _group_probabilities
from traceqm.operators import STATE_NORM_TOL
from traceqm.states import _raw_norm, _weight

SEED = 6606


def random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return certify_hermitian((m + m.conj().T) / 2.0)


def random_state(rng, dim, grid=None):
    c = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return normalize(StateVector(c, grid))


def cat_state():
    return normalize(superpose([StateVector([1.0, 0.0]), StateVector([0.0, 1.0])], [1.0, 1.0]))


# ---------------------------------------------------------------- Born weights


def test_eigenstate_has_certain_outcome():
    dec = eigendecompose(certify_hermitian(np.diag([1.0, 2.0, 3.0])))
    probs = born_probabilities(dec, StateVector([0.0, 1.0, 0.0]))
    assert probs == [(1.0, 0.0), (2.0, 1.0), (3.0, 0.0)]


def test_cat_splits_half_half():
    dec = eigendecompose(certify_hermitian(np.diag([1.0, -1.0])))
    probs = dict(born_probabilities(dec, cat_state()))
    assert probs[1.0] == pytest.approx(0.5, abs=1e-12)
    assert probs[-1.0] == pytest.approx(0.5, abs=1e-12)


def test_degenerate_group_pools_probability():
    dec = eigendecompose(certify_hermitian(np.diag([1.0, 1.0, 2.0])))
    psi = normalize(StateVector([0.6, 0.8, 0.0]))
    probs = dict(born_probabilities(dec, psi))
    assert probs[1.0] == pytest.approx(1.0, abs=1e-12)
    assert probs[2.0] == pytest.approx(0.0, abs=1e-12)


def test_probabilities_complete_and_nonnegative():
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        dim = int(rng.integers(2, 33))
        dec = eigendecompose(random_hermitian(rng, dim))
        probs = born_probabilities(dec, random_state(rng, dim))
        values = np.array([p for _, p in probs])
        assert np.all(values >= 0.0)
        assert float(values.sum()) == pytest.approx(1.0, abs=1e-10)


def test_born_dimension_mismatch_rejected():
    from traceqm import DimensionError

    dec = eigendecompose(certify_hermitian(np.diag([1.0, 2.0])))
    with pytest.raises(DimensionError):
        born_probabilities(dec, StateVector([1.0, 0.0, 0.0]))


def test_born_and_measure_require_normalized_state():
    dec = eigendecompose(certify_hermitian(np.diag([1.0, 2.0])))
    r = 2.0 ** -0.5
    inside = StateVector([r * (1.0 + 0.5 * STATE_NORM_TOL), r])
    outside = StateVector([r * (1.0 + 4.0 * STATE_NORM_TOL), r])
    born_probabilities(dec, inside)
    measure_once(dec, inside, sample_rng(0, 0))
    with pytest.raises(StateError):
        born_probabilities(dec, outside)
    with pytest.raises(StateError):
        measure_once(dec, outside, sample_rng(0, 0))


# ---------------------------------------------------------------- single shots


def test_measure_eigenstate_returns_it():
    dec = eigendecompose(certify_hermitian(np.diag([4.0, 7.0])))
    out = measure_once(dec, StateVector([0.0, 1.0]), sample_rng(SEED, 0))
    assert out.eigenvalue == 7.0
    overlap = complex_inner(out.collapsed, StateVector([0.0, 1.0])).to_complex()
    assert abs(abs(overlap) - 1.0) <= 1e-12


def test_collapsed_state_lies_in_eigenspace():
    rng = np.random.default_rng(SEED + 1)
    for trial in range(30):
        dim = int(rng.integers(2, 12))
        a = random_hermitian(rng, dim)
        dec = eigendecompose(a)
        out = measure_once(dec, random_state(rng, dim), sample_rng(SEED, trial))
        # projection residual: A acts as its eigenvalue on the whole group
        image = a.matrix @ out.collapsed.coeffs
        idx = list(dec.groups[out.group_index])
        lams = dec.eigenvalues[idx]
        span = dec.basis[:, idx]
        comps = span.conj().T @ out.collapsed.coeffs
        residual = image - span @ (lams * comps)
        scale = 1.0 + float(np.max(np.abs(dec.eigenvalues)))
        assert float(np.linalg.norm(residual)) <= 1e-9 * scale
        assert out.collapsed.norm() == pytest.approx(1.0, abs=1e-10)


def test_collapse_idempotence():
    """Measuring the collapsed state again returns the same group, always."""
    rng = np.random.default_rng(SEED + 2)
    for trial in range(50):
        dim = int(rng.integers(2, 10))
        dec = eigendecompose(random_hermitian(rng, dim))
        first = measure_once(dec, random_state(rng, dim), sample_rng(SEED + 2, trial))
        again = measure_once(dec, first.collapsed, sample_rng(SEED + 3, trial))
        assert again.group_index == first.group_index
        assert again.eigenvalue == first.eigenvalue


def test_two_point_spectrum_never_in_between():
    dec = eigendecompose(certify_hermitian(np.diag([1.0, -1.0])))
    psi = cat_state()
    seen = set()
    for i in range(500):
        out = measure_once(dec, psi, sample_rng(SEED + 4, i))
        seen.add(out.eigenvalue)
    assert seen == {1.0, -1.0}


def test_measure_consumes_exactly_one_variate():
    # replaying the i-th substream reproduces the i-th outcome
    dec = eigendecompose(certify_hermitian(np.diag([1.0, -1.0])))
    psi = cat_state()
    a = measure_once(dec, psi, sample_rng(77, 5))
    b = measure_once(dec, psi, sample_rng(77, 5))
    assert a.eigenvalue == b.eigenvalue


# ---------------------------------------------------------------- ensembles


def test_repeat_eigenstate_single_count():
    a = certify_hermitian(np.diag([2.0, 9.0]))
    report = repeat_experiment(lambda: StateVector([1.0, 0.0]), a, 250, seed=SEED)
    assert report.counts == {2.0: 250}
    assert report.n == 250
    assert report.empirical_mean == 2.0
    assert report.empirical_std == 0.0


def test_repeat_requires_positive_n():
    a = certify_hermitian(np.diag([1.0, 2.0]))
    with pytest.raises(ValueError):
        repeat_experiment(lambda: StateVector([1.0, 0.0]), a, 0, seed=1)


def test_repeat_counts_sum_to_n():
    a = certify_hermitian(np.diag([1.0, -1.0]))
    report = repeat_experiment(cat_state, a, 999, seed=SEED + 5)
    assert sum(report.counts.values()) == 999


def test_repeat_same_seed_identical_reports():
    a = certify_hermitian(np.diag([1.0, -1.0]))
    r1 = repeat_experiment(cat_state, a, 400, seed=123)
    r2 = repeat_experiment(cat_state, a, 400, seed=123)
    assert r1 == r2
    r3 = repeat_experiment(cat_state, a, 400, seed=124)
    assert r3.counts != r1.counts or r3.seed != r1.seed


def test_repeat_statistics_from_counts():
    a = certify_hermitian(np.diag([0.0, 10.0]))
    report = repeat_experiment(cat_state, a, 2000, seed=SEED + 6)
    k = report.counts[10.0]
    mean = 10.0 * k / 2000
    var = (0.0 - mean) ** 2 * (2000 - k) / 2000 + (10.0 - mean) ** 2 * k / 2000
    assert report.empirical_mean == pytest.approx(mean, abs=1e-12)
    assert report.empirical_std == pytest.approx(np.sqrt(var), abs=1e-12)


def test_mean_and_std_track_alpha_beta():
    """Empirical moments close in on the operator moments at the 3 sigma rate."""
    a = certify_hermitian(np.diag([1.0, -1.0]))
    for n in (100, 10000):
        report = repeat_experiment(cat_state, a, n, seed=SEED + 7)
        assert abs(report.empirical_mean - 0.0) <= 3.0 / np.sqrt(n)
        delta = min(0.5, 1.5 / np.sqrt(n))
        std_band = 1.0 - np.sqrt(1.0 - 4.0 * delta * delta)
        assert abs(report.empirical_std - 1.0) <= std_band


def test_std_of_huge_outcomes_does_not_overflow():
    """At outcomes +-1e154 the squared deviations overflow while the std is finite;
    the std is 1e154 times the std at +-1 from the same draws."""
    huge = certify_hermitian(np.diag([1e154, -1e154]))
    unit = certify_hermitian(np.diag([1.0, -1.0]))
    with np.errstate(all="raise"):
        report = repeat_experiment(cat_state, huge, 1000, seed=SEED + 16)
    scaled = repeat_experiment(cat_state, unit, 1000, seed=SEED + 16)
    assert report.empirical_std == pytest.approx(1e154 * scaled.empirical_std, rel=4 * np.finfo(float).eps)
    # the first seed whose two draws differ: mean 0 and std exactly 1e154
    with np.errstate(all="raise"):
        two = next(r for r in (repeat_experiment(cat_state, huge, 2, seed) for seed in range(100))
                   if len(r.counts) == 2)
    assert two.empirical_std == 1e154


@pytest.mark.parametrize("seed", range(10))
def test_std_is_bit_identical_to_the_unscaled_formula(seed):
    rng = np.random.default_rng(SEED + 17 + seed)
    dim = int(rng.integers(2, 9))
    a = certify_hermitian(np.diag(rng.uniform(-100.0, 100.0, dim)))
    psi = random_state(rng, dim)
    report = repeat_experiment(lambda: psi, a, int(rng.integers(1, 5000)), seed=seed)
    mean = np.float64(report.empirical_mean)
    variance = sum(c * (value - mean) ** 2 for value, c in report.counts.items()) / report.n
    assert report.empirical_std == float(np.sqrt(variance))


# ---------------------------------------------------------------- cat experiment


def test_cat_experiment_moments_and_outcomes():
    result = cat_experiment(1.0, -1.0, 10000, seed=SEED + 8)
    assert result.alpha == pytest.approx(0.0, abs=1e-12)
    assert result.beta == pytest.approx(1.0, abs=1e-12)
    assert set(result.report.counts) <= {1.0, -1.0}
    assert abs(result.report.empirical_mean) <= 3.0 / np.sqrt(10000)


def test_cat_experiment_general_outcome_pair():
    result = cat_experiment(2.0, 8.0, 4000, seed=SEED + 9)
    assert result.alpha == pytest.approx(5.0, abs=1e-12)
    assert result.beta == pytest.approx(3.0, abs=1e-12)
    assert set(result.report.counts) <= {2.0, 8.0}


def test_cat_experiment_rejects_equal_outcomes():
    with pytest.raises(DegenerateSpectrumError):
        cat_experiment(1.0, 1.0, 10, seed=1)


def test_cat_single_sample():
    result = cat_experiment(1.0, -1.0, 1, seed=42)
    assert sum(result.report.counts.values()) == 1
    assert set(result.report.counts) <= {1.0, -1.0}


# ---------------------------------------------------------------- density


def test_density_from_dispersion_free_preparation():
    """A position eigenstate reads back as a single occupied cell."""
    g = GridMeta(length=1.0, npoints=16)
    model = build_grid_model(g)
    target = np.zeros(16)
    target[9] = 1.0

    def prepare():
        return normalize(StateVector(target, g))

    report = repeat_experiment(prepare, model.q, 1000, seed=SEED + 10)
    density = reconstruct_density(report, g)
    freqs = {x: f for x, f in density}
    assert len(density) == 16
    assert freqs[float(g.positions[9])] >= 0.99
    assert sum(freqs.values()) == pytest.approx(1.0, abs=1e-12)


def test_density_ground_state_profile():
    g = GridMeta(length=1.0, npoints=32)
    model = build_grid_model(g)
    dec = eigendecompose(model.hamiltonian)
    ground = dec.eigenvectors[0]

    report = repeat_experiment(lambda: ground, model.q, 20000, seed=SEED + 11)
    density = reconstruct_density(report, g)
    want = np.abs(ground.coeffs) ** 2 * g.spacing
    got = np.array([f for _, f in density])
    assert float(np.max(np.abs(got - want))) <= 5.0 / np.sqrt(20000)


def test_density_merges_multiple_reports():
    g = GridMeta(length=1.0, npoints=8)
    model = build_grid_model(g)
    e = np.zeros(8)
    e[2] = 1.0
    prep = lambda: normalize(StateVector(e, g))
    r1 = repeat_experiment(prep, model.q, 50, seed=1)
    r2 = repeat_experiment(prep, model.q, 70, seed=2)
    density = reconstruct_density([r1, r2], g)
    assert sum(f for _, f in density) == pytest.approx(1.0, abs=1e-12)
    assert density[2][1] == 1.0


def test_density_rejects_non_position_outcomes():
    g = GridMeta(length=1.0, npoints=8)
    fake = EnsembleReport(counts={0.123: 10}, n=10, empirical_mean=0.123,
                          empirical_std=0.0, seed=0)
    with pytest.raises(InputError):
        reconstruct_density(fake, g)
    with pytest.raises(InputError):
        reconstruct_density([], g)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e308, -1e308])
def test_density_rejects_a_non_finite_outcome(value):
    """NaN and infinite outcomes, and outcomes whose grid index overflows, are refused."""
    g = GridMeta(length=1.0, npoints=8)
    fake = EnsembleReport(counts={value: 10}, n=10, empirical_mean=value, empirical_std=0.0, seed=0)
    with pytest.raises(InputError):
        reconstruct_density(fake, g)


def test_density_rejects_reports_that_count_no_samples():
    g = GridMeta(length=1.0, npoints=8)
    empty = EnsembleReport(counts={}, n=0, empirical_mean=0.0, empirical_std=0.0, seed=0)
    zero = EnsembleReport(counts={float(g.positions[2]): 0}, n=0, empirical_mean=0.0,
                          empirical_std=0.0, seed=0)
    for reports in (empty, [empty, empty], zero):
        with pytest.raises(InputError):
            reconstruct_density(reports, g)


# ---------------------------------------------------------------- substreams


def test_sample_rng_streams_are_independent_and_stable():
    # same (seed, index) -> same draw; different index -> fresh stream
    assert sample_rng(9, 4).random() == sample_rng(9, 4).random()
    draws = {sample_rng(9, i).random() for i in range(64)}
    assert len(draws) == 64


# ---------------------------------------------------------------- batched variates

#: seeds of one, two, three, four, five and seven uint32 words
SEEDS = (0, 1, 42, 109, 110, 9001, 1275887881, 2**32 + 5, 2**70 + 3, 2**127 + 1, 2**130 + 11,
         2**200 + 3)


def numpy_rng(seed, i):
    """numpy's own per-sample construction, the reference ``sample_rng`` must equal."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(i,))))


def per_sample_uniforms(seed, lo, hi):
    return np.array([numpy_rng(seed, i).random() for i in range(lo, hi)])


@pytest.mark.parametrize("seed", SEEDS)
def test_first_uniforms_match_per_sample_streams(seed):
    assert np.array_equal(_first_uniforms(seed, 0, 3000), per_sample_uniforms(seed, 0, 3000))


@pytest.mark.parametrize("lo, hi", [
    (SAMPLE_CHUNK - 5, SAMPLE_CHUNK + 5),  # across a chunk boundary
    (17, 18),  # a single sample
    (0, 1),
    (2**32 - 4, 2**32),  # the largest spawn words one uint32 holds
])
def test_first_uniforms_match_on_any_range(lo, hi):
    for seed in (3, 2**70 + 3):
        assert np.array_equal(_first_uniforms(seed, lo, hi), per_sample_uniforms(seed, lo, hi))


def seed_sequence_fields(rng):
    seq = rng.bit_generator.seed_seq
    return seq.entropy, seq.spawn_key, seq.n_children_spawned


def draws(rng):
    return rng.random(5), rng.integers(0, 2**40, 5), rng.normal(size=5)


def assert_same_generator(got, want):
    """Equal state, seed sequence, spawned children, pickle round-trip and draws."""
    assert got.bit_generator.state == want.bit_generator.state
    assert seed_sequence_fields(got) == seed_sequence_fields(want)
    for child, expected in zip(got.spawn(2), want.spawn(2), strict=True):
        assert child.bit_generator.state == expected.bit_generator.state
    restored = pickle.loads(pickle.dumps(got))
    assert restored.bit_generator.state == want.bit_generator.state
    assert seed_sequence_fields(restored) == seed_sequence_fields(want)
    expected = draws(want)
    for rng in (got, restored):
        assert all(np.array_equal(a, b) for a, b in zip(draws(rng), expected, strict=True))


@pytest.mark.parametrize("seed", SEEDS)
def test_sample_rng_is_numpys_construction(seed):
    """Across block edges and at the top of the uint32 spawn word."""
    for index in (0, 1, SAMPLE_CHUNK - 1, SAMPLE_CHUNK, 2**32 - 4, 2**32 - 3, 2**32 - 2, 2**32 - 1):
        assert_same_generator(sample_rng(seed, index), numpy_rng(seed, index))


@given(seed=st.integers(0, 2**256 - 1), index=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_sample_rng_is_numpys_construction_for_any_seed_and_index(seed, index):
    assert_same_generator(sample_rng(seed, index), numpy_rng(seed, index))


@pytest.mark.parametrize("index", [2**32, 2**40])
def test_sample_rng_beyond_one_spawn_word_is_numpys_construction(index):
    for seed in (3, 2**70 + 3):
        assert_same_generator(sample_rng(seed, index), numpy_rng(seed, index))


@pytest.mark.parametrize("seed, index", [(5, -1), (-1, 0), (-1, 2**32)])
def test_sample_rng_rejects_negative_seed_or_index_like_numpy(seed, index):
    with pytest.raises(ValueError) as expected:
        numpy_rng(seed, index)
    with pytest.raises(ValueError) as got:
        sample_rng(seed, index)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("seed, index", [(1.9, 2), (1, 2.7), (1.0, 2), (1, 2.0)])
def test_sample_rng_refuses_a_non_integral_seed_or_index(seed, index):
    with pytest.raises(TypeError):
        sample_rng(seed, index)


def test_repeat_and_cat_refuse_a_non_integral_seed():
    def preparation():
        raise AssertionError("preparation must not run")

    a = certify_hermitian(np.diag([1.0, -1.0]))
    with pytest.raises(TypeError):
        repeat_experiment(preparation, a, 10, seed=7.9)
    with pytest.raises(TypeError):
        cat_experiment(1.0, -1.0, 10, seed=7.9)


def test_numpy_integers_pass_as_seed_and_index():
    assert_same_generator(sample_rng(np.int64(7), np.uint32(9)), numpy_rng(7, 9))
    a = certify_hermitian(np.diag([1.0, -1.0]))
    report = repeat_experiment(cat_state, a, 100, seed=np.int64(7))
    assert type(report.seed) is int
    assert report == repeat_experiment(cat_state, a, 100, seed=7)


def test_sample_rng_builds_each_block_once_for_two_alternating_seeds(monkeypatch):
    """Criterion 9's pattern: every index read at two seeds in turn."""
    built = []
    original = measurement._seed_words
    monkeypatch.setattr(measurement, "_seed_words",
                        lambda seed, lo, hi: built.append((seed, lo)) or original(seed, lo, hi))
    cache = measurement._seed_block
    cache.cache_clear()
    assert cache.cache_info().maxsize == measurement.SEED_BLOCKS >= 2
    n = 10**4
    for i in range(n):
        for seed in (109, 110):
            sample_rng(seed, i)
            assert cache.cache_info().currsize <= measurement.SEED_BLOCKS
    assert len(built) <= 2 * -(-n // SAMPLE_CHUNK)
    cache.cache_clear()  # drop the blocks built under the spy


def test_writing_into_generated_words_leaves_later_streams_alone():
    """The words are handed to PCG64 in place, as a read-only C-contiguous row
    of the cached block: writing into them raises."""
    rows = measurement._seed_block(5, 0)
    words = measurement._SeedWords(5, 3, rows[3]).generate_state(4, np.uint64)
    assert words is rows[3]
    assert not words.flags.writeable and words.flags.c_contiguous
    assert np.array_equal(words, np.random.SeedSequence(5, spawn_key=(3,)).generate_state(4, np.uint64))
    with pytest.raises(ValueError):
        words[:] = 0
    assert_same_generator(sample_rng(5, 3), numpy_rng(5, 3))


def test_a_generator_does_not_keep_its_seed_block_alive():
    measurement._seed_block.cache_clear()
    rng = sample_rng(8, 3)
    block = weakref.ref(measurement._seed_block(8, 0)[3].base)
    measurement._seed_block.cache_clear()
    gc.collect()
    assert block() is None
    assert_same_generator(rng, numpy_rng(8, 3))


def assert_repeat_matches_replay(a, schedule):
    """repeat_experiment over ``schedule`` counts what a per-sample measure_once replay counts."""
    dec = eigendecompose(a)
    calls = iter(schedule)
    report = repeat_experiment(lambda: next(calls), a, len(schedule), seed=SEED)

    replay = {}
    for i, psi in enumerate(schedule):
        value = measure_once(dec, psi, sample_rng(SEED, i)).eigenvalue
        replay[value] = replay.get(value, 0) + 1
    assert report.counts == dict(sorted(replay.items()))
    assert next(calls, None) is None


def switching_schedule(first, second, n):
    """n samples of ``first`` and ``second``, as equal copies (new objects) switching
    inside and across chunks."""
    switches = {0: first, 100: second, 101: first, SAMPLE_CHUNK - 2: second, SAMPLE_CHUNK + 7: first}
    schedule = []
    for i in range(n):
        schedule.append(StateVector(switches[i].coeffs.copy(), switches[i].grid) if i in switches else schedule[-1])
    return schedule


def test_repeat_matches_replay_when_preparation_switches():
    """Counts equal a per-sample measure_once replay across state changes and
    chunks, also when the states cycle through more than the memo holds, and
    on the 128-point position observable, whose 128 groups the tally spreads
    the variates over, switching or cycling."""
    rng = np.random.default_rng(SEED + 12)
    dim = 5
    a = random_hermitian(rng, dim)
    n = SAMPLE_CHUNK + 300
    assert_repeat_matches_replay(a, switching_schedule(random_state(rng, dim), random_state(rng, dim), n))
    # a fresh copy every sample, cycling through more distinct states than
    # MEMO_ENTRIES, so evicted states come back and are computed again
    cycle = [random_state(rng, dim) for _ in range(MEMO_ENTRIES + 3)]
    assert_repeat_matches_replay(a, [StateVector(cycle[(i // 7) % len(cycle)].coeffs.copy())
                                     for i in range(n)])
    model = build_grid_model(GridMeta(length=1.0, npoints=128))
    ground = model.energy_spectrum().eigenvector(0)
    assert_repeat_matches_replay(model.q, switching_schedule(ground, random_state(rng, 128, ground.grid), n))
    # fresh copies cycling through 40 contents in runs of 7: each recomputed
    # content brings a new bounds object equal to an earlier one
    cycle = [random_state(rng, 128, ground.grid) for _ in range(40)]
    assert_repeat_matches_replay(model.q, [StateVector(cycle[(i // 7) % len(cycle)].coeffs.copy(), ground.grid)
                                           for i in range(n)])


def test_repeat_tallies_each_content_once_per_chunk(monkeypatch):
    """Bounds recomputed after the memo evicted them are a new object with
    equal values; a chunk still tallies all the runs of one content together."""
    tallies = []
    original = measurement._tally
    monkeypatch.setattr(measurement, "_tally", lambda u, bounds: tallies.append(u.size) or original(u, bounds))
    rng = np.random.default_rng(SEED + 13)
    a = random_hermitian(rng, 5)
    cycle = [random_state(rng, 5) for _ in range(2 * MEMO_ENTRIES + 8)]
    n = 2 * SAMPLE_CHUNK
    index = iter(range(n))
    repeat_experiment(lambda: StateVector(cycle[(next(index) // 7) % len(cycle)].coeffs.copy()), a, n, seed=SEED)
    assert len(tallies) == 2 * len(cycle) and sum(tallies) == n


def test_repeat_computes_outcome_bounds_once_per_prepared_content(monkeypatch):
    calls = []
    original = measurement._outcome_bounds
    monkeypatch.setattr(measurement, "_outcome_bounds",
                        lambda dec, psi: calls.append(psi) or original(dec, psi))
    a = certify_hermitian(np.diag([1.0, -1.0]))
    psi = cat_state()
    repeat_experiment(lambda: psi, a, SAMPLE_CHUNK + 10, seed=SEED)
    assert calls == [psi]
    # fresh equal copies of two contents, switching every sample
    contents = [psi, normalize(StateVector([1.0, 2.0]))]
    index = iter(range(500))
    repeat_experiment(lambda: StateVector(contents[next(index) % 2].coeffs.copy()), a, 500, seed=SEED)
    assert len(calls) == 3


def test_repeat_working_set_is_bounded_by_the_chunk():
    """10^5 samples peak below 16 chunk-length float64 arrays, less than one n-length array."""
    n = 10**5
    bound = 16 * 8 * SAMPLE_CHUNK
    assert bound < 8 * n
    a = certify_hermitian(np.diag([1.0, -1.0]))
    psi = cat_state()
    repeat_experiment(lambda: psi, a, 10, seed=1)  # warm lazy caches and imports
    tracemalloc.start()
    try:
        repeat_experiment(lambda: psi, a, n, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_repeat_refuses_sample_counts_beyond_one_spawn_word():
    def preparation():
        raise AssertionError("preparation must not run")

    a = certify_hermitian(np.diag([1.0, -1.0]))
    with pytest.raises(InputError):
        repeat_experiment(preparation, a, 2**32, seed=1)


@pytest.mark.parametrize("prepared, name", [(None, "NoneType"), (np.array([1.0, 0.0]), "ndarray")])
def test_repeat_refuses_a_preparation_that_is_not_a_state(prepared, name):
    a = certify_hermitian(np.diag([1.0, -1.0]))
    with pytest.raises(InputError, match=f"must return a StateVector, not {name}$"):
        repeat_experiment(lambda: prepared, a, 10, seed=1)


def test_repeat_takes_the_sample_count_as_an_integer():
    def preparation():
        raise AssertionError("preparation must not run")

    a = certify_hermitian(np.diag([1.0, -1.0]))
    for n in (True, False, np.bool_(True)):
        with pytest.raises(TypeError):
            repeat_experiment(preparation, a, n, seed=1)
    for n in (4.0, 4.5, "4"):
        with pytest.raises(TypeError):
            repeat_experiment(preparation, a, n, seed=1)
    for n in (4, np.int64(4), np.uint8(4)):
        report = repeat_experiment(cat_state, a, n, seed=1)
        assert type(report.n) is int
        assert report == repeat_experiment(cat_state, a, 4, seed=1)


def test_repeat_rejects_negative_seed_like_sample_rng():
    def preparation():
        raise AssertionError("preparation must not run")

    a = certify_hermitian(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError) as expected:
        sample_rng(-1, 0)
    with pytest.raises(type(expected.value)) as got:
        repeat_experiment(preparation, a, 10, seed=-1)
    assert str(got.value) == str(expected.value)


# ---------------------------------------------------------------- group sums


def degenerate_decomposition(rng):
    # groups of sizes 1, 3, 9 and 2: both summation regimes of np.sum
    values = np.repeat([-2.0, 0.5, 1.0, 4.0], [1, 3, 9, 2])
    m = rng.standard_normal((values.size,) * 2) + 1j * rng.standard_normal((values.size,) * 2)
    q, _ = np.linalg.qr(m)
    return eigendecompose(certify_hermitian(q @ np.diag(values) @ q.conj().T))


def test_reduceat_group_probabilities_match_per_group_sums():
    """Equal to the old per-group np.sum: bit for bit for groups of one or two
    eigenvalues, whose sum is at most one addition; for m >= 3 terms the two
    summation orders each err by at most (m - 1) * eps/2 relative (all terms
    are non-negative), so they differ by at most (m - 1) * eps relative."""
    rng = np.random.default_rng(SEED + 13)
    dec = degenerate_decomposition(rng)
    assert sorted(len(g) for g in dec.groups) == [1, 2, 3, 9]
    sizes = np.array([len(group) for group in dec.groups])
    eps = np.finfo(np.float64).eps
    for _ in range(20):
        amps = dec.amplitudes(random_state(rng, dec.dim))
        weights = np.abs(amps) ** 2
        reference = np.array([float(np.sum(weights[list(group)])) for group in dec.groups])
        probs = _group_probabilities(dec, amps)
        assert np.array_equal(probs[sizes <= 2], reference[sizes <= 2])
        assert np.all(np.abs(probs - reference) <= (sizes - 1) * eps * reference)
        means = [float(np.mean(dec.eigenvalues[list(group)])) for group in dec.groups]
        assert [dec.group_eigenvalue(g) for g in range(len(dec.groups))] == means


def reference_measure_once(dec, psi, rng):
    """The per-group loop, clamp and two-step collapse measure_once replaced.

    Its group sums may differ from reduceat's in the last bit for groups of
    three or more, which changes an outcome only for a variate within that
    rounding of a cumulative boundary; the seeded cases below have none.
    """
    amps = dec.amplitudes(psi)
    weights = np.abs(amps) ** 2
    probs = np.array([max(0.0, float(np.sum(weights[list(group)]))) for group in dec.groups])
    g = min(int(np.searchsorted(np.cumsum(probs), rng.random(), side="right")), len(probs) - 1)
    idx = list(dec.groups[g])
    coeffs = (dec.basis[:, idx] @ amps[idx]) / np.sqrt(_weight(dec.grid))
    return g, normalize(StateVector(coeffs, dec.grid))


def test_measure_once_matches_reference_bit_for_bit():
    rng = np.random.default_rng(SEED + 14)
    decs = [degenerate_decomposition(rng)] + [
        eigendecompose(random_hermitian(rng, dim)) for dim in (2, 3, 8)
    ]
    for trial in range(40):
        dec = decs[trial % len(decs)]
        psi = random_state(rng, dec.dim)
        g, collapsed = reference_measure_once(dec, psi, sample_rng(SEED, trial))
        out = measure_once(dec, psi, sample_rng(SEED, trial))
        assert out.group_index == g
        assert np.array_equal(out.collapsed.coeffs, collapsed.coeffs)


# ---------------------------------------------------------------- measurement memo


def position_decomposition(npoints):
    return eigendecompose(build_grid_model(GridMeta(length=1.0, npoints=npoints)).q)


def cold_copy(dec):
    """The same decomposition with an empty memo."""
    return SpectralDecomposition(dec.eigenvalues, dec.basis, dec.bounds, dec.group_tol, dec.grid)


def test_memo_outcomes_match_a_cold_decomposition_bit_for_bit():
    rng = np.random.default_rng(SEED + 15)
    decs = [degenerate_decomposition(rng), position_decomposition(24)] + [
        eigendecompose(random_hermitian(rng, dim)) for dim in (2, 3, 8)
    ]
    for dec in decs:
        states = [random_state(rng, dec.dim, dec.grid) for _ in range(3)]
        for trial in range(12):
            psi = states[trial % len(states)]
            warm = measure_once(dec, psi, sample_rng(SEED, trial))
            assert measure_once(dec, psi, sample_rng(SEED, trial)) is warm
            cold = measure_once(cold_copy(dec), psi, sample_rng(SEED, trial))
            again = measure_once(dec, warm.collapsed, sample_rng(SEED + 1, trial))
            again_cold = measure_once(cold_copy(dec), cold.collapsed, sample_rng(SEED + 1, trial))
            for got, want in ((warm, cold), (again, again_cold)):
                assert (got.group_index, got.eigenvalue) == (want.group_index, want.eigenvalue)
                assert np.array_equal(got.collapsed.coeffs, want.collapsed.coeffs)
            assert again.group_index == warm.group_index


def test_memo_hits_an_equal_content_copy():
    dec = eigendecompose(certify_hermitian(np.diag([1.0, -1.0])))
    psi = cat_state()
    first = measure_once(dec, psi, sample_rng(SEED, 0))
    entries = len(dec._memo)
    copy = StateVector(psi.coeffs.copy())
    assert copy.coeffs is not psi.coeffs
    assert measure_once(dec, copy, sample_rng(SEED, 0)) is first
    assert len(dec._memo) == entries


def test_memo_keeps_no_refused_state():
    dec = eigendecompose(certify_hermitian(np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])))
    unnormalized = StateVector(np.ones(8))
    for i in range(3):
        with pytest.raises(StateError):
            measure_once(dec, unnormalized, sample_rng(SEED, i))
        assert len(dec._memo) == 0
    # the same bytes on a grid of unit spacing are another state, refused for its grid
    psi = normalize(unnormalized)
    measure_once(dec, psi, sample_rng(SEED, 0))
    on_grid = StateVector(psi.coeffs, GridMeta(length=9.0, npoints=8))
    with pytest.raises(GridError):
        measure_once(dec, on_grid, sample_rng(SEED, 0))


def test_memo_hit_draws_exactly_one_variate():
    dec = eigendecompose(certify_hermitian(np.diag([1.0, -1.0])))
    psi = cat_state()
    first = measure_once(dec, psi, sample_rng(SEED, 3))
    rng = sample_rng(SEED, 3)
    assert measure_once(dec, psi, rng) is first
    reference = sample_rng(SEED, 3)
    reference.random()
    assert rng.bit_generator.state == reference.bit_generator.state


def test_memo_stays_within_its_cap():
    """Three times the cap in distinct states, each adding a state and a collapse
    entry, leave at most the cap, each holding a few dimension-length arrays."""
    dec = position_decomposition(256)
    rng = np.random.default_rng(SEED + 16)
    states = [random_state(rng, dec.dim, dec.grid) for _ in range(3 * MEMO_ENTRIES)]
    measure_once(dec, states[0], sample_rng(SEED, 0))  # warm the lazy caches
    array_bytes = 16 * dec.dim
    # uncapped, the states and their collapses alone would hold twice this
    bound = MEMO_ENTRIES * 4 * array_bytes
    assert bound < len(states) * 2 * array_bytes
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for i, psi in enumerate(states[1:]):
            measure_once(dec, psi, sample_rng(SEED, i))
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(dec._memo) == MEMO_ENTRIES
    assert after - before < bound


def test_identity_table_misses_a_reused_id(monkeypatch):
    """The table holds each state it knows, so its id is not reused while the
    entry lives; a new state of other content under a known state's id, or
    under an evicted state's id, gets its own outcome.  The shared id is
    given by replacing the ``id`` the measurement module looks up, so the
    test does not wait for the allocator to reuse an address."""
    dec = eigendecompose(certify_hermitian(np.diag([1.0, -1.0])))
    psi = normalize(StateVector([1.0, 0.0]))  # outcome 1.0 with certainty
    other = StateVector([0.0, 1.0])  # outcome -1.0 with certainty
    assert measure_once(dec, psi, sample_rng(SEED, 0)).eigenvalue == 1.0
    old = id(psi)
    monkeypatch.setattr(measurement, "id", lambda obj: old if obj is other else id(obj), raising=False)
    assert measure_once(dec, other, sample_rng(SEED, 0)).eigenvalue == -1.0
    assert measure_once(dec, psi, sample_rng(SEED, 0)).eigenvalue == 1.0
    del psi
    assert dec._known[old][0].coeffs[0] == 1.0
    rng = np.random.default_rng(SEED + 17)
    for i in range(MEMO_ENTRIES):
        measure_once(dec, random_state(rng, 2), sample_rng(SEED, i))
    assert old not in dec._known
    assert measure_once(dec, other, sample_rng(SEED, 0)).eigenvalue == -1.0


def test_identity_table_stays_within_its_cap(monkeypatch):
    rng = np.random.default_rng(SEED + 18)
    a = random_hermitian(rng, 3)
    dec = eigendecompose(a)
    states = [random_state(rng, 3) for _ in range(3 * MEMO_ENTRIES)]
    for i, psi in enumerate(states):
        collapsed = measure_once(dec, psi, sample_rng(SEED, i)).collapsed
        measure_once(dec, collapsed, sample_rng(SEED + 1, i))
        assert len(dec._known) <= MEMO_ENTRIES
    assert [entry[0] for entry in dec._known.values()][-1] is collapsed
    # repeat_experiment on the same decomposition, a new state object every sample
    monkeypatch.setattr(measurement, "eigendecompose", lambda observable: dec)
    fresh = iter(states)
    repeat_experiment(lambda: StateVector(next(fresh).coeffs), a, len(states), seed=SEED)
    assert len(dec._known) == MEMO_ENTRIES


class CountingMemo(OrderedDict):
    """An OrderedDict that counts its ``get`` calls."""

    gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)


def test_replay_computes_outcome_bounds_once_per_content_and_hashes_none_again(monkeypatch):
    """psi, its collapse, psi, ...: each content's bounds are computed once, and
    every later lookup is by identity, which finds the collapse in the state's
    outcome table without a memo lookup."""
    calls = []
    original = measurement._outcome_bounds
    monkeypatch.setattr(measurement, "_outcome_bounds",
                        lambda dec, psi: calls.append(psi) or original(dec, psi))
    dec = eigendecompose(certify_hermitian(np.diag([1.0, -1.0])))
    memo = dec.__dict__["_memo"] = CountingMemo()
    psi = cat_state()
    collapses = set()
    samples = 200
    for i in range(samples):
        collapsed = measure_once(dec, psi, sample_rng(SEED, i)).collapsed
        measure_once(dec, collapsed, sample_rng(SEED + 1, i))
        collapses.add(id(collapsed))
    assert len(collapses) == 2
    assert len(calls) == 1 + len(collapses)
    assert calls[0] is psi
    # one content lookup per distinct state, none per call
    assert memo.gets == len(calls)


@given(weights=st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0]) | st.floats(0.0, 10.0),
                        min_size=2, max_size=8).filter(lambda w: max(w) > 0),
       picks=st.lists(st.integers(0, 7) | st.floats(0.0, 1.0, exclude_max=True)
                      | st.just(float(np.nextafter(1.0, 0.0))), max_size=40))
@settings(max_examples=300, deadline=None)
def test_chunk_tally_counts_the_searchsorted_groups(weights, picks):
    """The sorted tally counts what one searchsorted per variate picks: variates
    planted exactly on a bound, zero-probability groups (repeated bounds) and
    the infinite bounds of trailing zero-probability groups included."""
    dim = len(weights)
    dec = eigendecompose(certify_hermitian(np.diag(np.arange(dim, dtype=np.float64))))
    _, bounds = measurement._outcome_bounds(dec, normalize(StateVector(np.sqrt(weights))))
    u = np.array([float(bounds[pick % bounds.size]) if isinstance(pick, int) else pick for pick in picks])
    u = u[u < 1.0]  # a planted infinite bound, or a partial sum rounded to one, is no variate
    want = np.bincount(bounds.searchsorted(u, side="right"), minlength=dim)
    got = measurement._tally(u, bounds)
    assert got.dtype == want.dtype and np.array_equal(got, want)


class FixedVariate:
    """A stand-in generator whose one ``random()`` draw is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@given(weights=st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0]) | st.floats(0.0, 10.0),
                        min_size=2, max_size=8).filter(lambda w: max(w) > 0),
       pick=st.integers(0, 7) | st.floats(0.0, 1.0, exclude_max=True))
@settings(max_examples=300, deadline=None)
def test_measure_once_picks_the_searchsorted_group(weights, pick):
    """The scalar bisection picks np.searchsorted's group, zero-probability
    groups and a variate exactly on a bound included; a variate in the
    roundoff sliver above the total goes to the last group that can occur."""
    dim = len(weights)
    dec = eigendecompose(certify_hermitian(np.diag(np.arange(dim, dtype=np.float64))))
    psi = normalize(StateVector(np.sqrt(weights)))
    probs = _group_probabilities(dec, dec.amplitudes(psi))
    bounds = probs.cumsum()[:-1]
    u = float(bounds[pick % bounds.size]) if isinstance(pick, int) else pick
    assume(u < 1.0)  # a partial sum may round above one; no variate reaches it
    want = min(int(np.searchsorted(bounds, u, side="right")), int(probs.nonzero()[0][-1]))
    outcome = measure_once(dec, psi, FixedVariate(u))
    assert outcome.group_index == want
    assert probs[want] > 0.0


def test_sliver_variate_never_picks_a_trailing_zero_probability_group():
    """The total of these probabilities rounds below one, so a variate can land
    above it; it collapses onto the last group of nonzero probability rather
    than onto the zero vector of the empty trailing group."""
    dec = eigendecompose(certify_hermitian(np.diag(np.arange(5.0))))
    psi = normalize(StateVector(np.sqrt([0.0, 0.0, 0.25, 0.25, 0.0])))
    total = float(_group_probabilities(dec, dec.amplitudes(psi)).sum())
    assert total < 1.0
    for u in (total, np.nextafter(1.0, 0.0)):
        assert measure_once(dec, psi, FixedVariate(u)).group_index == 3


def reference_collapse(dec, amps, g):
    """The inline normalization _collapse repeated before it called normalize."""
    idx = list(dec.groups[g])
    coeffs = (dec.basis[:, idx] @ amps[idx]) / np.sqrt(_weight(dec.grid))
    norm = _raw_norm(coeffs, dec.grid)
    if norm == 0.0:
        raise ZeroVectorError("cannot normalize the zero vector")
    return coeffs / norm


def test_collapse_equals_the_inline_normalization_bit_for_bit():
    rng = np.random.default_rng(SEED + 17)
    decs = [degenerate_decomposition(rng), position_decomposition(24)] + [
        eigendecompose(random_hermitian(rng, dim)) for dim in (2, 3, 8)
    ]
    for dec in decs:
        amps = dec.amplitudes(random_state(rng, dec.dim, dec.grid))
        for g in range(len(dec.groups)):
            out = _collapse(dec, amps, g)
            assert out.collapsed.coeffs.tobytes() == reference_collapse(dec, amps, g).tobytes()
            assert out.collapsed.grid == dec.grid
            assert (out.group_index, out.eigenvalue) == (g, dec.group_eigenvalue(g))
    # a group the state has no weight in is refused with the same error
    dec = position_decomposition(24)
    amps = dec.amplitudes(StateVector(np.eye(24)[3] / np.sqrt(dec.grid.spacing), dec.grid))
    with pytest.raises(ZeroVectorError) as expected:
        reference_collapse(dec, amps, 0)
    with pytest.raises(ZeroVectorError) as got:
        _collapse(dec, amps, 0)
    assert str(got.value) == str(expected.value)
