"""Print the per-call cost of the Born path and the grid run, in microseconds, best of five.

Pinned to one core (the highest-numbered one this process may use) with
one BLAS thread, it times:

- ``sample_rng(seed, i)`` per call, its seed-word block cached, and
  numpy's floor for it: ``Generator(PCG64(words))`` where ``words`` is a
  seed sequence whose ``generate_state`` returns precomputed contiguous
  uint64 words, so the gap between the two rows is what ``sample_rng``
  adds to numpy's own construction;
- ``measure_once`` on the 2x2 cat observable: on a new state (content never
  seen, so the Born weights are computed), on the cat state and its
  collapse in turn (the benchmark's replay), and on a new object equal in
  content to the cat state;
- ``repeat_experiment`` per sample: the cat state on the cat observable
  (``cat``'s default n), and the 128-point ground state on the position
  operator (``ensemble-density``'s defaults), and on the same operator
  2*10^4 fresh copies cycling through 40 random contents in runs of 7,
  more contents than the memo holds, so evicted bounds are recomputed (the
  copies are made inside the timed run); and per chunk of ``SAMPLE_CHUNK``
  variates, its tally alone on that ground state's outcome bounds (in a
  checkout without ``measurement._tally``, the one ``searchsorted`` per
  variate and ``bincount`` that preceded it);
- ``eigendecompose`` per call of small dense operators: the cat observable
  diag(1, -1), Pauli X, and seeded 6x6 real symmetric, centrosymmetric
  (equal to its reflection J A J) and complex hermitian matrices;
- ``grid_levels`` of the five levels ``well-spectrum`` reads, on each of
  its three default grids (N = 500, 1001 and 2000);
- on the 512-point grid of ``spread``'s defaults: ``eigendecompose`` of the
  grid Hamiltonian, ``evolve_state`` of ``spread``'s packet to one time,
  ``spread_series`` over ``spread``'s five default times, and
  ``dispersion`` of the position operator in the packet;
- ``run_spread`` whole, at its defaults (N = 512) and at N = 4001, each
  call building and solving a model of its own;
- the random sweeps behind ``vn-generator`` and ``claims``: the ``recon``
  sweep per family at ``vn-generator --n 1000``, and per run each ``claims``
  sweep at its trial count (weak commutativity 1000, the alpha/beta split
  500, dispersion-free 44, ``recon`` 100), each from a fresh generator;
- a sweep stack's fixed cost: ``_family_recon_error`` on one seeded
  5-dimensional family, and each ``claims`` sweep run for one trial (a
  stack of one), its draw and a fresh generator's construction included.

Each row is the best of five timed runs divided by the calls of one run.
A ``stacks`` row after each sweep counts the stacks one run of it solves
(calls of ``_family_recon_error`` and stacks of ``_trial_normals``).
``--root`` names the checkout whose ``src/traceqm`` is timed (default: the
one holding this script), so two checkouts compare as::

    python tools/percall.py --root OTHER_CHECKOUT
    python tools/percall.py

The script is not part of the test suite.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

REPEATS = 5


def best_us(run, calls: int) -> float:
    """Best of ``REPEATS`` timings of ``run()``, in microseconds per call."""
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best / calls * 1e6


def stacks(experiments, run) -> int:
    """Stacks one ``run()`` solves: calls of ``_family_recon_error`` and stacks yielded by ``_trial_normals``."""
    solved = []
    recon, normals = experiments._family_recon_error, experiments._trial_normals

    def counted_recon(*args):
        solved.append(1)
        return recon(*args)

    def counted_normals(*args):
        for stack in normals(*args):
            solved.append(1)
            yield stack

    experiments._family_recon_error, experiments._trial_normals = counted_recon, counted_normals
    try:
        run()
    finally:
        experiments._family_recon_error, experiments._trial_normals = recon, normals
    return len(solved)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/traceqm is timed")
    args = parser.parse_args()
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"  # read when numpy loads its BLAS, below
    sys.path.insert(0, str(args.root.resolve() / "src"))
    import numpy as np

    from traceqm import (GridMeta, StateVector, certify_hermitian, dispersion, experiments, grid_levels, grid_sample,
                         normalize)
    from traceqm.dynamics import build_grid_model, evolve_state, spread_series
    from traceqm import measurement
    from traceqm.measurement import measure_once, repeat_experiment, sample_rng
    from traceqm.spectral import eigendecompose

    seed, calls = 42, 10_000
    cat_observable = certify_hermitian(np.diag([1.0, -1.0]).astype(np.complex128))
    dec = eigendecompose(cat_observable)
    cat = normalize(StateVector([1.0, 1.0]))
    rng = np.random.default_rng(seed)
    draws = np.random.default_rng(seed + 1).standard_normal((calls, 4))
    new_states = [normalize(StateVector(row[:2] + 1j * row[2:])) for row in draws]
    copies = [StateVector(cat.coeffs.copy()) for _ in range(calls)]
    model = build_grid_model(GridMeta(length=1.0, npoints=128))
    ground = model.energy_spectrum().eigenvector(0)
    cycle = [normalize(StateVector(row[:128] + 1j * row[128:], ground.grid))
             for row in np.random.default_rng(seed + 3).standard_normal((40, 256))]
    chunk = measurement._first_uniforms(seed, 0, measurement.SAMPLE_CHUNK)
    _, ground_bounds = measurement._outcome_bounds(eigendecompose(model.q), ground)
    tally = getattr(measurement, "_tally", None) or (
        lambda u, bounds: np.bincount(bounds.searchsorted(u, side="right"), minlength=bounds.size + 1))
    # spread's defaults: length 1, 512 points, sigma0 = length / 40, times tau * (0, 1/2, 1, sqrt 3, 2)
    grid = GridMeta(length=1.0, npoints=512)
    spread_model = build_grid_model(grid)
    sigma0 = grid.length / 40.0
    tau = 2.0 * grid.mass * sigma0 * sigma0 / grid.hbar
    times = [factor * tau for factor in (0.0, 0.5, 1.0, 3.0 ** 0.5, 2.0)]
    draws6 = np.random.default_rng(seed + 2).standard_normal((2, 6, 6))
    real6 = draws6[0] + draws6[0].T
    small = [
        ("cat", cat_observable),
        ("pauli_x", certify_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))),
        ("real6", certify_hermitian(real6)),
        ("centrosymmetric6", certify_hermitian(real6 + real6[::-1, ::-1])),
        ("complex6", certify_hermitian(real6 + 1j * (draws6[1] - draws6[1].T))),
    ]
    packet = grid_sample(lambda x: np.exp(-((x - grid.length / 2.0) ** 2) / (4.0 * sigma0 * sigma0)), grid)

    def rngs():
        for i in range(calls):
            sample_rng(seed, i)

    class Words:
        """A seed sequence whose ``generate_state`` returns precomputed words."""

        def __init__(self, row):
            self.row = row

        def generate_state(self, n_words, dtype=np.uint32):
            return self.row

    np.random.bit_generator.ISpawnableSeedSequence.register(Words)
    words = [np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(4, np.uint64) for i in range(calls)]

    def numpy_floor():
        for row in words:
            np.random.Generator(np.random.PCG64(Words(row)))

    def cycling():
        index = iter(range(20_000))
        repeat_experiment(lambda: StateVector(cycle[(next(index) // 7) % len(cycle)].coeffs.copy(), ground.grid),
                          model.q, 20_000, seed)

    def new_state():
        for psi in new_states:
            measure_once(dec, psi, rng)

    def replay():
        for _ in range(calls // 2):
            measure_once(dec, measure_once(dec, cat, rng).collapsed, rng)

    def copy():
        for psi in copies:
            measure_once(dec, psi, rng)

    rows = [
        ("sample_rng", rngs, calls),
        ("sample_rng.numpy_floor", numpy_floor, calls),
        ("measure_once.new_state", new_state, calls),
        ("measure_once.state_and_collapse", replay, calls),
        ("measure_once.equal_copy", copy, calls),
        ("repeat_experiment.cat.per_sample",
         lambda: repeat_experiment(lambda: cat, cat_observable, 10_000, seed), 10_000),
        ("repeat_experiment.position128.per_sample",
         lambda: repeat_experiment(lambda: ground, model.q, 50_000, seed), 50_000),
        ("repeat_experiment.position128.cycling.per_sample", cycling, 20_000),
        ("repeat_experiment.position128.tally_per_chunk", lambda: [tally(chunk, ground_bounds) for _ in range(1000)], 1000),
        *[(f"eigendecompose.{name}", lambda a=a: [eigendecompose(a) for _ in range(2000)], 2000) for name, a in small],
        *[(f"grid_levels.grid{n}", lambda g=GridMeta(length=1.0, npoints=n): [grid_levels(g, 5) for _ in range(100)],
           100) for n in (500, 1001, 2000)],
        ("eigendecompose.grid512", lambda: [eigendecompose(spread_model.hamiltonian) for _ in range(20)], 20),
        ("evolve_state.grid512", lambda: [evolve_state(spread_model, packet, tau) for _ in range(200)], 200),
        ("spread_series.grid512.5_times", lambda: [spread_series(spread_model, packet, times) for _ in range(50)], 50),
        ("dispersion.grid512.q", lambda: [dispersion(spread_model.q, packet) for _ in range(500)], 500),
        *[(f"run_spread.grid{n}", lambda cfg=experiments.ExperimentConfig("spread", grid_n=n), k=k:
           [experiments.run_spread(cfg) for _ in range(k)], k) for n, k in ((512, 20), (4001, 1))],
    ]
    # (name, sweep, trials, calls per run): one row per family or per run
    sweeps = [
        ("worst_family_recon.n1000.per_family", experiments._worst_family_recon, 1000, 1000),
        ("claims.weak.per_run", experiments._worst_weak, 1000, 1),
        ("claims.av_split.per_run", experiments._worst_av_split, 500, 1),
        ("claims.dispersion_free.per_run", experiments._worst_dispersion_free, 44, 1),
        ("claims.recon.per_run", experiments._worst_family_recon, 100, 1),
    ]
    rows += [(name, lambda sweep=sweep, trials=trials: sweep(np.random.default_rng(seed), trials), count)
             for name, sweep, trials, count in sweeps]
    family = np.random.default_rng(seed + 4)
    normals5, coeffs5 = family.standard_normal((1, 2, 5, 5)), family.uniform(-2.0, 2.0, (1, 3, 3))
    rows.append(("family_recon_error.dim5.stack_of_one",
                 lambda: [experiments._family_recon_error(normals5, coeffs5) for _ in range(1000)], 1000))
    # (name, sweep): one trial each, so one stack of one
    stack_of_one = [("weak", experiments._worst_weak), ("av_split", experiments._worst_av_split),
                    ("dispersion_free", experiments._worst_dispersion_free), ("recon", experiments._worst_family_recon)]
    rows += [(f"claims.{name}.stack_of_one",
              lambda sweep=sweep: [sweep(np.random.default_rng(seed), 1) for _ in range(1000)], 1000)
             for name, sweep in stack_of_one]
    for _, run, _ in rows:
        run()  # warm lazy caches, seed blocks and imports
    for name, run, count in rows:
        print(f"{name} {best_us(run, count):.3f} us")
        if name.startswith(("worst_family_recon", "claims")) and not name.endswith("stack_of_one"):
            print(f"{name.rsplit('.', 1)[0]}.stacks {stacks(experiments, run)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
