"""The benchmark's workloads: the steps of one pass, generated from a seed.

A step is either one CLI experiment, given as the argument list the
``traceqm`` command would receive, or the library-level ``replay`` of the
``cat`` step's samples.  ``small`` gives the reduced sizes of the harness
self-check.  See README.md for why each workload exists.
"""

from __future__ import annotations

from typing import NamedTuple

#: a second seed that a later performance claim must also hold on.
HELD_OUT_SEED = 9001


class Step(NamedTuple):
    name: str
    argv: tuple[str, ...]  # CLI arguments; empty for the replay step


REPLAY = "replay"

_FULL = {
    "grid-spectrum": (("well-spectrum",), ("spread",)),
    "sampling": (("cat",), ("ensemble-density",), (REPLAY,)),
    "small-algebra": (("claims",), ("vn-generator", "--n", "1000"), ("poisson",)),
}

_SMALL = {
    "grid-spectrum": (("well-spectrum", "--grid-n", "400"), ("spread", "--grid-n", "128")),
    "sampling": (("cat", "--n", "400"), ("ensemble-density", "--n", "2000", "--grid-n", "32"),
                 (REPLAY,)),
    "small-algebra": (("claims",), ("vn-generator", "--n", "20"), ("poisson",)),
}

WORKLOADS = tuple(_FULL)

#: the calibration parts that do the same kind of work as each workload.
CALIBRATION = {
    "grid-spectrum": ("dense_lapack",),
    "sampling": ("python", "generators", "small_lapack"),
    "small-algebra": ("python", "small_lapack"),
}

#: set-up is importing modules in a fresh interpreter.
SETUP_CALIBRATION = ("imports",)


#: experiments that receive the benchmark's seed.  ``well-spectrum``,
#: ``spread`` and ``poisson`` use no randomness.  ``cat``,
#: ``ensemble-density`` and ``vn-generator`` keep their compiled-in seed,
#: because their checks fail at some seeds for reasons unrelated to speed
#: (see README.md): ``ensemble-density``'s 3-sigma envelope, taken as a
#: maximum over every grid cell, fails at many seeds, and
#: ``vn-generator --n 1000``'s absolute 1e-9 ``recon`` bound fails at a few.
#: The ``replay`` step draws its samples from the benchmark's seed.
SEEDED = ("claims",)


def plan(workload: str, seed: int, out_dir, small: bool = False) -> list[Step]:
    """The steps of one pass, each CLI step writing into its own directory."""
    steps = []
    for argv in (_SMALL if small else _FULL)[workload]:
        name = argv[0]
        if name == REPLAY:
            steps.append(Step(name, ()))
            continue
        argv = argv + ("--out", str(out_dir / name / f"{name}.csv"))
        if name in SEEDED:
            argv += ("--seed", str(seed))
        steps.append(Step(name, argv))
    return steps
