"""Print the sha256 digest of every CLI artifact the workbench writes at its defaults.

Runs the seven experiments at their default configs in csv and in json,
plus ``spread --times 0,0.001`` (a tuple-valued config echo),
``spread --grid-n 1600 --times 0,0.001`` (a grid above the band solver's
crossover, decomposed by ``?stemr``), ``cat --seed 7``, ``vn-generator --n 1000``,
``vn-generator --n 5000`` (many ``RECON_CHUNK`` chunks of families),
``vn-generator --n 1000 --seed 9001``, ``claims`` at seeds 1 and 9001,
``well-spectrum --hbar 1e-100``, ``spread --hbar 1e-5`` and ``cat`` at the
extreme outcomes ``--a1 1e154 --a2 -1e154``, ``--a1 1e200``,
``--a1 1e308 --a2 1e307 --n 1000``, ``--a1 1e-300 --a2 -1e-300``,
``--a1 1e-200 --a2 3e-200`` and ``--a1 1e308 --a2 -1e308``, into a
temporary directory, and
prints one ``name sha256`` line per artifact file and one
``name.exit CODE`` line per run.  Comparing two checkouts is one ``diff``::

    python tools/artifact_digests.py --root OTHER_CHECKOUT > before.txt
    python tools/artifact_digests.py > after.txt
    diff before.txt after.txt

``--root`` names the checkout whose ``src/traceqm`` is run (default: the
one holding this script).  The script is not part of the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

EXPERIMENTS = ("cat", "well-spectrum", "spread", "poisson", "vn-generator", "ensemble-density", "claims")

#: extra runs beyond the defaults: (label, arguments).
EXTRA = (
    ("spread-times", ("spread", "--times", "0,0.001")),
    # a grid above spectral.STEMR_CROSSOVER, decomposed from its bands by ?stemr
    ("spread-n1600", ("spread", "--grid-n", "1600", "--times", "0,0.001")),
    ("cat-seed7", ("cat", "--seed", "7")),
    # the small-algebra benchmark workload's inputs
    ("vn-generator-n1000", ("vn-generator", "--n", "1000")),
    ("claims-seed1", ("claims", "--seed", "1")),
    ("claims-seed9001", ("claims", "--seed", "9001")),
    # a tiny hbar, where the unscaled bands' squared coupling underflowed
    ("well-spectrum-hbar1e-100", ("well-spectrum", "--hbar", "1e-100")),
    # a small hbar, whose lowest grid levels an absolute group width merged
    ("spread-hbar1e-5", ("spread", "--hbar", "1e-5")),
    # outcomes whose squared deviations overflow while the std is finite
    ("cat-a1e154", ("cat", "--a1", "1e154", "--a2", "-1e154")),
    # outcomes whose dispersion's squared entries overflow
    ("cat-a1e200", ("cat", "--a1", "1e200")),
    # outcomes whose mean's products overflow while the mean is finite
    ("cat-a1e308", ("cat", "--a1", "1e308", "--a2", "1e307", "--n", "1000")),
    # outcomes whose dispersion's squared entries underflow
    ("cat-a1e-300", ("cat", "--a1", "1e-300", "--a2", "-1e-300")),
    # a tiny spectrum away from zero, held to bounds at its own scale
    ("cat-a1e-200", ("cat", "--a1", "1e-200", "--a2", "3e-200")),
    # families solved in many chunks of experiments.RECON_CHUNK
    ("vn-generator-n5000", ("vn-generator", "--n", "5000")),
    # the benchmark's held-out seed
    ("vn-generator-n1000-seed9001", ("vn-generator", "--n", "1000", "--seed", "9001")),
    # outcomes whose eigenvalue range and mean bound overflow while both are finite
    ("cat-a1e308-a2-1e308", ("cat", "--a1", "1e308", "--a2", "-1e308")),
)


def runs():
    for name in EXPERIMENTS:
        for fmt in ("csv", "json"):
            yield f"{name}-{fmt}", (name, "--format", fmt)
    for label, argv in EXTRA:
        yield f"{label}-csv", argv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/traceqm is run")
    args = parser.parse_args()
    sys.path.insert(0, str(args.root.resolve() / "src"))
    os.environ.pop("WORKBENCH_SEED", None)
    from traceqm.cli import main as traceqm_main

    with tempfile.TemporaryDirectory() as tmp:
        for label, argv in runs():
            out_dir = Path(tmp) / label
            out_dir.mkdir()
            suffix = ".json" if "json" in argv else ".csv"
            with contextlib.redirect_stdout(io.StringIO()):
                code = traceqm_main(list(argv) + ["--out", str(out_dir / (argv[0] + suffix))])
            for path in sorted(out_dir.iterdir()):
                print(f"{label}/{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}")
            print(f"{label}.exit {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
