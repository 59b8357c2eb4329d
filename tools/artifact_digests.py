"""Print the sha256 digest of every CLI artifact the workbench writes at its defaults.

Runs every experiment in the checkout's ``traceqm.experiments.EXPERIMENTS``,
in its order, at its default config in csv and in json, plus the runs
listed in ``EXTRA``, each with the reason it is there, into a temporary
directory, and prints one ``name sha256`` line per artifact file and one
``name.exit CODE`` line per run, or ``name.exit raised TYPE`` for a
run that raised.  Three ``#`` header lines first name the numpy and scipy
versions and the OpenBLAS configuration, which the bytes also depend on.
Comparing two checkouts is one ``diff``::

    python tools/artifact_digests.py --root OTHER_CHECKOUT > before.txt
    python tools/artifact_digests.py > after.txt
    diff before.txt after.txt

``--root`` names the checkout whose ``src/traceqm`` is run (default: the
one holding this script).  ``tests/artifact_digests.txt`` is this script's
output, and ``tests/test_artifact_digests.py`` holds a fresh run to it line
by line; after an intended byte change, regenerate it with::

    python tools/artifact_digests.py > tests/artifact_digests.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import os
import sys
import tempfile
import traceback
from pathlib import Path

#: extra runs beyond the defaults: (label, arguments).
EXTRA = (
    ("spread-times", ("spread", "--times", "0,0.001")),
    # halves of order 800, where ?stevd's merge would follow the BLAS thread count unheld
    ("spread-n1600", ("spread", "--grid-n", "1600", "--times", "0,0.001")),
    ("cat-seed7", ("cat", "--seed", "7")),
    # the small-algebra benchmark workload's inputs
    ("vn-generator-n1000", ("vn-generator", "--n", "1000")),
    ("claims-seed1", ("claims", "--seed", "1")),
    ("claims-seed9001", ("claims", "--seed", "9001")),
    # a tiny hbar, where the unscaled bands' squared coupling underflowed
    ("well-spectrum-hbar1e-100", ("well-spectrum", "--hbar", "1e-100")),
    # an analytic level that overflows, refused with one error line
    ("well-spectrum-length1e-160", ("well-spectrum", "--length", "1e-160")),
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
    # families solved in several stacks per dimension (experiments.STACK_BYTES)
    ("vn-generator-n5000", ("vn-generator", "--n", "5000")),
    # the benchmark's held-out seed
    ("vn-generator-n1000-seed9001", ("vn-generator", "--n", "1000", "--seed", "9001")),
    # outcomes whose eigenvalue range and mean bound overflow while both are finite
    ("cat-a1e308-a2-1e308", ("cat", "--a1", "1e308", "--a2", "-1e308")),
    # a time at which every phase E t / hbar is roundoff (eps max|E| t / hbar about 1e290): refused
    ("spread-times-1e300", ("spread", "--times", "0,1e300")),
    # 0.5 m omega^2 overflows while building the ladder Hamiltonian
    ("poisson-omega1e200", ("poisson", "--omega", "1e200")),
    # H @ A of the unscaled factors overflowed, and underflowed at a tiny hbar
    ("poisson-hbar1e300", ("poisson", "--hbar", "1e300")),
    ("poisson-hbar1e-300", ("poisson", "--hbar", "1e-300")),
    # an odd grid: the Hamiltonian's even parity sector has the centre row
    ("spread-n513", ("spread", "--grid-n", "513")),
    # an odd grid with halves of order 800: the odd-N halves solved by ?stevd
    ("spread-n1601", ("spread", "--grid-n", "1601", "--times", "0,0.001")),
    # the spreading time 2 m sigma0^2 / hbar overflows, so the default times are NaN
    ("spread-length1e300", ("spread", "--length", "1e300")),
    ("spread-mass1e300-length1e10", ("spread", "--mass", "1e300", "--length", "1e10")),
    ("spread-hbar1e-300-length1e10", ("spread", "--hbar", "1e-300", "--length", "1e10")),
    # t / hbar is finite, but the largest level times it overflows
    ("spread-mass1e-300-times1e10", ("spread", "--mass", "1e-300", "--times", "0,1e10")),
    ("spread-mass1e-250-times1e100", ("spread", "--mass", "1e-250", "--times", "0,1e100")),
    # lengths far from 1, where an absolute stationary-drift bound failed or passed vacuously
    ("spread-length1e12", ("spread", "--length", "1e12")),
    ("spread-length1e-12", ("spread", "--length", "1e-12")),
    # brackets of about 1e8, where an absolute gap bound failed on a roundoff gap
    ("poisson-omega1e4", ("poisson", "--omega", "1e4")),
    # a Hamiltonian of order 1536 solved by ?stevd on its two parity halves of order 768
    ("spread-n1536", ("spread", "--grid-n", "1536")),
    # odd-N sectors, and position's bands, which are not palindromic, solved whole
    ("ensemble-density-n257", ("ensemble-density", "--grid-n", "257")),
    # hbar^2 and 2 m h^2 both overflow, while the stencil coupling is about 2.0e6
    ("well-spectrum-hbar1e300-length1e300", ("well-spectrum", "--hbar", "1e300", "--length", "1e300")),
    # an odd grid with halves of order 800: the odd-N halves and position's
    # whole bands solved by ?stevd
    ("ensemble-density-n1601", ("ensemble-density", "--grid-n", "1601", "--n", "1000")),
    # a packet whose square (x - c)^2 overflowed although its exponent is at most about 400
    ("spread-length1e160", ("spread", "--length", "1e160", "--times", "0,1")),
)


def runs(experiments):
    for name in experiments:
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
    import numpy as np
    from traceqm.cli import main as traceqm_main
    from traceqm.experiments import EXPERIMENTS

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"# numpy {np.__version__}")
    print(f"# scipy {importlib.metadata.version('scipy')}")
    print(f"# blas {blas.get('openblas configuration', blas['name'] + ' ' + blas['version'])}")

    with tempfile.TemporaryDirectory() as tmp:
        for label, argv in runs(EXPERIMENTS):
            out_dir = Path(tmp) / label
            out_dir.mkdir()
            suffix = ".json" if "json" in argv else ".csv"
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = traceqm_main(list(argv) + ["--out", str(out_dir / (argv[0] + suffix))])
            except Exception as exc:  # a checkout whose run ends in a traceback
                traceback.print_exc()
                code = f"raised {type(exc).__name__}"
            for path in sorted(out_dir.iterdir()):
                print(f"{label}/{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}")
            print(f"{label}.exit {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
