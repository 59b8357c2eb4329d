"""A fixed reference kernel that measures how fast the machine is right now.

The benchmark shares its machine with other work, and the speed a core
delivers drifts by tens of percent over minutes.  The kernel runs between
passes, and each pass time is scaled by reference time over kernel time,
which cancels the drift the two share.  Its parts mirror the kinds of work
the workloads do: interpreter-bound Python, seeded generator construction,
many small LAPACK calls, dense complex eigensolves on the BLAS threads,
and, for set-up, starting a fresh interpreter that imports modules.  Each
workload is scaled by the parts that match its own work
(``workloads.CALIBRATION``).

The kernel uses no traceqm code.  Between passes it runs in a process of
its own (:class:`Kernel`), on the cores and BLAS threads of the process
it serves, so the program's heap, garbage, imports and BLAS settings do
not reach it.  What the program can still do to it is compete for the
same cores while it runs, for instance with threads it leaves spinning
after a pass.  The ``imports`` part is a process of its own anyway, and
this module imports numpy only when a part needs it, so a set-up probe
runs that part before it imports anything of the program.

    python3 perfbench/calibrate.py

serves the kernel on standard input: each line ``PART,PART REPEATS``
is answered with the seconds one repeat of those parts took.
"""

from __future__ import annotations

import functools
import subprocess
import sys
import time


@functools.cache
def _matrices():
    """A fixed 8x8 and a fixed 256x256 Hermitian matrix."""
    import numpy as np

    rng = np.random.default_rng(20061)
    small = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    dense = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    return small + small.conj().T, dense + dense.conj().T


def _python() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(300_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
        total += table[i & 1023] % 7
    return total


def _generators() -> float:
    import numpy as np

    total = 0.0
    for i in range(2_000):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=7, spawn_key=(i,)))
        total += rng.random()
    return total


def _small_lapack() -> float:
    import numpy as np

    small = _matrices()[0]
    worst = 0.0
    for _ in range(2_000):
        values, vectors = np.linalg.eigh(small)
        worst = max(worst, float(np.max(np.abs(vectors[:, 0]))) + float(values[0]))
    return worst


#: standard-library packages a fresh interpreter imports in the ``imports``
#: part: unmarshalling, executing module bodies and finding files, as the
#: set-up of the program does.
IMPORTS = ("asyncio", "email.mime.multipart", "http.client", "xml.dom.minidom", "unittest",
           "decimal", "sqlite3", "logging.handlers")


def _imports() -> None:
    subprocess.run([sys.executable, "-c", f"import {', '.join(IMPORTS)}"], check=True)


def _dense_lapack() -> float:
    import numpy as np

    dense = _matrices()[1]
    return float(sum(np.linalg.eigh(dense)[0][0] for _ in range(8)))


PARTS = {"python": _python, "generators": _generators, "small_lapack": _small_lapack,
         "dense_lapack": _dense_lapack, "imports": _imports}

#: seconds each part took on one quiet 2-core x86-64 machine (numpy 2.4,
#: OpenBLAS 0.3.31, two threads); for ``imports``, close to its fastest
#: time there.  They only fix the unit of the scaled figures, which are
#: therefore in kernel units: a pass reported as 4 s took as long as the
#: matching kernel parts would run in 4 s there.
REFERENCE_S = {"python": 0.1, "generators": 0.045, "small_lapack": 0.07, "dense_lapack": 0.2,
               "imports": 0.15}


def calibrate(parts, repeats: int = 1) -> float:
    """Seconds the named parts of the kernel take now, together, per repeat."""
    started = time.perf_counter()
    for _ in range(repeats):
        for name in parts:
            PARTS[name]()
    return (time.perf_counter() - started) / repeats


def reference_s(parts) -> float:
    """Seconds the named parts take on the reference machine."""
    return sum(REFERENCE_S[name] for name in parts)


class Kernel:
    """The kernel in a child process, which inherits the caller's cores and
    environment."""

    def __init__(self):
        self._process = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, text=True)

    def time(self, parts, repeats: int = 1) -> float:
        """Seconds one repeat of the named parts takes now."""
        self._process.stdin.write(f"{','.join(parts)} {repeats}\n")
        self._process.stdin.flush()
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration kernel exited {self._process.wait()}")
        return float(line)

    def close(self) -> None:
        self._process.stdin.close()
        self._process.wait(timeout=60)

    def __enter__(self) -> Kernel:
        return self

    def __exit__(self, *exc) -> None:
        if exc[0] is None:
            self.close()
        else:
            self._process.kill()
            self._process.wait()


def main() -> int:
    for line in sys.stdin:
        parts, repeats = line.split()
        print(repr(calibrate(parts.split(","), int(repeats))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
