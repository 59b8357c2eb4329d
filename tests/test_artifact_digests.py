"""The byte contract: a fresh ``tools/artifact_digests.py`` run reads the committed
``tests/artifact_digests.txt`` line for line.

The golden file's ``#`` header names the numpy, scipy and OpenBLAS builds it
was made with; a run under other builds fails and names both sides rather
than skipping, since the artifact bytes depend on them too.  After an
intended byte change, regenerate the file as the tool's docstring says.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("artifact_digests.txt")


def _split(text):
    """The ``#`` header lines and a {name: value} map of the digest and exit lines."""
    lines = text.splitlines()
    return ([line for line in lines if line.startswith("#")],
            dict(line.split(" ", 1) for line in lines if not line.startswith("#")))


def test_artifact_digests_match_the_golden_file():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "artifact_digests.py")],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    (golden_header, golden), (header, fresh) = _split(GOLDEN.read_text()), _split(run.stdout)
    assert header == golden_header, (f"{GOLDEN.name} was made with {golden_header}; "
                                     f"this run has {header}")
    differing = [f"{name}: golden {golden.get(name)}, now {fresh.get(name)}"
                 for name in sorted(golden.keys() | fresh.keys()) if golden.get(name) != fresh.get(name)]
    assert not differing, f"{len(differing)} lines differ from {GOLDEN.name}:\n" + "\n".join(differing)
