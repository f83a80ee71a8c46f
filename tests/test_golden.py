"""Bit identity of every benchmark output against the committed digest corpus.

``golden/corpus.py`` says what the digests cover and how to re-record them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from eqprice import maps

GOLDEN = Path(__file__).parent / "golden"
SRC = str(Path(maps.__file__).resolve().parents[1])


def test_outputs_match_the_committed_corpus():
    # A child process, so that the benchmark's single BLAS thread holds
    # whatever this process has loaded (about 8 s).
    path = [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, str(GOLDEN / "corpus.py")],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    )
    got = json.loads(out.stdout)
    want = json.loads((GOLDEN / "bits.json").read_text())
    differ = [key for key in want if got.get(key) != want[key]]
    assert not differ, f"first differing digest: {differ[0]} ({len(differ)} of {len(want)} differ)"
    assert list(got) == list(want)
