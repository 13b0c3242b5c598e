"""A fixed reference kernel that tracks how fast the machine runs right now.

On a shared host the same code slows and speeds up by 15-35 % over tens of
seconds.  A fixed piece of work that uses no lueders code, timed between
consecutive ops, measures that speed.  Dividing each op's time by the mean of
the reference times just before and just after it gives the op's time in
reference units.  A change to the program moves that ratio, and a slower
host mostly does not.

The kernel mixes what the workloads do: an interpreter loop, many tiny
LAPACK calls, one medium SVD that writes a full U, and a JSON parse.  On
ten-run comparisons this halved the run-to-run spread of every workload's
mix time against raw seconds.
"""

from __future__ import annotations

import json
import time

import numpy as np

_RNG = np.random.default_rng(0)
_TINY = _RNG.standard_normal((8, 8)) + 1j * _RNG.standard_normal((8, 8))
_MEDIUM = _RNG.standard_normal((512, 128)) + 1j * _RNG.standard_normal((512, 128))
_JSON = json.dumps(_RNG.standard_normal((48, 48, 2)).tolist())


def run_reference() -> float:
    """Seconds taken by one pass of the reference kernel."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i
    for _ in range(300):
        np.linalg.svd(_TINY, compute_uv=False)
    np.linalg.svd(_MEDIUM, full_matrices=True)
    json.loads(_JSON)
    return time.perf_counter() - t0
