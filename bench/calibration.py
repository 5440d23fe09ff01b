"""A fixed reference computation, timed at regular moments of a run, that
tracks how fast the host runs while the benchmark measures.

The host's speed drifts by tens of percent from one minute to the next
(other tenants share its cores and caches), and a workload's throughput
drifts with it.  While a run's rounds execute, a wall-clock timer
interrupts the process every `EVERY_S` seconds and runs a short block of
this computation; the benchmark subtracts the blocks' time from the
commands they interrupted and divides each workload's throughput by the
host's speed relative to `REFERENCE_STEPS_PER_S`.  A timer samples long
commands (a `povm-search` solve takes seconds) as evenly as short ones.
The computation is the kind of work the program does (small complex
matrix products, a Hermitian eigendecomposition, a Kronecker product, a
JSON document) and calls nothing of the program, so a change to the
program moves the adjusted throughput as much as the raw one.
"""

import json
import signal
import time

import numpy as np

BLOCK_STEPS = 40  # about 3 ms
EVERY_S = 0.2
# Median block rate on the 2-core reference machine in bench/README.md.
REFERENCE_STEPS_PER_S = 13000.0


def _step(a, b) -> int:
    h = a @ a.conj().T
    w, v = np.linalg.eigh(h)
    rho = np.kron(b, v)
    p = float(np.real(np.trace(rho @ rho.conj().T)))
    return len(json.dumps({"w": [float(x) for x in w], "p": p}))


class Calibration:
    """Times blocks of the reference computation on a SIGALRM timer while
    active (`with calibration:`); `seconds` is their total time so far."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self._b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        self.steps = 0
        self.seconds = 0.0
        self._previous_handler = None

    def _block(self, *_signal_args) -> None:
        start = time.perf_counter()
        for _ in range(BLOCK_STEPS):
            _step(self._a, self._b)
        self.seconds += time.perf_counter() - start
        self.steps += BLOCK_STEPS

    def __enter__(self):
        for _ in range(BLOCK_STEPS):  # warm-up, not counted
            _step(self._a, self._b)
        self._previous_handler = signal.signal(signal.SIGALRM, self._block)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def speed(self) -> float:
        """The host's speed in this run relative to the reference machine."""
        if not self.steps:  # a run shorter than one timer interval
            self._block()
        return self.steps / self.seconds / REFERENCE_STEPS_PER_S
