"""A fixed reference computation that measures how fast the machine runs now.

The benchmark machine is shared, and its speed drifts by 20 % and more over
tens of seconds to minutes: a seed and this kernel slow down together, and
their ratio stays put. `run.py` times the kernel before and after every seed
and reports the end-to-end times at the reference speed, `measured seconds x
REFERENCE_S / kernel seconds`. The kernel uses numpy, json and the
interpreter only, never catebounds, so no change to the program moves it. It
runs in a child process of its own, started once per run and idle while a
seed runs, so that its arrays touch neither the peak memory nor the malloc
state of the process that runs the seeds.

Its six parts mirror what a seed spends time on: interpreter work (the
autodiff tape), numpy ops on small arrays (one training iteration),
elementwise ops on a medium array (the Γ field, flow sampling), a BLAS matmul
with 785 inputs (the `hcmnist-scale` layers), floats formatted as text (the
JSON checkpoints and CSV writers) and 16 MB arrays filled and summed (the
memory traffic of the large arrays of `hcmnist-scale`, which the other parts,
small enough for the caches, do not see).
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import numpy as np

# median seconds of one `Kernel.time()` on the 2-vCPU machine of README.md,
# so that the reported times read as seconds on that machine at its usual speed
REFERENCE_S = 0.42


def _run() -> float:
    """The reference computation; its inputs are fixed, never seeded by a run."""
    rng = np.random.default_rng(0)
    small_x = rng.standard_normal((1000, 8))
    small_w = rng.standard_normal((8, 8))
    medium = rng.standard_normal((400, 400))
    wide_x = rng.standard_normal((1000, 785))
    wide_w = rng.standard_normal((785, 64))
    text = rng.standard_normal(60_000).tolist()
    acc = 0.0
    table = {}
    for i in range(600_000):
        acc += i * i
        table[i & 255] = acc
    x = small_x
    for _ in range(1600):
        h = np.tanh(x @ small_w)
        x = small_x + 0.005 * (((1.0 - h * h) * 0.5) @ small_w.T)
        acc += float(x[0, 0])
    for _ in range(55):
        acc += float((np.exp(-0.5 * medium * medium) * medium).sum(axis=0).max())
    for _ in range(32):
        acc += float((wide_x @ wide_w)[0, 0])
    acc += len(json.dumps(text))
    for _ in range(20):
        fresh = np.empty(2_000_000)
        fresh.fill(1.0)
        acc += float(fresh.sum())
        del fresh  # one 16 MB array at a time
    return acc


class Kernel:
    """Times `_run` in a child process, one call per `time()`; the samples
    are kept. Use it as a context manager, or call `close`, so that the child
    ends with the run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._child = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                       stdout=subprocess.PIPE, text=True)
        # wait out the child's start and warm-up, so they overlap nothing timed
        self._read()

    def _read(self) -> str:
        line = self._child.stdout.readline()
        if not line:
            raise RuntimeError(f"the reference kernel process ended with code "
                               f"{self._child.wait()}")
        return line

    def time(self) -> float:
        """Run the kernel once, keep and return its wall seconds."""
        self._child.stdin.write("run\n")
        self._child.stdin.flush()
        elapsed = float(self._read())
        self.samples.append(elapsed)
        return elapsed

    def scale(self) -> float:
        """Factor from this run's seconds to seconds at the reference speed."""
        return REFERENCE_S * len(self.samples) / sum(self.samples)

    def close(self) -> None:
        """End the child: it exits when its input closes."""
        self._child.stdin.close()
        try:
            self._child.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.wait()
        self._child.stdout.close()

    def __enter__(self) -> "Kernel":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _serve() -> None:
    """The child: a warm-up call, which pays for page faults and lazy
    set-up, then one timed call per line read, its seconds written back."""
    _run()
    print("ready", flush=True)
    for _ in sys.stdin:
        started = time.perf_counter()
        _run()
        print(time.perf_counter() - started, flush=True)


if __name__ == "__main__":
    _serve()
