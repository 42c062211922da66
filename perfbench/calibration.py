"""Host-speed calibration kernel, run in a helper process.

The benchmark runs on a few vCPUs of a shared host, where the same code's
CPU time moves by 15-30% over seconds to minutes with what the neighbours
do: contention for the shared cache and memory, and the cost of faulting in
fresh pages.  The kernel is fixed numpy work of the kinds the workloads do,
on arrays of their sizes, so it leans on the same resources; no change to
fracqm can make it faster or slower.  The benchmark runs it between blocks
of passes and reports the median block in units of the median kernel run,
scaled by the kernel's time on the reference host, so a time reads as
seconds at that host's speed: the program's cost stays in, much of the
host's drift from run to run drops out.

The kernel runs in its own process, so the workload's heap (how much freed
memory it keeps for reuse) cannot change the kernel's page faults, and the
kernel's memory stays out of the workload's peak RSS.  The helper waits on
its standard input while the passes run; each line in runs the kernel once
and writes its time out:

    python3 perfbench/calibration.py
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from pathlib import Path


# about the kernel's median time on the reference host: 2 vCPUs of a
# 2.1 GHz Xeon
REFERENCE_S = 0.5
HELPER_TIMEOUT_S = 60


def kernel() -> float:
    """One run of the calibration kernel: the sampler part, then the
    split-operator part."""
    start = time.perf_counter()
    sampler_part()
    split_step_part()
    return time.perf_counter() - start


def sampler_part() -> None:
    """Chambers-Mallows-Stuck draws on fresh arrays of 10^6, as the stable
    sampler makes them (alpha 1.5, beta 0)."""
    import numpy as np

    rng = np.random.default_rng(0)
    alpha = 1.5
    for _ in range(3):
        u = rng.uniform(-math.pi / 2, math.pi / 2, 1_000_000)
        w = rng.exponential(size=1_000_000)
        x = (np.sin(alpha * u) / np.cos(u) ** (1 / alpha)
             * (np.cos(u - alpha * u) / w) ** ((1 - alpha) / alpha))
        x.sum()


def split_step_part() -> None:
    """Imaginary-time split-operator steps on a 512 x 512 complex kernel
    matrix, column FFTs and all, as the thermal ladder takes them."""
    import numpy as np

    n = 512
    x = np.linspace(-1.0, 1.0, n)
    half_v = np.exp(-0.005 * x**2)[:, None]
    kin_fac = np.exp(-0.01 * np.abs(np.fft.fftfreq(n)) ** 1.5)[:, None]
    rho = np.eye(n, dtype=complex)
    for _ in range(30):
        rho = half_v * rho
        rho = np.fft.ifft(kin_fac * np.fft.fft(rho, axis=0), axis=0)
        rho = half_v * rho
        if not np.all(np.isfinite(rho)):
            raise FloatingPointError("calibration kernel diverged")


class Calibration:
    """The kernel, run on request in a helper process; keeps its times and
    gives the scaling they imply."""

    def __init__(self):
        self.reference_s = REFERENCE_S
        self.times: list[float] = []
        self._helper: subprocess.Popen | None = None

    def run(self) -> None:
        if self._helper is None:
            self._helper = subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve())],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._helper.stdin.write("run\n")
        self._helper.stdin.flush()
        line = self._helper.stdout.readline()
        if not line:
            raise RuntimeError("calibration helper exited")
        self.times.append(float(line))

    def close(self) -> None:
        """Stop the helper and wait for it to end."""
        if self._helper is None:
            return
        self._helper.stdin.close()
        try:
            self._helper.wait(timeout=HELPER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._helper.kill()
            self._helper.wait()
        self._helper.stdout.close()
        self._helper = None

    def at_reference_speed(self, seconds: float) -> float:
        """``seconds`` in units of the median kernel run, scaled to seconds
        on the reference host."""
        return self.reference_s * seconds / statistics.median(self.times)


def serve() -> None:
    kernel()  # warm-up: first-call costs stay out of the times
    for _ in sys.stdin:
        print(repr(kernel()), flush=True)


if __name__ == "__main__":
    serve()
