"""How fast the machine runs Python right now, from a fixed workload.

The benchmark's host is a shared virtual machine: co-tenants change how
much work a core does per second, by tens of percent over minutes. The
benchmark times a fixed pure-Python workload, which never imports wzeta,
right before and after every child it starts, and scales the child's wall
time by REFERENCE_S over the mean of the two samples. A slow spell
lengthens both, so the scaled time moves much less than the wall time,
while a change to wzeta moves only the child's time.

The three kernels stand for the three kinds of work wzeta does: exact
rationals of factorial size (verify), big-integer products and gcds
(digits) and big integers rendered as decimal text (accelerate).
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

# machine_time() on the machine the benchmark was tuned on (2-vCPU Xeon
# virtual machine, CPython 3.11.7), so a scaled time reads close to a wall
# time there. It is a fixed unit: changing it rescales every figure.
REFERENCE_S = 0.025
REPEATS = 2


def _rationals() -> Fraction:
    total = Fraction(0)
    for n in range(1, 130):
        for k in range(0, n, 3):
            total += Fraction(math.factorial(n + k) * (n - k + 1), math.factorial(k) ** 2 * (2 * n + 1))
    return total


def _big_products() -> int:
    p, q = 1, 1
    for k in range(1, 3000):
        p = p * k ** 3 + q * (2 * k + 1)
        q *= k ** 3
        if k % 50 == 0:
            g = math.gcd(p, q)
            p, q = p // g, q // g
    return p


def _decimal_text() -> int:
    x = 7 ** 5000  # 4226 digits: under CPython's default int-str limit
    return sum(len(str(x + i)) for i in range(60))


KERNELS = (_rationals, _big_products, _decimal_text)


def machine_time() -> float:
    """Geometric mean over the kernels of one call's time, each averaged
    over REPEATS calls; about 0.15 s."""
    logs = []
    for kernel in KERNELS:
        start = time.perf_counter()
        for _ in range(REPEATS):
            kernel()
        logs.append(math.log((time.perf_counter() - start) / REPEATS))
    return math.exp(sum(logs) / len(logs))
