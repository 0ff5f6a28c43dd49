"""A fixed reference kernel that measures how fast the machine runs right now.

The speed of a shared virtual machine drifts by a fifth or more over minutes,
and the drift follows the process, not the program: the same circuit, run
again and again in one process, slows down and speeds up with it.  The
benchmark times this kernel in the same worker, just before and after the
circuits, and scales its time metrics by `REF_S / measured`.  The kernel is
the benchmark's own, so no change to `src/cliffsim` can change it: a faster
program shows in full, while a slower machine cancels out.

The work is that of the blade kernel's hot loop, written out here: the
geometric product of a 16-term and a 2048-term multivector on 12 generators,
with a sign cache that starts empty on every call, so every call does the
same work whatever ran before it in the process.
"""

from __future__ import annotations

import random
import time

# Nominal seconds of one call; scaled times read as seconds on a machine
# where the kernel takes exactly this long.
REF_S = 0.04
_GENERATORS = 12


def _operand(rng: random.Random, terms: int) -> dict[int, complex]:
    return {rng.randrange(1 << _GENERATORS): complex(rng.random(), rng.random()) for _ in range(terms)}


_rng = random.Random(0)
_SMALL = _operand(_rng, 16)
_LARGE = _operand(_rng, 2048)


def reference_seconds() -> float:
    """Wall seconds of one pass of the fixed kernel."""
    t0 = time.perf_counter()
    cache: dict[tuple[int, int], int] = {}
    out: dict[int, complex] = {}
    for a, ca in _SMALL.items():
        for b, cb in _LARGE.items():
            key = (a, b)
            sign = cache.get(key)
            if sign is None:
                x, swaps = a >> 1, 0
                while x:
                    swaps += (x & b).bit_count()
                    x >>= 1
                sign = 1 if swaps % 2 == 0 else -1
                cache[key] = sign
            m = a ^ b
            out[m] = out.get(m, 0j) + ca * cb * sign
    return time.perf_counter() - t0
