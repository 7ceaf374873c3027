"""The seeded stream of ``numpy.random.default_rng(numpy.random.SeedSequence(seed))``, drawn in Python.

NEP 19 freezes numpy's ``SeedSequence`` and its raw ``PCG64`` bit stream.
PCG64 is O'Neill's XSL-RR output on a 128-bit LCG (O'Neill, "PCG: A Family
of Simple Fast Space-Efficient Statistically Good Algorithms for Random
Number Generation", HMC-CS-2014-0905), and ``Generator.random`` takes the
top 53 bits of each 64-bit output.  ``Stream`` ports both, so a run that
draws a few thousand uniforms does not pay the ~15 ms import of
``numpy.random``.
"""

from __future__ import annotations

import operator

import numpy as np

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Ski rental: a Python draw costs c = 0.55-0.75 us and importing numpy.random
# I = 14-16 ms (2-core x86 VM, Python 3.11), the cost of 2**14.2-2**14.8 draws.
# Handing over after H draws costs at most (H c + I) / min(H c, I) times the
# cheaper of drawing all in Python and importing first, whatever the number of
# draws: 2 at H c = I, and 2.1-2.8 at the power of two H = 2**15.
HANDOVER = 2**15


def _hashmix(value: int, const: int) -> tuple[int, int]:
    value ^= const
    const = const * 0x931E8875 & _M32
    value = value * const & _M32
    return value ^ value >> 16, const


def _mix(x: int, y: int) -> int:
    x = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return x ^ x >> 16


def _pcg_seed(seed: int) -> tuple[int, int]:
    """PCG64's ``(initstate, initseq)``: ``SeedSequence(seed).generate_state(4, uint64)`` as two 128-bit words."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    pool, const = [], 0x43B0D7E5
    for word in (entropy + [0, 0, 0])[:4]:   # the pool hashes the first four words, zeros past the end
        word, const = _hashmix(word, const)
        pool.append(word)
    for src in range(4):   # so that late words reach early ones
        for dst in range(4):
            if src != dst:
                word, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], word)
    for extra in entropy[4:]:   # words past the pool mix into every pool word
        for dst in range(4):
            word, const = _hashmix(extra, const)
            pool[dst] = _mix(pool[dst], word)
    words, const = [], 0x8B51F9DD
    for i in range(8):   # eight uint32 words, read as four little-endian uint64
        word = pool[i % 4] ^ const
        const = const * 0x58F38DED & _M32
        word = word * const & _M32
        words.append(word ^ word >> 16)
    u64 = [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]
    return u64[0] << 64 | u64[1], u64[2] << 64 | u64[3]


class Stream:
    """``default_rng(SeedSequence(seed))``'s draws: ``random`` in Python until ``HANDOVER`` values, then numpy's.

    ``multinomial``, and any draw past ``HANDOVER``, imports ``numpy.random``
    and continues the same PCG64 state in a ``Generator``, which takes every
    later call.
    """

    def __init__(self, seed: int):
        initstate, initseq = _pcg_seed(seed)
        self._inc = (initseq << 1 | 1) & _M128   # PCG64's srandom: step from 0, add initstate, step
        self._state = ((self._inc + initstate) * _PCG_MULT + self._inc) & _M128
        self._drawn = 0
        self._numpy = None

    def _generator(self):
        if self._numpy is None:
            bits = np.random.PCG64(0)   # the first access imports numpy.random
            bits.state = {"bit_generator": "PCG64", "state": {"state": self._state, "inc": self._inc},
                          "has_uint32": 0, "uinteger": 0}
            self._numpy = np.random.Generator(bits)
        return self._numpy

    def random(self, shape) -> np.ndarray:
        """Uniform doubles in [0, 1) of ``shape``, as ``Generator.random(shape)`` draws them."""
        count = int(np.prod(shape))
        if self._numpy is not None or self._drawn + count > HANDOVER:
            return self._generator().random(shape)
        self._drawn += count
        state, inc, out = self._state, self._inc, []
        for _ in range(count):
            state = (state * _PCG_MULT + inc) & _M128
            x, rot = (state >> 64 ^ state) & _M64, state >> 122
            out.append(((x >> rot | x << (64 - rot)) & _M64) >> 11)
        self._state = state
        return (np.array(out, dtype=float) * 2.0**-53).reshape(shape)

    def multinomial(self, n, pvals):
        """``Generator.multinomial(n, pvals)`` on the continued stream."""
        return self._generator().multinomial(n, pvals)
