"""Linear-feedback shift register pseudo-random binary sequences.

The chip's NICs generate traffic with on-die PRBS circuits.  Crucially,
all sixteen NICs shared *identical* generators, which synchronised
injection decisions across nodes and produced avoidable contention even
at low loads (Section 4.1 attributes ~1 cycle/hop of low-load
contention latency to this artifact, dropping to ~0.04 cycles/hop in
RTL simulation with decorrelated generators).

The same class drives bit-level switching-activity estimation in the
circuit models (Fig. 7 measures RSD energy on PRBS data).
"""

from __future__ import annotations

#: Maximal-length feedback polynomials (exponent pairs, Fibonacci form):
#: x^a + x^b + 1, the standard ITU-T PRBS polynomials.
_TAPS = {
    7: (7, 6),
    9: (9, 5),
    11: (11, 9),
    15: (15, 14),
    23: (23, 18),
    31: (31, 28),
}


class PRBSGenerator:
    """A PRBS-(2^n - 1) generator producing bits and bounded integers."""

    def __init__(self, order=15, seed=1):
        if order not in _TAPS:
            raise ValueError(f"unsupported PRBS order {order}; use {sorted(_TAPS)}")
        if seed <= 0 or seed >= (1 << order):
            raise ValueError("seed must be a non-zero state within the register")
        self.order = order
        self._taps = _TAPS[order]
        self._state = seed
        # Diffuse the seed through the register: freshly seeded states
        # with few set bits would otherwise emit long runs of zeros,
        # which biases next_uniform() toward zero.  4*order shifts, taken
        # as next_word jumps no wider than the youngest tap (the fast
        # path's bit-exact range) instead of one Python call per bit.
        jump = min(self._taps)
        for done in range(0, 4 * order, jump):
            self.next_word(min(jump, 4 * order - done))

    def next_bit(self):
        """Advance one shift and return the output (feedback) bit."""
        a, b = self._taps
        feedback = ((self._state >> (a - 1)) ^ (self._state >> (b - 1))) & 1
        mask = (1 << self.order) - 1
        self._state = ((self._state << 1) | feedback) & mask
        return feedback

    def next_bits(self, n):
        return [self.next_bit() for _ in range(n)]

    def next_word(self, bits):
        """An integer assembled from ``bits`` successive output bits.

        For ``bits`` no larger than the youngest tap, all the feedback
        bits of the batch depend only on the *current* register state
        (freshly inserted bits cannot have reached a tap yet), so the
        whole word is computed with two shifts and an xor instead of a
        per-bit Python loop.  The fast path is bit-exact with the loop:
        ``fb_i = s[a-1-i] ^ s[b-1-i]`` and the register afterwards holds
        ``(s << bits) | word``.  This is the injection hot path — every
        NIC draws a 24-bit word per cycle.
        """
        a, b = self._taps
        if bits <= (b if b < a else a):
            state = self._state
            word = ((state >> (a - bits)) ^ (state >> (b - bits))) & (
                (1 << bits) - 1
            )
            self._state = ((state << bits) | word) & ((1 << self.order) - 1)
            return word
        word = 0
        for _ in range(bits):
            word = (word << 1) | self.next_bit()
        return word

    def next_uniform(self):
        """A float in [0, 1) with 24 bits of PRBS entropy."""
        return self.next_word(24) / float(1 << 24)

    def next_below(self, n):
        """An integer in [0, n) via rejection-free modular mapping."""
        if n < 1:
            raise ValueError("n must be positive")
        return self.next_word(24) % n

    @property
    def period(self):
        return (1 << self.order) - 1

    def clone(self):
        copy = PRBSGenerator(self.order, 1)
        copy._state = self._state
        return copy


def salted_stream_seed(base, salt, offset=0):
    """A PRBS-31 register state for a derived stream family.

    ``base`` (typically a node's traffic seed) is spread by an odd
    multiplier, XOR-``salt``-ed so each stream family (routing headers,
    injection-process chains, ...) is decorrelated from the traffic
    streams and from each other, shifted by ``offset`` (e.g. a node
    id), and folded into the register's non-zero range.
    """
    state = ((base * 1_000_003) ^ salt) + offset
    return state % ((1 << 31) - 2) + 1


def transition_density(bits):
    """Fraction of adjacent bit pairs that toggle (switching activity)."""
    if len(bits) < 2:
        raise ValueError("need at least two bits")
    toggles = sum(1 for a, b in zip(bits, bits[1:]) if a != b)
    return toggles / (len(bits) - 1)
