"""PRBS generator correctness."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.traffic.prbs import _TAPS, PRBSGenerator, transition_density


class TestLFSR:
    @pytest.mark.parametrize("order", [7, 9, 11, 15])
    def test_maximal_length(self, order):
        gen = PRBSGenerator(order=order, seed=1)
        seen = set()
        for _ in range((1 << order) - 1):
            gen.next_bit()
            seen.add(gen._state)
        assert len(seen) == (1 << order) - 1
        assert 0 not in seen

    def test_balanced_over_period(self):
        gen = PRBSGenerator(order=15, seed=5)
        ones = sum(gen.next_bits((1 << 15) - 1))
        assert ones == 1 << 14  # maximal LFSR: 2^(n-1) ones per period

    def test_never_sticks_at_zero(self):
        for seed in (1, 2, 8, 1024):
            gen = PRBSGenerator(order=15, seed=seed)
            assert any(gen.next_bits(64))

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            PRBSGenerator(order=8)

    @pytest.mark.parametrize("seed", [0, 1 << 15])
    def test_invalid_seed(self, seed):
        with pytest.raises(ValueError):
            PRBSGenerator(order=15, seed=seed)

    def test_deterministic(self):
        a = PRBSGenerator(order=15, seed=3)
        b = PRBSGenerator(order=15, seed=3)
        assert a.next_bits(100) == b.next_bits(100)

    def test_different_seeds_decorrelate(self):
        a = PRBSGenerator(order=31, seed=3).next_bits(200)
        b = PRBSGenerator(order=31, seed=4).next_bits(200)
        assert a != b

    def test_clone_preserves_state(self):
        gen = PRBSGenerator(order=15, seed=7)
        gen.next_bits(13)
        clone = gen.clone()
        assert clone.next_bits(50) == gen.next_bits(50)

    def test_period_property(self):
        assert PRBSGenerator(order=7).period == 127

    @pytest.mark.parametrize("order", sorted(_TAPS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_seed_diffusion_matches_the_bit_loop(self, order, data):
        # the constructor diffuses with next_word jumps; the reference
        # is the 4*order single-bit shifts it replaced
        seed = data.draw(st.integers(1, (1 << order) - 1))
        reference = PRBSGenerator(order=order, seed=1)
        reference._state = seed
        for _ in range(4 * order):
            reference.next_bit()
        assert PRBSGenerator(order=order, seed=seed)._state == reference._state


class TestDraws:
    def test_uniform_in_range(self):
        gen = PRBSGenerator(order=31, seed=11)
        vals = [gen.next_uniform() for _ in range(500)]
        assert all(0.0 <= v < 1.0 for v in vals)

    def test_uniform_mean_reasonable(self):
        gen = PRBSGenerator(order=31, seed=11)
        vals = [gen.next_uniform() for _ in range(5000)]
        assert 0.45 < sum(vals) / len(vals) < 0.55

    @given(st.integers(1, 100))
    @settings(max_examples=25)
    def test_next_below_in_range(self, n):
        gen = PRBSGenerator(order=23, seed=9)
        assert all(0 <= gen.next_below(n) < n for _ in range(30))

    def test_next_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PRBSGenerator(order=15).next_below(0)

    def test_next_word_width(self):
        gen = PRBSGenerator(order=15, seed=2)
        assert all(0 <= gen.next_word(8) < 256 for _ in range(50))

    @pytest.mark.parametrize("order,seed", [(31, 7), (31, 23), (23, 9), (15, 5)])
    def test_fast_word_path_bit_exact(self, order, seed):
        """The batched next_word must match the per-bit loop exactly.

        The injection hot path relies on the two being interchangeable:
        traffic traces (and therefore every simulation result) would
        silently change if the shortcut diverged by a single bit.
        """
        fast = PRBSGenerator(order=order, seed=seed)
        slow = PRBSGenerator(order=order, seed=seed)
        for bits in (1, 3, 8, 24):
            if bits > min(fast._taps):
                continue
            for _ in range(200):
                word = 0
                for _ in range(bits):
                    word = (word << 1) | slow.next_bit()
                assert fast.next_word(bits) == word
            assert fast._state == slow._state

    def test_wide_word_falls_back_to_loop(self):
        # wider than the youngest tap: must still agree with bits
        a = PRBSGenerator(order=7, seed=3)
        b = PRBSGenerator(order=7, seed=3)
        word = a.next_word(20)
        bits = b.next_bits(20)
        expect = 0
        for bit in bits:
            expect = (expect << 1) | bit
        assert word == expect


class TestTransitionDensity:
    def test_alternating_is_one(self):
        assert transition_density([0, 1, 0, 1, 0]) == 1.0

    def test_constant_is_zero(self):
        assert transition_density([1, 1, 1, 1]) == 0.0

    def test_prbs_near_half(self):
        bits = PRBSGenerator(order=15, seed=3).next_bits(4000)
        assert 0.42 < transition_density(bits) < 0.58

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            transition_density([1])
