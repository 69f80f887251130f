import ast
import math
import random
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import isprime

from psprimes import numeric as nc
from psprimes import sieve as sv


class TestFloorPow:
    def test_examples(self):
        # frozen against the 200-bit oracle: 2^1.5 = 2.828..., 10^1.05 = 11.220...
        assert nc.floor_pow(2, 1.5) == 2
        assert nc.floor_pow(10, 1.0) == 10
        assert nc.floor_pow(10, 1.05) == 11

    def test_exact_integer_powers(self):
        assert nc.floor_pow(4, 1.5) == 8
        assert nc.floor_pow(9, 1.5) == 27
        assert nc.floor_pow(1, 0.37) == 1
        assert nc.floor_pow(8, 2.0) == 64
        # float(4/3) is a hair below 4/3, so 8**e sits just under 16
        assert nc.floor_pow(8, 4.0 / 3.0) == 15

    def test_rejections(self):
        for bad_e in (0.0, 4.0, -1.0, 5.0):
            with pytest.raises(ValueError):
                nc.floor_pow(2, bad_e)
        with pytest.raises(ValueError):
            nc.floor_pow(0, 1.5)
        with pytest.raises(ValueError):
            nc.floor_pow(-3, 1.5)

    def test_random_oracle_200bit(self):
        # invariant: a 200-bit recheck confirms m <= n^e < m+1 on 10^5 samples
        rng = random.Random(20240811)
        with mpmath.workprec(200):
            for _ in range(100_000):
                n = rng.randrange(1, 10 ** 8)
                e = rng.uniform(1e-3, 3.999)
                m = nc.floor_pow(n, e)
                y = mpmath.power(n, mpmath.mpf(e))
                assert m <= y < m + 1, (n, e, m)

    def test_np_power_within_the_stated_radius(self):
        # every certified floor assumes np.power within _FLOAT_POW_REL = 2^-47
        # relative. Sample it on this machine as the code calls it, an array
        # of bases and one float exponent, so the vector kernel runs: t =
        # p^(gamma-1) for p < 2^34 (the counting sweep), m^gamma for m < 2^53
        # (_pow_parts_array) and n^c for n < 2^27; bases log-uniform
        rng = np.random.default_rng(47)
        worst = 0.0
        with mpmath.workprec(200):
            for bits, exponent in ((34, lambda c: 1 / c - 1), (53, lambda c: 1 / c), (27, float)):
                for c in rng.uniform(1.0, 2.0, 6):
                    e = exponent(c)
                    ns = np.exp2(rng.uniform(1.0, bits, 48)).astype(np.int64)
                    for n, y in zip(ns.tolist(), (ns.astype(np.float64) ** e).tolist()):
                        want = mpmath.power(n, mpmath.mpf(e))
                        worst = max(worst, float(abs(y - want) / want))
        assert worst <= nc._FLOAT_POW_REL

    def test_log_within_the_stated_radius(self):
        # hb_terms' error argument takes np.log within 2^-52 relative, and so
        # do Lambda and the bf weights. Sample np.log where the code runs, against
        # 200-bit mpmath as the code calls it, on float64 arrays: primes
        # p < 2^24 (Lambda, the bf weights), primes p < 2^34 and n < 2^23
        # (hb_terms), log-uniform; and math.log at every prime p < 2^12, the p
        # whose higher powers up to 2^24 _prime_powers weighs by math.log(p)
        rng = np.random.default_rng(52)
        table = sv.shared_table(2 ** 24).primes(2 ** 24)
        below = lambda v: table[np.searchsorted(table, v, side="right") - 1]
        starts = np.exp2(rng.uniform(24, 34, 400)).astype(np.int64).tolist()
        large = [next(n for n in range(v, 2 ** 35) if isprime(n)) for v in starts]
        samples = [(a, np.log(a)) for a in (
            below(np.exp2(rng.uniform(1, 24, 400))).astype(np.float64),
            np.array(large, dtype=np.float64),
            np.exp2(rng.uniform(1, 23, 400)).astype(np.int64).astype(np.float64),
        )]
        small = table[table < 2 ** 12].tolist()
        samples.append((small, [math.log(p) for p in small]))
        worst = 0.0
        with mpmath.workprec(200):
            for args, logs in samples:
                for n, y in zip(np.asarray(args).tolist(), np.asarray(logs).tolist()):
                    want = mpmath.log(n)
                    worst = max(worst, float(abs(y - want) / want))
        assert max(large) < 2 ** 34
        assert worst <= 2.0 ** -52

    def test_floor_neg_pow(self):
        assert nc.floor_neg_pow(2, 1.5) == -3  # -ceil(2.828) = -3
        assert nc.floor_neg_pow(4, 1.5) == -8  # exact power
        assert nc.floor_neg_pow(10, 1.0) == -10

    def test_array_matches_scalar(self):
        ns = np.arange(1, 5001, dtype=np.int64)
        for e in (0.5, 1.05, 1.5, 2.0 / 3.0, 3.2):
            arr = nc._pow_parts_array(ns, e)[0]
            idx = random.Random(7).sample(range(len(ns)), 80)
            for i in idx:
                assert arr[i] == nc.floor_pow(int(ns[i]), e)

    def test_array_floor_beyond_int64_rejected_up_front(self):
        # (2^53 - 4097)^1.5 is about 2^79.5; no cast warning may come first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (2 ** 53 - 4097, 2 ** 42):  # 2^42 gives exactly 2^63
                with pytest.raises(ValueError, match="int64"):
                    nc._pow_parts_array(np.array([1, n]), 1.5)
            # (2^42 - 1)^1.5 lies just below 2^63 and is still accepted
            top = 2 ** 42 - 1
            assert nc._pow_parts_array(np.array([top]), 1.5)[0][0] == nc.floor_pow(top, 1.5)


def oracle_pow_parts(n, e):
    """(floor(n**e), whether n**e is an integer) for the float exponent e.

    With e = P/Q in lowest terms, Q <= 64 is decided in exact integer
    arithmetic (k**Q <= n**P < (k+1)**Q); for larger Q (a power of two) and
    2 <= n < 2^53, n**e is irrational, and 1000-bit mpmath decides the floor
    with a margin that is asserted.
    """
    if n == 1:
        return 1, True
    P, Q = e.as_integer_ratio()
    with mpmath.workprec(1000):
        y = mpmath.power(n, mpmath.mpf(e))
        k = int(mpmath.floor(y))
        margin = mpmath.ldexp(y, -900)
        if Q > 64:
            assert k + margin < y < k + 1 - margin, (n, e)
            return k, False
    t = n ** P
    while k ** Q > t:
        k -= 1
    while (k + 1) ** Q <= t:
        k += 1
    return k, k ** Q == t


def oracle_member(m, gamma):
    """ceil((m+1)^gamma) - ceil(m^gamma) == 1, from the oracle floors."""
    ceils = [f + (not exact) for f, exact in (oracle_pow_parts(v, gamma) for v in (m, m + 1))]
    return ceils[1] - ceils[0] == 1


TOP = (1 << 53) - 1  # largest array base


@st.composite
def rational_power_case(draw):
    """(n, e) with e = float(p/q) and n = k^q - 1, k^q or k^q + 1, so n**e sits
    next to the integer k^p, or on it when p/q is dyadic."""
    q = draw(st.integers(2, 7))
    p = draw(st.integers(1, 4 * q - 1).filter(lambda p: p % q))
    k = draw(st.integers(2, int((TOP - 1) ** (1.0 / q))))
    n = k ** q + draw(st.sampled_from((-1, 0, 1)))
    return n, p / q


# exponents a few ulps from 569/498 and from its reciprocal 498/569
near_569_498 = st.builds(
    lambda base, steps: base + steps * math.ulp(base),
    st.sampled_from((569 / 498, 498 / 569)),
    st.integers(-4, 4),
)
near_top = st.integers(TOP - (1 << 12), TOP)
hard_case = st.one_of(
    rational_power_case(),
    st.tuples(near_top, st.one_of(near_569_498, st.floats(0.05, 3.95))),
    st.tuples(st.integers(2, TOP), near_569_498),
)


class TestAdversarialFloors:
    @settings(max_examples=300, deadline=None)
    @given(case=hard_case)
    def test_floor_pow_against_oracle(self, case):
        n, e = case
        assert nc.floor_pow(n, e) == oracle_pow_parts(n, e)[0]

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        eq=st.one_of(
            st.sampled_from(((0.5, 2), (2 / 3, 3), (0.75, 4), (1.125, 8))),
            st.tuples(near_569_498, st.just(None)),
        ),
    )
    def test_floor_pow_array_against_oracle(self, data, eq):
        # n = k^q +- 1 for e = p/q, n near 2^53, and e near 569/498; every
        # floor stays below 2^63, the range of the int64 result
        e, q = eq
        ns = data.draw(st.lists(st.one_of(near_top, st.integers(1, TOP)), max_size=10))
        if q is not None:
            ks = data.draw(st.lists(st.integers(2, int((TOP - 1) ** (1.0 / q))), max_size=10))
            ns += [k ** q + d for k in ks for d in (-1, 0, 1)]
        got = nc._pow_parts_array(np.array(ns, dtype=np.int64), e)[0]
        assert got.tolist() == [oracle_pow_parts(n, e)[0] for n in ns]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), pq_=st.sampled_from(((2, 3), (3, 4), (3, 5), (4, 5), (4, 7), (5, 6), (6, 7))))
    def test_member_at_against_oracle(self, data, pq_):
        # gamma = p/q with m or m + 1 in {k^q - 1, k^q, k^q + 1}, near 2^53, and
        # gamma a few ulps from 498/569
        from psprimes import pspseq

        p, q = pq_
        near = data.draw(st.booleans())
        gamma = data.draw(near_569_498.filter(lambda v: v < 1)) if near else p / q
        g = nc.GammaExponent.from_gamma(gamma)
        ks = data.draw(st.lists(st.integers(2, int((TOP - 2) ** (1.0 / q))), max_size=8))
        ms = [k ** q + d for k in ks for d in (-2, -1, 0, 1)]
        ms += data.draw(st.lists(st.integers(TOP - (1 << 12), TOP - 1), max_size=6))
        # m = floor(n^c) - 1, floor(n^c), floor(n^c) + 1, where d = ceil(m^gamma)
        # - m^gamma sits next to (m+1)^gamma - m^gamma; the least m, where the
        # bracket (1 - gamma)/m is widest; m near 2^34, and near 2^45 to 2^47,
        # where the guard band outgrows that gap and every member is re-decided
        ns = data.draw(
            st.lists(st.builds(lambda u: int(2.0 ** u), st.floats(1.0, 52.9 * gamma)), max_size=6)
        )
        with mpmath.workprec(200):
            ms += [
                int(mpmath.floor(mpmath.power(n, 1 / mpmath.mpf(gamma)))) + d
                for n in ns
                for d in (-1, 0, 1)
            ]
        ms += [1, 2, 3, 5]
        ms += data.draw(
            st.lists(
                st.one_of(
                    st.integers((1 << 34) - (1 << 12), (1 << 34) + (1 << 12)),
                    st.integers(1 << 45, 1 << 47),
                ),
                max_size=6,
            )
        )
        got = pspseq._ps_member_at(np.array(ms, dtype=np.int64), g)
        assert got.tolist() == [oracle_member(m, gamma) for m in ms]

    @pytest.mark.parametrize("q, p", [(4, 3), (8, 5), (8, 7)])
    def test_member_at_dyadic_powers_against_certified_kernel(self, q, p):
        # gamma = p/q is exact in binary, so m^gamma is the integer k^p at m =
        # k^q, and d sits on Delta at m = k^q - 1, for 2000 k up to 2^(53/q).
        # Then m = floor(n^c) - 1, floor(n^c) and floor(n^c) + 1, exactly, for
        # 10^4 n spread over 2^30 <= m <= 2^47, where the float error of d
        # outgrows the bracket (1 - gamma)/m but not yet the gap
        from psprimes import pspseq

        gamma = p / q
        ks = np.unique(np.geomspace(2, (TOP - 2) ** (1.0 / q), 2000).astype(np.int64))
        ns = np.unique(np.geomspace(2 ** (30 * gamma), 2 ** (47 * gamma), 10 ** 4).astype(np.int64))
        m0 = np.array([nc._iroot(n ** q, p)[0] for n in ns.tolist()], dtype=np.int64)
        ms = np.concatenate([ks ** q - 1, ks ** q, ks ** q + 1, m0 - 1, m0, m0 + 1])
        got = pspseq._ps_member_at(ms, nc.GammaExponent.from_gamma(gamma))
        assert np.array_equal(got, pspseq._indicator_parts(ms, gamma)[0] == 1)

    @pytest.mark.parametrize("c", [1.0 + 1e-9, 1.01, 1.05, 1.3, 1.7, 1.9, 1.999])
    def test_member_at_primes_against_certified_kernel(self, table, monkeypatch, c):
        # every prime <= 10^6 against the certified two-power decision, with
        # the one-power test deciding all but a handful of them
        from psprimes import pspseq

        ps = table.primes(10 ** 6)
        gamma = nc.GammaExponent.from_c(c).gamma
        certified = pspseq._indicator_parts
        want = certified(ps, gamma)[0] == 1
        rechecked = []
        monkeypatch.setattr(
            pspseq,
            "_indicator_parts",
            lambda ms, gam: rechecked.append(ms.size) or certified(ms, gam),
        )
        got = pspseq._ps_member_at(ps, nc.GammaExponent.from_c(c))
        assert np.array_equal(got, want)
        assert sum(rechecked) <= 4


class TestUnitExp:
    """e(t) = exp(2*pi*i*t) from unit_exp_parts, as every direct sum forms it."""

    @staticmethod
    def e(t):
        cos, sin = nc.unit_exp_parts(np.asarray(t, dtype=np.float64))
        return cos + 1j * sin

    def test_examples(self):
        one, minus_one, i = self.e([0.0, 0.5, 0.25]).tolist()
        assert one == 1.0 + 0.0j
        assert abs(minus_one + 1.0) < 1e-15
        assert abs(i - 1j) < 1e-15

    def test_modulus_one(self):
        t = np.random.default_rng(5).uniform(-1e7, 1e7, 2000)
        assert np.abs(np.abs(self.e(t)) - 1.0).max() <= 1e-14

    def test_inverse_product(self):
        t = np.random.default_rng(6).uniform(-1e5, 1e5, 2000)
        assert np.abs(self.e(t) * self.e(-t) - 1.0).max() <= 1e-13


_CHUNK = nc._FSUM_CHUNK
# the chunk edges of the largest size below
_EDGES = [0, _CHUNK, 2 * _CHUNK, 3 * _CHUNK]


class TestFsumArray:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5]),
        seed=st.integers(0, 2 ** 32 - 1),
        spikes=st.lists(
            st.tuples(
                st.sampled_from(_EDGES),
                st.integers(-2, 2),
                st.sampled_from([1e16, 1.0, -1e16, 1e300, -1e300, 5e-324, -0.0]),
            ),
            max_size=8,
        ),
    )
    def test_equals_fsum(self, n, seed, spikes):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
        for edge, off, v in spikes:
            if 0 <= edge + off < n:
                a[edge + off] = v
        assert nc.fsum_array(a) == math.fsum(a)

    def test_cancellation_across_a_chunk_edge(self):
        a = np.zeros(2 * _CHUNK)
        a[_CHUNK - 2 : _CHUNK + 1] = [1e16, 1.0, -1e16]
        # per-chunk sums would round 1e16 + 1 to 1e16 and return 0.0
        assert nc.fsum_array(a) == 1.0

    def test_strided_view(self):
        z = np.arange(3 * _CHUNK, dtype=np.float64) * (1.0 + 1j) + 0.1
        assert nc.fsum_array(z.imag) == math.fsum(z.imag)
        assert nc.fsum_array(z.real) == math.fsum(z.real)


def fsum_outcome(fsum, a):
    """The value of fsum(a) with its sign, "nan", or the exception type it raises."""
    try:
        v = fsum(a)
    except (OverflowError, ValueError) as exc:
        return type(exc)
    return "nan" if math.isnan(v) else (v, math.copysign(1.0, v))


_MIN = nc._EXPAND_MIN
# 2^11 entries: a partial chunk well above the hand-over
_MID = 1 << 11


class TestFsumArrayEdges:
    """fsum_array against math.fsum where the extraction must step aside or be exact."""

    @pytest.mark.parametrize(
        "special",
        [[math.nan], [math.inf], [-math.inf], [math.inf, -math.inf], [math.inf, math.nan],
         [1e308, 1e308, -1e308], [2.0 ** 996], [-(2.0 ** 996)], [2.0 ** 1000, -(2.0 ** 1000)]],
    )
    @pytest.mark.parametrize("n", [0, _MIN - 4, _MIN + 1, _MID - 4, _MID + 1, 3 * _CHUNK + 5])
    def test_nonfinite_and_huge_entries(self, special, n):
        rng = np.random.default_rng(n)
        a = np.concatenate([rng.standard_normal(n), special])
        assert fsum_outcome(nc.fsum_array, a) == fsum_outcome(math.fsum, a)

    @pytest.mark.parametrize(
        "spikes", [[1e308, 1e308, -1e308], [8e307] * 3 + [-8e307] * 2]  # 8e307 < 2^1023
    )
    def test_intermediate_overflow_raises_in_both(self, spikes):
        a = np.zeros(2 * _MIN)
        a[[0, 7, _MIN, _MIN + 9, 2 * _MIN - 1][: len(spikes)]] = spikes
        for fsum in (math.fsum, nc.fsum_array):
            with pytest.raises(OverflowError):
                fsum(a)

    @pytest.mark.parametrize("n", [_MIN - 1, _MIN, _MID - 1, _MID, 2 * _CHUNK + 3])
    def test_zero_and_signed_zero_sums_are_plus_zero(self, n):
        rng = np.random.default_rng(n)
        mixed = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        x = rng.standard_normal(n)
        for a in (np.zeros(n), np.full(n, -0.0), mixed, np.concatenate([x, -x[::-1]])):
            assert fsum_outcome(nc.fsum_array, a) == fsum_outcome(math.fsum, a) == (0.0, 1.0)

    @pytest.mark.parametrize("n", [_MIN + 1, _MID + 1, 3 * _CHUNK + 5])
    def test_subnormal_only(self, n):
        rng = np.random.default_rng(n)
        a = rng.integers(-(2 ** 52), 2 ** 52, n) * 5e-324  # exact multiples of 2^-1074
        a[::7] = 2.0 ** -1022 - 5e-324  # the largest subnormal
        assert np.all(np.abs(a) < 2.0 ** -1022)
        assert fsum_outcome(nc.fsum_array, a) == fsum_outcome(math.fsum, a)

    @pytest.mark.parametrize(
        "n", [_MIN - 2, _MIN - 1, _MIN, _MIN + 1, _MID - 2, _MID - 1, _MID, _MID + 1]
    )
    def test_sizes_around_the_crossover(self, n):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
            assert fsum_outcome(nc.fsum_array, a) == fsum_outcome(math.fsum, a)

    def test_fsum_sees_only_the_parts(self, monkeypatch):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(3 * _CHUNK) * 10.0 ** rng.integers(-300, 300, 3 * _CHUNK)
        want = math.fsum(a)
        fsum, seen = math.fsum, []
        monkeypatch.setattr(math, "fsum", lambda xs: seen.append(list(xs)) or fsum(xs))
        assert nc.fsum_array(a) == want
        # one call, on the expansion: at most 56 parts per chunk, not the entries
        assert seen == [nc._exact_parts(a)]
        assert len(seen[0]) <= 3 * 56


def stream_case(n, cuts, seed, spikes):
    """An array of n mixed-sign entries over 600 decades with spikes, cut into blocks."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n) * 10.0 ** rng.integers(-310, 290, n)
    for i, v in spikes:
        if i < n:
            a[i] = v
    edges = [0, *sorted(min(c, n) for c in cuts), n]
    return a, [a[lo:hi] for lo, hi in zip(edges, edges[1:])]


def concatenated_parts(blocks):
    """The expansions of the blocks, concatenated: an expansion of them all."""
    return [p for b in blocks for p in nc._exact_parts(b)]


def stream_sum(blocks):
    """The concatenated expansions of the blocks, rounded once."""
    return math.fsum(concatenated_parts(blocks))


class TestFsumStream:
    """Per-block expansions, concatenated and rounded once, against math.fsum of them all."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.sampled_from([0, 1, 5, _MIN - 1, _MIN, _CHUNK - 1, _CHUNK + 1, 3 * _CHUNK + 5]),
        # repeated cuts make empty blocks; cuts past n make empty trailing ones
        cuts=st.lists(st.integers(0, 3 * _CHUNK + 5), max_size=12),
        seed=st.integers(0, 2 ** 32 - 1),
        spikes=st.lists(
            st.tuples(
                st.sampled_from([0, 1, _MIN - 1, _CHUNK - 1, _CHUNK, 2 * _CHUNK]),
                st.sampled_from([1e16, 1.0, -1e16, 1e295, -1e295, 5e-324, -0.0]),
            ),
            max_size=6,
        ),
    )
    def test_equals_fsum_of_the_concatenation(self, n, cuts, seed, spikes):
        a, blocks = stream_case(n, cuts, seed, spikes)
        got = stream_sum(blocks)
        want = math.fsum(a)
        assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want))

    def test_empty_stream_is_zero(self):
        for blocks in ([], [np.zeros(0)] * 3):
            got = stream_sum(blocks)
            assert (got, math.copysign(1.0, got)) == (0.0, 1.0)

    def test_short_stream_goes_to_fsum(self):
        # fewer than _EXPAND_MIN entries are their own expansion
        assert nc._exact_parts(np.ones(_MIN - 1)) == [1.0] * (_MIN - 1)
        # from there on, one pass and the plain sum of its zero remainder
        assert nc._exact_parts(np.ones(_MIN)) == [float(_MIN), 0.0]

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 2.0 ** 996, -(2.0 ** 996)])
    def test_precondition_is_checked(self, bad):
        a = np.ones(2 * _CHUNK)
        a[_CHUNK + 3] = bad
        with pytest.raises(ValueError, match="below 2\\^996"):
            stream_sum([a[:10], a[10:]])
        a[_CHUNK + 3] = np.nextafter(2.0 ** 996, 0.0) * math.copysign(1.0, bad)
        assert stream_sum([a[:10], a[10:]]) == math.fsum(a)

    @settings(max_examples=20, deadline=None)
    @given(
        cuts=st.lists(st.integers(0, 9 * _CHUNK), max_size=30),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_cancellation_across_nine_chunks(self, cuts, seed):
        spikes = [(_CHUNK - 1, 1e16), (4 * _CHUNK, 1.0), (8 * _CHUNK + 2, -1e16)]
        a, blocks = stream_case(9 * _CHUNK, cuts, seed, spikes)
        assert stream_sum(blocks) == math.fsum(a)
        a[:] = 0.0  # the blocks are views of a
        a[[_CHUNK - 1, 4 * _CHUNK, 8 * _CHUNK + 2]] = [1e16, 1.0, -1e16]
        # per-block rounding would give 0.0
        assert stream_sum(blocks) == 1.0


def fraction_sum(xs):
    """The exact sum of a list or array of floats, as a Fraction."""
    return sum(map(Fraction, list(xs)), Fraction(0))


class TestExpansions:
    """Expansions concatenate: the parts of any blocks of an array hold its exact sum."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([0, 1, 8, _MIN - 1, _MIN + 1, _CHUNK + 1, 2 * _CHUNK + 9]),
        cuts=st.lists(st.integers(0, 2 * _CHUNK + 9), max_size=10),
        seed=st.integers(0, 2 ** 32 - 1),
        spikes=st.lists(
            st.tuples(
                st.integers(0, 2 * _CHUNK + 8),
                st.sampled_from([1e16, -1e16, 1e295, -1e295, 5e-324, -0.0]),
            ),
            max_size=8,
        ),
    )
    def test_expansions_concatenate(self, n, cuts, seed, spikes):
        a, blocks = stream_case(n, cuts, seed, spikes)
        parts = concatenated_parts(blocks)
        assert fraction_sum(parts) == fraction_sum(a)
        assert signed(math.fsum(parts)) == signed(math.fsum(a))
        # an expansion of the expansion, as a stream folds a long one
        assert fraction_sum(nc._exact_parts(np.array(parts))) == fraction_sum(a)


@st.composite
def summation_case(draw):
    """The cases of TestFsumArray and TestFsumStream: (the array, its blocks or None)."""
    if draw(st.booleans()):
        n = draw(st.sampled_from([0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5]))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        a = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
        spikes = [1e16, 1.0, -1e16, 1e300, -1e300, 5e-324, -0.0]
        for i in draw(st.lists(st.integers(0, 3 * _CHUNK + 5), max_size=8)):
            if i < n:
                a[i] = draw(st.sampled_from(spikes))
        return a, None
    return stream_case(
        draw(st.sampled_from([0, 1, 5, _MIN - 1, _MIN, _CHUNK - 1, _CHUNK + 1, 3 * _CHUNK + 5])),
        draw(st.lists(st.integers(0, 3 * _CHUNK + 5), max_size=12)),
        draw(st.integers(0, 2 ** 32 - 1)),
        draw(
            st.lists(
                st.tuples(
                    st.sampled_from([0, 1, _MIN - 1, _CHUNK - 1, _CHUNK, 2 * _CHUNK]),
                    st.sampled_from([1e16, 1.0, -1e16, 1e295, -1e295, 5e-324, -0.0]),
                ),
                max_size=6,
            )
        ),
    )


def signed(v):
    return v, math.copysign(1.0, v)


class TestExtraction:
    """The ExtractVector passes of _exact_parts, run until nothing remains."""

    @settings(max_examples=60, deadline=None)
    @given(case=summation_case())
    def test_extraction_equals_fsum(self, case):
        a, blocks = case
        got = nc.fsum_array(a) if blocks is None else stream_sum(blocks)
        assert signed(got) == signed(math.fsum(a))

    @pytest.mark.parametrize("c", [1.0 + 1e-9, 1.05, 1.5, 1.9])
    def test_main_terms_are_never_binned(self, c):
        gam = 1.0 / c
        ps = np.arange(2, 10 ** 6, dtype=np.float64)
        xg1 = 1e6 ** (gam - 1.0)
        terms = [ps ** (gam - 1.0), ps[:-1000] ** (gam - 1.0) * np.cos(ps[:-1000])]
        terms.append((xg1 - terms[0]) / (gam - 1.0))
        want = [math.fsum(t) for t in terms]
        assert [stream_sum(np.array_split(t, 40)) for t in terms] == want

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75])
    def test_bf_scan_terms(self, alpha):
        # at alpha = 1/4, 1/2 and 3/4 one part is rounding noise of about
        # 1e-16*w; at 1/4 and 3/4 both parts take three passes
        from psprimes import expsums, sieve

        w = expsums._bf_weight_vector(2 ** 15, 1.3)
        ps = sieve.shared_table(2 ** 15).primes(2 ** 15).astype(np.float64)
        for part in nc.unit_exp_parts(alpha * ps):
            terms = w * part
            assert signed(nc.fsum_array(terms)) == signed(math.fsum(terms))

    def test_cancellation_across_passes_in_one_chunk(self):
        # 1e16 + 1 - 1e16 spans two passes, and the tiny entries, taken by a
        # later pass, still move the rounding of the 1.0
        rng = np.random.default_rng(5)
        a = rng.uniform(1.0, 2.0, _CHUNK) * 2.0 ** -66
        a[[3, 700, _CHUNK - 1]] = [1e16, 1.0, -1e16]
        want = math.fsum(a)
        assert want == 1.0 + 2.0 ** -52
        assert nc.fsum_array(a) == want
        a[700] = 0.0
        assert nc.fsum_array(a) == math.fsum(a) > 0.0

    @pytest.mark.parametrize("seed", [1, 2, 64])
    def test_full_chunk_at_the_sigma_bound(self, seed):
        # n = _FSUM_CHUNK entries just below 2^e: their extracted sum reaches
        # (2^_EXTRACT_BITS - 2) * 2^e, the most that sigma = 2^(e + bits) allows
        assert _CHUNK + 2 <= 1 << nc._EXTRACT_BITS
        top = np.nextafter(1.0, 0.0)
        rng = np.random.default_rng(seed)
        for a in (
            np.full(_CHUNK, top),
            np.full(_CHUNK, -top),
            np.where(rng.random(_CHUNK) < 0.9, top, -0.75)
            * rng.choice([1.0, 1 - 2 ** -52], _CHUNK),
            np.concatenate([np.full(_CHUNK - 1, -top), [2.0 ** -70]]),
        ):
            assert a.size == _CHUNK
            assert signed(stream_sum([a])) == signed(math.fsum(a))

    @pytest.mark.parametrize("cut", [0, 2, 64])
    @pytest.mark.parametrize("top", [2.0 ** -1022, 2.0 ** -1040, 2.0 ** -1060, 5e-324])
    def test_subnormal_only_chunks(self, top, cut):
        # below 2^-1037 sigma = 2^(e + _EXTRACT_BITS) would leave the normal
        # range: sigma = 2^-1022 takes every remaining entry exactly. The
        # array is also cut at `cut` entries, and each part extracted apart.
        rng = np.random.default_rng(int(-math.log2(top)))
        k = int(top / 5e-324)
        a = rng.integers(-k + 1, k, _CHUNK) * 5e-324  # exact multiples of 2^-1074
        a[::5] = np.nextafter(top, 0.0)
        assert np.all(np.abs(a) < 2.0 ** -1022)
        want = signed(math.fsum(a))
        assert signed(stream_sum([a])) == want
        assert signed(stream_sum([a[:cut], a[cut:]])) == want
        assert signed(stream_sum([a[:cut], a[cut:], -a])) == (0.0, 1.0)

    def test_widest_chunk_ends_within_56_passes(self, monkeypatch):
        # entries from 2^-1074 to 2^995: each pass drops the remainder at least
        # 37 binades, and the pass with sigma = 2^-1022 takes the rest
        rng = np.random.default_rng(0)
        a = np.ldexp(rng.uniform(0.5, 1.0, _CHUNK), rng.integers(-1074, 996, _CHUNK))
        a[rng.random(_CHUNK) < 0.5] *= -1.0
        a[:2] = [5e-324, np.nextafter(2.0 ** 996, 0.0)]
        want = math.fsum(a)
        sigmas = []
        ldexp = math.ldexp
        monkeypatch.setattr(math, "ldexp", lambda x, e: sigmas.append(e) or ldexp(x, e))
        assert signed(stream_sum([a])) == signed(want)
        assert sigmas[-1] == -1022
        assert len(sigmas) <= 56


class TestGroupedExactSum:
    """_group_fsums: each group's sum, rounded as math.fsum rounds that group."""

    @staticmethod
    def check(a, groups, n):
        sums = nc._group_fsums(a, groups, n)
        want = [signed(math.fsum(a[groups == k])) for k in range(n)]
        assert [signed(t) for t in sums] == want
        assert want == [signed(float(fraction_sum(a[groups == k]))) for k in range(n)]

    @settings(max_examples=60, deadline=None)
    @given(
        size=st.sampled_from([0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 7]),
        used=st.lists(st.integers(0, 40), min_size=1, max_size=12, unique=True),
        seed=st.integers(0, 2 ** 32 - 1),
        subnormal=st.booleans(),
        spikes=st.lists(
            st.tuples(
                st.integers(0, 2 * _CHUNK + 6),
                st.sampled_from([1e16, -1e16, 1.0, 1e295, -1e295, 5e-324, -0.0]),
            ),
            max_size=8,
        ),
    )
    def test_each_group_equals_fsum(self, size, used, seed, subnormal, spikes):
        # groups that no entry uses stay empty: n runs past the largest label
        rng = np.random.default_rng(seed)
        if subnormal:
            a = rng.integers(-(2 ** 40), 2 ** 40, size) * 5e-324
        else:
            a = rng.standard_normal(size) * 10.0 ** rng.integers(-20, 20, size)
        for i, v in spikes:
            if i < size:
                a[i] = v
        groups = rng.choice(used, size)
        self.check(a, groups, max(used) + 3)

    def test_cancellation_across_chunks_in_one_group(self):
        # 1e16 + 1 - 1e16 in group 1, split over two chunks and mixed with
        # the entries of the other groups: per-chunk rounding would give 0.0
        rng = np.random.default_rng(3)
        a = rng.uniform(-1.0, 1.0, 2 * _CHUNK + 5) * 2.0 ** -60
        groups = rng.integers(0, 7, a.size)
        groups[[5, _CHUNK + 2, 2 * _CHUNK + 4]] = 1
        a[groups == 1] = 0.0
        a[[5, _CHUNK + 2, 2 * _CHUNK + 4]] = [1e16, 1.0, -1e16]
        assert nc._group_fsums(a, groups, 9)[1] == 1.0
        self.check(a, groups, 9)


@st.composite
def exact_sum_case(draw):
    """An array of one of the lengths where a path or a chunk changes, in one of
    the shapes the proofs treat apart."""
    n = draw(st.sampled_from(
        [0, 1, 8, _MIN - 1, _MIN, _MIN + 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5]
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["spread", "cancelling", "subnormal", "huge", "t-like", "ap-like"]))
    if kind == "spread":
        a = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 290, n)
    elif kind == "cancelling":  # +-x pairs, so the sum is what the spikes leave
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
        a = np.where(np.arange(n) % 2 == 0, x, -np.roll(x, 1))
        if n >= 3:
            a[rng.choice(n, 3, replace=False)] = [1e16, 1.0, -1e16]
    elif kind == "subnormal":
        a = rng.integers(-(2 ** 52), 2 ** 52, n) * 5e-324
    elif kind == "huge":  # in [2^995, 2^996), either sign
        a = np.ldexp(rng.uniform(0.5, 1.0, n), 996) * rng.choice([-1.0, 1.0], n)
    else:  # a sweep block: t = p^(gamma - 1) falls with p; its integral terms rise to 0
        gam = rng.uniform(0.5, 1.0)
        p = np.sort(rng.integers(2, 10 ** 7, n)).astype(np.float64)
        a = p ** (gam - 1.0)
        if kind == "ap-like":
            a = (float(p[-1] if n else 2.0) ** (gam - 1.0) - a) / (gam - 1.0)
    return a


class TestExactSum:
    """_exact_parts and _group_fsums against exact Fraction sums, and rounded
    against math.fsum."""

    @settings(max_examples=40, deadline=None)
    @given(a=exact_sum_case(), k=st.integers(1, 5))
    def test_equals_fractions_and_fsum(self, a, k):
        assert fraction_sum(nc._exact_parts(a)) == fraction_sum(a)
        rounded = fsum_outcome(lambda v: math.fsum(nc._exact_parts(v)), a)
        assert rounded == fsum_outcome(math.fsum, a)
        groups = np.arange(a.size) % k
        want = [signed(float(fraction_sum(a[groups == g]))) for g in range(k)]
        assert [signed(v) for v in nc._group_fsums(a, groups, k)] == want

    @settings(max_examples=40, deadline=None)
    @given(a=exact_sum_case(), rows=st.sampled_from([1, 2, 3, 7, 64]))
    def test_one_expansion_per_row(self, a, rows):
        # one row of any length, or rows of at most _FSUM_CHUNK entries in all
        if rows > 1:
            a = a[: min(a.size, _CHUNK) // rows * rows]
        a = a.reshape(rows, -1)
        parts = np.array(nc._exact_parts(a)).reshape(-1, rows)
        for row, expansion in zip(a, parts.T):
            assert fraction_sum(expansion) == fraction_sum(row)
            assert fsum_outcome(math.fsum, expansion) == fsum_outcome(math.fsum, row)

    def test_second_pass_at_its_sigma_bound(self):
        # after the first pass (sigma = 2^15) each of the first half leaves
        # 2^-38 - 2^-53, just below the bound 2^(s - 53), all of one sign; the
        # second half holds bits down to 2^-112. A second sigma below the one
        # that bound gives would round the float sum of its parts.
        rng = np.random.default_rng(7)
        k = rng.integers(2 ** 36, 2 ** 37, _CHUNK // 2)
        big = k * 2.0 ** -37 + (2.0 ** -38 - 2.0 ** -53)
        tiny = rng.uniform(1.0, 2.0, _CHUNK // 2) * 2.0 ** -60
        a = np.concatenate([big, tiny])
        a[-1] = -a[-1]  # both signs: every part comes from a pass
        assert fraction_sum(nc._exact_parts(a)) == fraction_sum(a)

    @pytest.mark.parametrize("c", [1.0 + 1e-9, 1.024, 1.5, 1.9])
    def test_sweep_block_takes_one_pass(self, monkeypatch, c):
        # t = m^(gamma - 1) on the first sweep block: positive, and within 2^23
        # of its largest entry, so one pass and one plain float sum: two parts
        t = np.arange(2, 2 + _CHUNK, dtype=np.float64) ** (1.0 / c - 1.0)
        sigmas = []
        ldexp = math.ldexp
        monkeypatch.setattr(math, "ldexp", lambda x, e: sigmas.append(e) or ldexp(x, e))
        parts = nc._exact_parts(t)
        assert fraction_sum(parts) == fraction_sum(t)
        assert len(sigmas) == 1
        assert len(parts) == 2

    # sizes on both sides of the hand-over _EXPAND_MIN
    @pytest.mark.parametrize("n", [1, 8, 15, 16, _MIN - 1, _MIN, _MIN + 1, _CHUNK + 1])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 2.0 ** 996, -(2.0 ** 996)])
    def test_precondition_at_every_size(self, n, bad):
        a = np.ones(n)
        a[n // 2] = bad
        if n < _MIN:  # the entries themselves: math.fsum decides
            got = fsum_outcome(lambda v: math.fsum(nc._exact_parts(v)), a)
            assert got == fsum_outcome(math.fsum, a)
            return
        with pytest.raises(ValueError, match="below 2\\^996"):
            nc._exact_parts(a)
        with pytest.raises(ValueError, match="below 2\\^996"):
            nc._group_fsums(a, np.zeros(n, dtype=np.int64), 1)


def _numeric_imports(module):
    """The names a module imports from psprimes.numeric."""
    tree = ast.parse(Path(module.__file__).read_text())
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "numeric"
        for alias in node.names
    }


def test_exact_sums_stay_private_to_numeric():
    # outside numeric an exact sum is an expansion, rounded by math.fsum: the
    # other modules import only these names of numeric's summation section,
    # which runs from _FSUM_CHUNK to the end of the module, and none of them
    # works in units of 2^-1074
    import psprimes
    from psprimes import cli, exppairs, expsums, pspseq, sieve

    names = [
        n.name if isinstance(n, ast.FunctionDef) else getattr(n.targets[0], "id", None)
        for n in ast.parse(Path(nc.__file__).read_text()).body
        if isinstance(n, (ast.Assign, ast.FunctionDef))
    ]
    summing = set(names[names.index("_FSUM_CHUNK") :])
    assert {"_exact_parts", "_group_fsums", "fsum_array", "_passes"} <= summing
    allowed = {"_exact_parts", "fsum_array", "_group_fsums", "_FSUM_CHUNK"}
    for module in (expsums, pspseq):
        assert _numeric_imports(module) & summing <= allowed
    for module in (psprimes, cli, exppairs, expsums, pspseq, sieve):
        tree = ast.parse(Path(module.__file__).read_text())
        assert not any(
            isinstance(n, ast.Constant) and n.value in (1074, 1 << 1074, 2.0 ** -1074)
            for n in ast.walk(tree)
        ), module.__name__


class TestGammaExponent:
    def test_roundtrip(self):
        g = nc.GammaExponent.from_c(1.1)
        assert abs(g.gamma * g.c - 1.0) <= 1e-15
        g2 = nc.GammaExponent.from_gamma(0.9)
        assert g2.c == pytest.approx(1.0 / 0.9, rel=1e-15)

    def test_rejections(self):
        for bad in (1.0, 2.0, 0.5, 2.5):
            with pytest.raises(ValueError):
                nc.GammaExponent.from_c(bad)
        with pytest.raises(ValueError):
            nc.GammaExponent(c=1.5, gamma=0.5)
