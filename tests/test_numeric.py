import math
import random
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psprimes import numeric as nc


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

    def test_floor_neg_pow(self):
        assert nc.floor_neg_pow(2, 1.5) == -3  # -ceil(2.828) = -3
        assert nc.floor_neg_pow(4, 1.5) == -8  # exact power
        assert nc.floor_neg_pow(10, 1.0) == -10

    def test_array_matches_scalar(self):
        ns = np.arange(1, 5001, dtype=np.int64)
        for e in (0.5, 1.05, 1.5, 2.0 / 3.0, 3.2):
            arr = nc.floor_pow_array(ns, e)
            idx = random.Random(7).sample(range(len(ns)), 80)
            for i in idx:
                assert arr[i] == nc.floor_pow(int(ns[i]), e)

    def test_array_floor_beyond_int64_rejected_up_front(self):
        # (2^53 - 4097)^1.5 is about 2^79.5; no cast warning may come first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (2 ** 53 - 4097, 2 ** 42):  # 2^42 gives exactly 2^63
                with pytest.raises(ValueError, match="int64"):
                    nc.floor_pow_array(np.array([1, n]), 1.5)
            # (2^42 - 1)^1.5 lies just below 2^63 and is still accepted
            top = 2 ** 42 - 1
            assert nc.floor_pow_array(np.array([top]), 1.5)[0] == nc.floor_pow(top, 1.5)


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
        got = nc.floor_pow_array(np.array(ns, dtype=np.int64), e)
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
        got = pspseq._ps_member_at(np.array(ms, dtype=np.int64), g)
        assert got.tolist() == [oracle_member(m, gamma) for m in ms]


class TestPsi:
    def test_examples(self):
        assert nc.psi(0.25) == -0.25
        assert nc.psi(7.0) == -0.5
        assert nc.psi(0.9) == pytest.approx(0.4, abs=1e-15)

    def test_range(self):
        rng = random.Random(3)
        for _ in range(2000):
            t = rng.uniform(-1e6, 1e6)
            v = nc.psi(t)
            assert -0.5 <= v < 0.5

    def test_period_one_exact(self):
        rng = random.Random(4)
        for _ in range(2000):
            t = rng.uniform(-1e3, 1e3)
            assert nc.psi(t + 1.0) == nc.psi(t)


class TestUnitExp:
    def test_examples(self):
        assert nc.unit_exp(0.0) == 1.0 + 0.0j
        assert abs(nc.unit_exp(0.5) + 1.0) < 1e-15
        assert abs(nc.unit_exp(0.25) - 1j) < 1e-15

    def test_modulus_one(self):
        rng = random.Random(5)
        for _ in range(2000):
            t = rng.uniform(-1e7, 1e7)
            assert abs(abs(nc.unit_exp(t)) - 1.0) <= 1e-14

    def test_inverse_product(self):
        rng = random.Random(6)
        for _ in range(2000):
            t = rng.uniform(-1e5, 1e5)
            assert abs(nc.unit_exp(t) * nc.unit_exp(-t) - 1.0) <= 1e-13


class TestGamma:
    def test_trivial_values(self):
        assert nc.gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)
        assert nc.gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        # frozen from a 50-digit series oracle
        assert nc.gamma_fn(0.95) == pytest.approx(1.0314533171290322, rel=1e-12)

    def test_grid_against_libm(self):
        for s in np.linspace(0.05, 20.0, 400):
            assert nc.gamma_fn(float(s)) == pytest.approx(math.gamma(s), rel=1e-12)

    def test_rejections(self):
        for bad in (0.0, -1.0, -0.5):
            with pytest.raises(ValueError):
                nc.gamma_fn(bad)


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


_MIN = nc._FSUM_MIN


class TestFsumArrayEdges:
    """fsum_array against math.fsum where the binning must step aside or be exact."""

    @pytest.mark.parametrize(
        "special",
        [[math.nan], [math.inf], [-math.inf], [math.inf, -math.inf], [math.inf, math.nan],
         [1e308, 1e308, -1e308], [2.0 ** 996], [-(2.0 ** 996)], [2.0 ** 1000, -(2.0 ** 1000)]],
    )
    @pytest.mark.parametrize("n", [0, _MIN - 4, _MIN + 1, 3 * _CHUNK + 5])
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

    @pytest.mark.parametrize("n", [_MIN - 1, _MIN, 2 * _CHUNK + 3])
    def test_zero_and_signed_zero_sums_are_plus_zero(self, n):
        rng = np.random.default_rng(n)
        mixed = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        x = rng.standard_normal(n)
        for a in (np.zeros(n), np.full(n, -0.0), mixed, np.concatenate([x, -x[::-1]])):
            assert fsum_outcome(nc.fsum_array, a) == fsum_outcome(math.fsum, a) == (0.0, 1.0)

    @pytest.mark.parametrize("n", [_MIN + 1, 3 * _CHUNK + 5])
    def test_subnormal_only(self, n):
        rng = np.random.default_rng(n)
        a = rng.integers(-(2 ** 52), 2 ** 52, n) * 5e-324  # exact multiples of 2^-1074
        a[::7] = 2.0 ** -1022 - 5e-324  # the largest subnormal
        assert np.all(np.abs(a) < 2.0 ** -1022)
        assert fsum_outcome(nc.fsum_array, a) == fsum_outcome(math.fsum, a)

    @pytest.mark.parametrize("n", [_MIN - 2, _MIN - 1, _MIN, _MIN + 1])
    def test_sizes_around_the_crossover(self, n):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
            assert fsum_outcome(nc.fsum_array, a) == fsum_outcome(math.fsum, a)

    def test_finite_arrays_are_binned_without_fsum(self, monkeypatch):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(3 * _CHUNK) * 10.0 ** rng.integers(-300, 300, 3 * _CHUNK)
        want = math.fsum(a)

        def no_fsum(_):
            raise AssertionError("math.fsum reached")

        monkeypatch.setattr(math, "fsum", no_fsum)
        assert nc.fsum_array(a) == want

    def test_term_cap_falls_back_to_fsum(self, monkeypatch):
        # arrays of 2^26 entries or more would overflow the exact bins; the
        # cap is lowered here instead of allocating such an array
        a = np.zeros(3 * _CHUNK)
        a[_CHUNK - 2 : _CHUNK + 1] = [1e16, 1.0, -1e16]
        calls = []
        chunked = nc._fsum_chunked
        monkeypatch.setattr(nc, "_FSUM_MAX", a.size)
        monkeypatch.setattr(nc, "_fsum_chunked", lambda arr: calls.append(arr.size) or chunked(arr))
        assert nc.fsum_array(a) == math.fsum(a) == 1.0
        assert nc.fsum_array(a[:-1]) == 1.0  # one entry below the cap: binned
        assert calls == [a.size]


def stream_case(n, cuts, seed, spikes):
    """An array of n mixed-sign entries over 600 decades with spikes, cut into blocks."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n) * 10.0 ** rng.integers(-310, 290, n)
    for i, v in spikes:
        if i < n:
            a[i] = v
    edges = [0, *sorted(min(c, n) for c in cuts), n]
    return a, [a[lo:hi] for lo, hi in zip(edges, edges[1:])]


class TestFsumStream:
    """The streamed sum against math.fsum of the concatenated blocks."""

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
        got = nc._fsum_stream(iter(blocks))
        want = math.fsum(a)
        assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want))

    def test_empty_stream_is_zero(self):
        for blocks in ([], [np.zeros(0)] * 3):
            got = nc._fsum_stream(iter(blocks))
            assert (got, math.copysign(1.0, got)) == (0.0, 1.0)

    def test_short_stream_goes_to_fsum(self, monkeypatch):
        # below _FSUM_MIN entries the precondition is not needed: fsum decides
        blocks = [np.array([math.inf, 1.0]), np.zeros(_MIN - 3)]
        assert nc._fsum_stream(iter(blocks)) == math.inf
        monkeypatch.setattr(math, "fsum", lambda _: "fsum")
        assert nc._fsum_stream(iter([np.ones(_MIN - 1)])) == "fsum"
        assert nc._fsum_stream(iter([np.ones(_MIN)])) == _MIN

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 2.0 ** 996, -(2.0 ** 996)])
    def test_precondition_is_checked(self, bad):
        a = np.ones(2 * _CHUNK)
        a[_CHUNK + 3] = bad
        with pytest.raises(ValueError, match="below 2\\^996"):
            nc._fsum_stream(iter([a[:10], a[10:]]))
        a[_CHUNK + 3] = np.nextafter(2.0 ** 996, 0.0) * math.copysign(1.0, bad)
        assert nc._fsum_stream(iter([a[:10], a[10:]])) == math.fsum(a)

    @settings(max_examples=20, deadline=None)
    @given(
        cuts=st.lists(st.integers(0, 9 * _CHUNK), max_size=30),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_bins_fold_before_the_term_cap(self, cuts, seed):
        # a stream of more than 2^26 entries is folded into the exact int; the
        # cap is lowered here so that nine chunks fold several times
        spikes = [(_CHUNK - 1, 1e16), (4 * _CHUNK, 1.0), (8 * _CHUNK + 2, -1e16)]
        a, blocks = stream_case(9 * _CHUNK, cuts, seed, spikes)
        folds = []
        fold = nc._fold
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nc, "_FSUM_MAX", 2 * _CHUNK + 1)
            mp.setattr(nc, "_fold", lambda bins: folds.append(1) or fold(bins))
            assert nc._fsum_stream(iter(blocks)) == math.fsum(a)
            # at most two chunks, with fewer entries than the cap, per fold
            assert len(folds) >= 5
            a[:] = 0.0  # the blocks are views of a
            a[[_CHUNK - 1, 4 * _CHUNK, 8 * _CHUNK + 2]] = [1e16, 1.0, -1e16]
            # per-fold rounding would give 0.0
            assert nc._fsum_stream(iter(blocks)) == 1.0


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
