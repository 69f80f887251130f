import math
import random
import tracemalloc

import numpy as np
import pytest

from psprimes import sieve as sv


def is_prime(n):
    return n >= 2 and all(n % p for p in range(2, math.isqrt(n) + 1))


def trial_division_primes(n):
    return [m for m in range(2, n + 1) if is_prime(m)]


def eratosthenes(n):
    """Primality of 0..n by one whole-array sieve: an oracle free of segments."""
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask


def factorise(n):
    """{p: k} for n >= 1 by trial division."""
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def trial_mobius(n):
    exps = factorise(n).values()
    return 0 if any(k > 1 for k in exps) else (-1) ** len(exps)


def trial_von_mangoldt(n):
    f = factorise(n)
    return math.log(next(iter(f))) if len(f) == 1 else 0.0


class TestBuildTable:
    def test_small_primes(self, table):
        assert list(table.primes(10)) == [2, 3, 5, 7]

    def test_prime_counts(self, table):
        assert len(table.primes(100)) == 25
        assert list(table.primes(100)) == trial_division_primes(100)
        assert len(table.primes(10 ** 6)) == 78498

    def test_primality_matches_eratosthenes(self, table):
        ps = table.primes(table.limit)
        assert ps.dtype == np.int64
        assert np.array_equal(ps, np.flatnonzero(eratosthenes(table.limit)))

    def test_segmentation_is_invisible(self, table):
        # both sides of every segment edge, by trial division
        assert table.limit >= 2 * sv._SEGMENT
        ps = table.primes(table.limit)
        for edge in range(0, table.limit + 1, sv._SEGMENT):
            lo, hi = max(edge - 40, 0), min(edge + 40, table.limit + 1)
            want = [n for n in range(lo, hi) if is_prime(n)]
            assert list(ps[(ps >= lo) & (ps < hi)]) == want
            assert list(table.primes(hi - 1)[-len(want):]) == want

    def test_rejections(self):
        with pytest.raises(ValueError):
            sv.shared_table(1)
        with pytest.raises(ValueError):
            sv.shared_table((1 << 34) + 1)


class TestSharedTable:
    @pytest.fixture
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(sv, "_table", None)

    @pytest.mark.parametrize("n", [2, 3000, 10 ** 7, sv.TABLE_LIMIT])
    def test_exact_size(self, empty_cache, n):
        table = sv.shared_table(n)
        want = np.flatnonzero(eratosthenes(n))
        assert table.limit == n and np.array_equal(table.prime_list, want)
        assert table.prime_list.dtype == np.int64 and not table.prime_list.flags.writeable

    def test_smaller_request_hits_larger_replaces(self, empty_cache):
        first = sv.shared_table(5000)
        assert sv.shared_table(5000) is first
        assert sv.shared_table(100) is first
        second = sv.shared_table(5001)
        assert second is not first and second.limit == 5001
        assert sv.shared_table(5000) is second

    def test_beyond_cap_rejected_before_allocating(self, empty_cache, monkeypatch):
        calls = []
        monkeypatch.setattr(sv, "prime_stream", lambda limit: calls.append(limit))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"\[2, 2\^24\]"):
                sv.shared_table(sv.TABLE_LIMIT + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == [] and sv._table is None
        assert peak < 1 << 20


def stream(x, q=1, a=0):
    return list(sv.prime_stream(x, q, a))


def joined(blocks):
    return np.concatenate([np.empty(0, dtype=np.int64), *blocks])


def oracle_progression(x, q, a):
    ps = np.flatnonzero(eratosthenes(x))
    return ps[ps % q == a % q]


class TestPrimalitySegments:
    """prime_stream: the blocks, the cache they read and the limit check."""

    @pytest.mark.parametrize(
        "limit",
        [2, 3000]
        + [k * sv._SEGMENT + d for k in (1, 2) for d in (-1, 0, 1)],
    )
    def test_segments_tile_the_table(self, monkeypatch, limit):
        # both paths, whatever ran before: sieved with an empty cache, and
        # read from a warm table at limit or above it
        want = np.flatnonzero(eratosthenes(limit))
        for cached in (None, limit, limit + 7):
            monkeypatch.setattr(sv, "_table", None)
            table = cached and sv.shared_table(cached)
            blocks = [b for b in stream(limit) if b.size]
            assert np.array_equal(np.concatenate(blocks), want)
            # each block lies in one segment, and the blocks ascend
            assert all(b[0] // sv._SEGMENT == b[-1] // sv._SEGMENT for b in blocks)
            for b in blocks:
                assert b.dtype == np.int64
                assert b.flags.writeable == (cached is None)
                assert cached is None or np.shares_memory(b, table.prime_list)
            assert sv._table is table

    def test_segments_from_the_table_are_read_only(self, monkeypatch):
        monkeypatch.setattr(sv, "_table", None)
        table = sv.shared_table(3000)
        views = [table.primes(3000), table.primes(5), table.prime_list, *stream(3000)]
        for view in views:
            assert np.shares_memory(view, table.prime_list)
            with pytest.raises(ValueError, match="read-only"):
                view[1] = 4
        assert list(table.primes(12)) == [2, 3, 5, 7, 11]

    def test_smaller_table_is_neither_read_nor_grown(self, monkeypatch):
        monkeypatch.setattr(sv, "_table", None)
        table = sv.shared_table(3000)
        for q, a in ((1, 0), (7, 3)):
            blocks = stream(3001, q, a)
            assert not any(np.shares_memory(b, table.prime_list) for b in blocks)
            assert np.array_equal(joined(blocks), oracle_progression(3001, q, a))
        assert sv._table is table and table.limit == 3000

    def test_rejected_on_call(self, monkeypatch):
        # with an empty cache and with a warm one that could answer from its list
        for cached in (None, 3000):
            monkeypatch.setattr(sv, "_table", cached and sv.shared_table(cached))
            for limit in (1, 0, (1 << 34) + 1):
                with pytest.raises(ValueError, match=r"\[2, 2\^34\]"):
                    sv.prime_stream(limit, 3, 2)


class TestPrimeStream:
    """The primes p <= x with p = a (mod q), against a whole-array sieve."""

    EDGE_CASES = [
        (2, 1, 0), (3, 1, 0), (2, 3, 2), (3, 4, 3), (2, 2, 0), (3, 4, 2),
        (1000, 6, 4), (1000, 10, 12), (1000, 7, -5), (1000, 9973, 2),
        (sv._SEGMENT - 1, 5, 2), (sv._SEGMENT, 6, 1), (sv._SEGMENT + 1, 4, 3),
        (2 * sv._SEGMENT + 1, 3, 2), (2 * sv._SEGMENT + 3, 2, 1),
    ]

    @pytest.mark.parametrize("x, q, a", EDGE_CASES)
    def test_edge_cases_cold_and_warm(self, monkeypatch, x, q, a):
        # a warm stream neither sieves nor writes into the cached list
        want = oracle_progression(x, q, a)
        small_primes = sv._small_primes

        def no_sieve(n):
            raise AssertionError("a warm stream sieved")

        for cached in (None, x, x + 5):
            monkeypatch.setattr(sv, "_table", None)
            monkeypatch.setattr(sv, "_small_primes", small_primes)
            table = cached and sv.shared_table(cached)
            if cached:
                before = table.prime_list.copy()
                monkeypatch.setattr(sv, "_small_primes", no_sieve)
            assert np.array_equal(joined(stream(x, q, a)), want)
            assert sv._table is table
            assert not cached or np.array_equal(table.prime_list, before)

    def test_random_progressions_cold_and_warm(self, monkeypatch):
        rng = random.Random(20260)
        top = 2 * sv._SEGMENT + 777
        ps = np.flatnonzero(eratosthenes(top))
        cases = [
            (rng.choice([rng.randrange(2, 5000), rng.randrange(2, top + 1)]),
             rng.choice([1, 2, rng.randrange(1, 60), rng.randrange(1, 10 ** 4)]),
             rng.randrange(-10 ** 4, 10 ** 4))
            for _ in range(120)
        ]
        for warm in (False, True):
            monkeypatch.setattr(sv, "_table", sv.shared_table(top) if warm else None)
            for x, q, a in cases:
                want = ps[(ps <= x) & (ps % q == a % q)]
                got = joined(stream(x, q, a))
                assert np.array_equal(got, want), (warm, x, q, a)

    def test_warm_residue_filter_at_the_table_cap(self, monkeypatch):
        # the filter of the cached list against int64 b % q, block for block,
        # with primes up to 2^24, where n*c comes nearest to wrapping
        monkeypatch.setattr(sv, "_table", None)
        sv.shared_table(sv.TABLE_LIMIT)
        rng = random.Random(24)
        x = sv.TABLE_LIMIT - rng.randrange(100)
        whole = list(sv.prime_stream(x))
        for q in [*range(1, 31), 9973, 10 ** 4]:
            a = rng.randrange(-(10 ** 5), 10 ** 5)
            got = list(sv.prime_stream(x, q, a))
            assert len(got) == len(whole)
            for b, w in zip(got, whole):
                assert b.dtype == np.int64 and np.array_equal(b, w[w % q == a % q]), (q, a)

    @pytest.mark.parametrize("q", [2 ** 31 - 1, 2 ** 31 + 11, 3 ** 30, 10 ** 12 + 39])
    def test_moduli_beyond_the_filter(self, monkeypatch, q):
        # with the table warm the filter takes q < 2^31, and a larger q sieves
        monkeypatch.setattr(sv, "_table", None)
        sv.shared_table(5000)
        for a, want in ((997, [997]), (998, []), (q + 997, [997]), (-q + 3, [3])):
            assert joined(stream(1000, q, a)).tolist() == want



class TestArithmeticFunctions:
    def test_von_mangoldt_examples(self):
        lam = sv.lambda_array(97)
        assert lam[8] == pytest.approx(math.log(2))
        assert lam[6] == 0.0 and lam[1] == 0.0
        assert lam[97] == pytest.approx(math.log(97))

    def test_mobius_examples(self):
        mu = sv.mobius_array(30)
        assert [mu[n] for n in (0, 1, 4, 6, 30)] == [0, 1, 0, 1, -1]

    def test_bulk_arrays_match_queries(self):
        lam = sv.lambda_array(3000)
        mu = sv.mobius_array(3000)
        for n in range(1, 3001):
            assert mu[n] == trial_mobius(n)
            if n >= 2:
                assert lam[n] == pytest.approx(trial_von_mangoldt(n), abs=1e-12)

    def test_results_are_fresh_arrays(self, table):
        # writing into one result must not leak into the next call's
        for bulk in (sv.lambda_array, sv.mobius_array):
            first = bulk(table.limit)
            want = first.copy()
            first[:] = 7
            assert np.array_equal(bulk(table.limit), want)

    def test_query_beyond_limit_rejected(self, table):
        with pytest.raises(ValueError, match="exceeds sieve limit"):
            table.primes(table.limit + 1)

    @pytest.mark.parametrize("p", [53, 1999])
    @pytest.mark.parametrize("d", [-1, 0, 1])
    def test_mobius_at_square_of_a_prime(self, p, d):
        # at hi = p^2 - 1 the base primes stop below p; at p^2 they include it
        hi = p * p + d
        mu = sv.mobius_array(hi)
        assert mu.size == hi + 1 and mu[0] == 0
        window = range(1, hi + 1) if p < 100 else range(hi - 300, hi + 1)
        assert all(mu[n] == trial_mobius(n) for n in window)
        assert all(mu[k * p] == trial_mobius(k * p) for k in range(1, hi // p + 1, 37))

    def test_chebyshev_psi_sanity(self):
        lam = sv.lambda_array(10 ** 7)
        ratio = float(lam.sum()) / 1e7
        assert 0.996 <= ratio <= 1.004

    def test_mertens_sanity(self):
        mu = sv.mobius_array(10 ** 7)
        cum = np.cumsum(mu.astype(np.int64))
        for x in (10 ** 5, 10 ** 6, 10 ** 7):
            assert abs(int(cum[x])) <= x ** 0.6


def old_lambda_array(hi):
    """Lambda on [0, hi] as it was first written: np.log at primes, math.log at powers."""
    ps = np.array(trial_division_primes(hi), dtype=np.int64)
    lam = np.zeros(hi + 1)
    lam[ps] = np.log(ps)
    for p in ps[ps <= math.isqrt(hi)].tolist():
        pk = p * p
        while pk <= hi:
            lam[pk] = math.log(p)
            pk *= p
    return lam


class TestPrimePowers:
    """_prime_powers(lo, hi) is the nonzero part of lambda_array(hi) on (lo, hi], bit for bit."""

    @staticmethod
    def check(lo, hi, lam):
        ns, w = sv._prime_powers(lo, hi)
        want = np.flatnonzero(lam[lo + 1 : hi + 1]) + lo + 1
        assert ns.dtype == np.int64 and w.dtype == np.float64
        assert np.array_equal(ns, want), (lo, hi)
        assert w.tobytes() == lam[want].tobytes(), (lo, hi)

    def test_lambda_array_bits(self):
        for hi in (2, 3, 4, 100, 30000):
            assert sv.lambda_array(hi).tobytes() == old_lambda_array(hi).tobytes()

    @pytest.mark.parametrize("pk", [4, 8, 9, 97, 961, 1024, 2187, 3125, 65536])
    def test_bounds_at_prime_powers(self, pk):
        hi_max = 70000
        lam = sv.lambda_array(hi_max)
        edges = [pk - 1, pk, pk + 1]
        for lo in edges + [0]:
            for hi in edges + [hi_max]:
                if 2 <= hi and lo <= hi:
                    self.check(lo, hi, sv.lambda_array(hi))
        assert lam[pk] > 0

    def test_random_pairs(self):
        rng = np.random.default_rng(25)
        lam = sv.lambda_array(2 ** 20)
        for _ in range(100):
            lo, hi = sorted(int(v) for v in rng.integers(0, 2 ** 20, 2))
            hi = max(hi, 2)
            self.check(lo, hi, lam)
        assert sv._prime_powers(1000, 1000)[0].size == 0
