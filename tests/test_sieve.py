import math
import random

import numpy as np
import pytest

from psprimes import sieve as sv


def trial_division_primes(n):
    out = []
    for m in range(2, n + 1):
        if all(m % p for p in range(2, int(math.isqrt(m)) + 1)):
            out.append(m)
    return out


def trial_least_factor(n):
    for p in range(2, n + 1):
        if n % p == 0:
            return p
    return n


class TestBuildTable:
    def test_small_primes(self, table):
        assert list(table.primes(10)) == [2, 3, 5, 7]

    def test_prime_counts(self, table):
        assert len(table.primes(100)) == 25
        assert list(table.primes(100)) == trial_division_primes(100)
        assert len(table.primes(10 ** 6)) == 78498

    def test_least_prime_factor_invariant(self, table):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randrange(2, 10 ** 6)
            lpf = int(table.least_prime_factor[n])
            assert n % lpf == 0
            assert lpf == trial_least_factor(n)
            assert bool(table.primality[n]) == (lpf == n)

    def test_segmentation_is_invisible(self):
        for limit in (sv._SEGMENT - 1, sv._SEGMENT + 1, 2 * sv._SEGMENT + 1):
            t = sv.build_table(limit)
            segs = np.concatenate([s for _, s in sv.primality_segments(limit)])
            assert np.array_equal(t.primality, segs)
            # least prime factors on both sides of every segment edge
            for edge in range(sv._SEGMENT, limit + 1, sv._SEGMENT):
                for n in range(edge - 40, min(edge + 40, limit + 1)):
                    lpf = next(
                        (p for p in range(2, math.isqrt(n) + 1) if n % p == 0), n
                    )
                    assert int(t.least_prime_factor[n]) == lpf

    def test_rejections(self):
        with pytest.raises(ValueError):
            sv.build_table(1)
        with pytest.raises(ValueError):
            sv.build_table((1 << 34) + 1)


class TestPrimalitySegments:
    @pytest.mark.parametrize(
        "limit",
        [2, 3000]
        + [k * sv._SEGMENT + d for k in (1, 2) for d in (-1, 0, 1)],
    )
    def test_segments_tile_the_table(self, table10m, limit):
        segs = list(sv.primality_segments(limit))
        assert [lo for lo, _ in segs] == list(range(0, limit + 1, sv._SEGMENT))
        assert np.array_equal(
            np.concatenate([s for _, s in segs]), table10m.primality[: limit + 1]
        )

    def test_rejected_on_call(self):
        for limit in (1, (1 << 34) + 1):
            with pytest.raises(ValueError, match=r"\[2, 2\^34\]"):
                sv.primality_segments(limit)


class TestArithmeticFunctions:
    def test_von_mangoldt_examples(self, table):
        assert sv.von_mangoldt(table, 8) == pytest.approx(math.log(2))
        assert sv.von_mangoldt(table, 6) == 0.0
        assert sv.von_mangoldt(table, 97) == pytest.approx(math.log(97))
        with pytest.raises(ValueError):
            sv.von_mangoldt(table, 1)

    def test_mobius_examples(self, table):
        assert sv.mobius(table, 1) == 1
        assert sv.mobius(table, 4) == 0
        assert sv.mobius(table, 6) == 1
        assert sv.mobius(table, 30) == -1
        with pytest.raises(ValueError):
            sv.mobius(table, 0)

    def test_bulk_arrays_match_queries(self, table):
        lam = sv.lambda_array(table, 3000)
        mu = sv.mobius_array(table, 3000)
        for n in range(1, 3001):
            assert mu[n] == sv.mobius(table, n)
            if n >= 2:
                assert lam[n] == pytest.approx(sv.von_mangoldt(table, n), abs=1e-12)

    def test_chebyshev_psi_sanity(self, table10m):
        lam = sv.lambda_array(table10m)
        ratio = float(lam.sum()) / 1e7
        assert 0.996 <= ratio <= 1.004

    def test_mertens_sanity(self, table10m):
        mu = sv.mobius_array(table10m)
        cum = np.cumsum(mu.astype(np.int64))
        for x in (10 ** 5, 10 ** 6, 10 ** 7):
            assert abs(int(cum[x])) <= x ** 0.6


class TestPrimeSumAp:
    def test_examples(self, table):
        one = lambda p: np.ones_like(p, dtype=np.float64)
        assert sv.prime_sum_ap(table, 10, 1, 0, one) == 4
        assert sv.prime_sum_ap(table, 100, 4, 1, one) == 11
        assert sv.prime_sum_ap(table, 10, 2, 0, one) == 1  # only p = 2

    def test_scalar_weight_fallback(self, table):
        val = sv.prime_sum_ap(table, 50, 3, 2, lambda p: 1j * p)
        primes = [p for p in trial_division_primes(50) if p % 3 == 2]
        assert val == pytest.approx(1j * sum(primes))

    def test_residue_partition_exact(self, table):
        one = lambda p: np.ones_like(p, dtype=np.float64)
        for q in (2, 3, 4, 5, 12):
            total = sum(
                sv.prime_sum_ap(table, 10 ** 5, q, a, one) for a in range(q)
            )
            assert total == sv.prime_sum_ap(table, 10 ** 5, 1, 0, one)

    def test_rejections(self, table):
        one = lambda p: np.ones_like(p, dtype=np.float64)
        with pytest.raises(ValueError):
            sv.prime_sum_ap(table, table.limit + 1, 1, 0, one)
        with pytest.raises(ValueError):
            sv.prime_sum_ap(table, 100, 4, 5, one)
