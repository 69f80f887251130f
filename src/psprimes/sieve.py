"""Segmented sieves: a least-prime-factor table and a streaming primality sieve.

The table stores the smallest prime factor of every n <= limit, which is
enough to answer primality, mu(n) and Lambda(n) queries by repeated
division. Bulk Lambda/mu arrays are built lazily for the exponential-sum
code, which needs them over full dyadic ranges. Code that only needs
primality walks ``primality_segments`` instead, holding one segment and the
base primes <= sqrt(limit) at a time.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .numeric import fsum_array

MAX_LIMIT = 1 << 34
_SEGMENT = 1 << 20  # entries per segment, sized for cache locality


@dataclass
class SieveTable:
    limit: int
    least_prime_factor: np.ndarray
    primality: np.ndarray
    _lambda_cache: np.ndarray | None = field(default=None, repr=False)
    _mobius_cache: np.ndarray | None = field(default=None, repr=False)

    def primes(self, hi: int | None = None, lo: int = 2) -> np.ndarray:
        hi = self.limit if hi is None else hi
        if hi > self.limit:
            raise ValueError(f"query {hi} exceeds sieve limit {self.limit}")
        return np.nonzero(self.primality[lo : hi + 1])[0] + lo


def _check_limit(limit: int) -> None:
    if not 2 <= limit <= MAX_LIMIT:
        raise ValueError(f"sieve limit must lie in [2, 2^34], got {limit}")


def build_table(limit: int) -> SieveTable:
    """Sieve least prime factors up to limit (2 <= limit <= 2^34), segment by segment."""
    _check_limit(limit)
    dtype = np.int32 if limit < 2 ** 31 else np.int64
    lpf = np.zeros(limit + 1, dtype=dtype)
    root = math.isqrt(limit)
    base = _small_primes(root)
    for lo in range(2, limit + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, limit + 1)
        seg = lpf[lo:hi]
        for p in base:
            start = max(p, -(-lo // p) * p)
            if start >= hi:
                continue
            sl = seg[start - lo :: p]
            sl[sl == 0] = p  # ascending p: first writer is the smallest factor
        rest = np.nonzero(seg == 0)[0]
        seg[rest] = (rest + lo).astype(dtype)
    primality = lpf == np.arange(limit + 1, dtype=dtype)
    primality[:2] = False
    return SieveTable(limit=limit, least_prime_factor=lpf, primality=primality)


def primality_segments(limit: int) -> Iterator[tuple[int, np.ndarray]]:
    """Primality of 0..limit one segment at a time, as (lo, is_prime[lo:hi]) pairs.

    Segments are [k*_SEGMENT, (k+1)*_SEGMENT) clipped to limit, in increasing
    order; each array is fresh and owned by the caller. Only the base primes
    <= sqrt(limit) persist between segments. The limit is checked on the
    call, before the first segment is sieved.
    """
    _check_limit(limit)
    base = _small_primes(math.isqrt(limit))

    def segments():
        for lo in range(0, limit + 1, _SEGMENT):
            hi = min(lo + _SEGMENT, limit + 1)
            seg = np.ones(hi - lo, dtype=bool)
            seg[: max(2 - lo, 0)] = False
            for p in base:
                seg[max(p * p, -(-lo // p) * p) - lo :: p] = False
            yield lo, seg

    return segments()


def _small_primes(n: int) -> list[int]:
    if n < 2:
        return []
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return [int(p) for p in np.nonzero(mask)[0]]


def von_mangoldt(table: SieveTable, n: int) -> float:
    """Lambda(n): log p if n is a prime power p^k, else 0."""
    if not 2 <= n <= table.limit:
        raise ValueError(f"n={n} outside table range [2, {table.limit}]")
    p = int(table.least_prime_factor[n])
    m = n
    while m % p == 0:
        m //= p
    return math.log(p) if m == 1 else 0.0


def mobius(table: SieveTable, n: int) -> int:
    """mu(n) in {-1, 0, 1} by least-prime-factor factorisation."""
    if not 1 <= n <= table.limit:
        raise ValueError(f"n={n} outside table range [1, {table.limit}]")
    count = 0
    m = n
    while m > 1:
        p = int(table.least_prime_factor[m])
        m //= p
        if m % p == 0:
            return 0
        count += 1
    return -1 if count % 2 else 1


def lambda_array(table: SieveTable, hi: int | None = None) -> np.ndarray:
    """Lambda(n) for all n <= hi as a float64 array (index 0 unused)."""
    hi = table.limit if hi is None else hi
    if hi > table.limit:
        raise ValueError(f"query {hi} exceeds sieve limit {table.limit}")
    if table._lambda_cache is not None and table._lambda_cache.size > hi:
        return table._lambda_cache[: hi + 1]
    lam = np.zeros(hi + 1, dtype=np.float64)
    ps = table.primes(hi)
    lam[ps] = np.log(ps)
    for p in ps[ps <= math.isqrt(hi)]:
        p = int(p)
        pk = p * p
        while pk <= hi:
            lam[pk] = math.log(p)
            pk *= p
    if hi == table.limit:
        table._lambda_cache = lam
    return lam


def mobius_array(table: SieveTable, hi: int | None = None) -> np.ndarray:
    """mu(n) for all n <= hi as an int8 array (index 0 set to 0)."""
    hi = table.limit if hi is None else hi
    if hi > table.limit:
        raise ValueError(f"query {hi} exceeds sieve limit {table.limit}")
    if table._mobius_cache is not None and table._mobius_cache.size > hi:
        return table._mobius_cache[: hi + 1]
    mu = np.ones(hi + 1, dtype=np.int8)
    acc = np.ones(hi + 1, dtype=np.int64)
    for p in table.primes(math.isqrt(hi)):
        p = int(p)
        mu[p::p] *= -1
        acc[p::p] *= p
        mu[p * p :: p * p] = 0
    # entries whose tracked product misses n carry one extra prime > sqrt(hi)
    extra = acc < np.arange(hi + 1, dtype=np.int64)
    mu[extra & (mu != 0)] *= -1
    mu[0] = 0
    if hi == table.limit:
        table._mobius_cache = mu
    return mu


def prime_sum_ap(table: SieveTable, x: int, q: int, a: int, weight) -> complex:
    """Sum of weight(p) over primes p <= x with p = a (mod q).

    Primes are visited in increasing order; the reduction is exactly rounded,
    so the result is deterministic. gcd(a, q) > 1 is allowed and simply picks
    up the finitely many exceptional primes.
    """
    if x > table.limit:
        raise ValueError(f"x={x} exceeds sieve limit {table.limit}")
    if q < 1 or not 0 <= a < q:
        raise ValueError(f"need q >= 1 and 0 <= a < q, got q={q}, a={a}")
    ps = table.primes(x)
    if q > 1:
        ps = ps[ps % q == a]
    if ps.size == 0:
        return 0.0 + 0.0j
    try:
        vals = np.asarray(weight(ps), dtype=np.complex128)
        if vals.shape != ps.shape:
            raise TypeError
    except Exception:
        vals = np.array([complex(weight(int(p))) for p in ps], dtype=np.complex128)
    return complex(fsum_array(vals.real), fsum_array(vals.imag))


_table_cache: dict[int, SieveTable] = {}


def shared_table(limit: int) -> SieveTable:
    """Process-wide table cache; rounds the limit up so nearby requests share."""
    _check_limit(limit)
    for cap, table in _table_cache.items():
        if cap >= limit:
            return table
    cap = max(1 << max(limit - 1, 1).bit_length(), 1 << 16)
    table = build_table(cap)
    _table_cache.clear()  # keep only the largest; older tables are subsumed
    _table_cache[cap] = table
    return table


def _ensure_table(limit: int, table: SieveTable | None) -> SieveTable:
    """``table``, checked to reach limit; the shared table when it is None."""
    if table is None:
        return shared_table(limit)
    if limit > table.limit:
        raise ValueError(f"need sieve limit >= {limit}, table has {table.limit}")
    return table
