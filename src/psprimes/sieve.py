"""Segmented primality sieves: a streaming one and a cached table built from it.

``primality_segments`` walks 0..limit one segment at a time, holding one
segment and the base primes <= sqrt(limit); the prime counts stream over
it. ``shared_table`` fills one cached 1-byte primality array from those
segments for code that needs random access: the Goldbach prime masks, the
singular series and the bulk Lambda/mu arrays of the exponential-sum code,
all of which depend only on primality.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

MAX_LIMIT = 1 << 34
_SEGMENT = 1 << 20  # entries per segment, sized for cache locality


@dataclass
class SieveTable:
    limit: int
    primality: np.ndarray

    def primes(self, hi: int) -> np.ndarray:
        if hi > self.limit:
            raise ValueError(f"query {hi} exceeds sieve limit {self.limit}")
        return np.nonzero(self.primality[: hi + 1])[0]


def _check_limit(limit: int) -> None:
    if not 2 <= limit <= MAX_LIMIT:
        raise ValueError(f"sieve limit must lie in [2, 2^34], got {limit}")


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


def lambda_array(table: SieveTable, hi: int) -> np.ndarray:
    """Lambda(n) for all n <= hi as a float64 array (index 0 unused)."""
    ps = table.primes(hi)
    lam = np.zeros(hi + 1, dtype=np.float64)
    lam[ps] = np.log(ps)
    for p in ps[ps <= math.isqrt(hi)]:
        p = int(p)
        pk = p * p
        while pk <= hi:
            lam[pk] = math.log(p)
            pk *= p
    return lam


def mobius_array(table: SieveTable, hi: int) -> np.ndarray:
    """mu(n) for all n <= hi as an int8 array (index 0 set to 0)."""
    if hi > table.limit:
        raise ValueError(f"query {hi} exceeds sieve limit {table.limit}")
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
    return mu


_table_cache: dict[int, SieveTable] = {}


def shared_table(limit: int) -> SieveTable:
    """Process-wide primality table; rounds the limit up so nearby requests share."""
    _check_limit(limit)
    for cap, table in _table_cache.items():
        if cap >= limit:
            return table
    cap = max(1 << max(limit - 1, 1).bit_length(), 1 << 16)
    primality = np.empty(cap + 1, dtype=bool)
    for lo, seg in primality_segments(cap):
        primality[lo : lo + seg.size] = seg
    table = SieveTable(limit=cap, primality=primality)
    _table_cache.clear()  # keep only the largest; older tables are subsumed
    _table_cache[cap] = table
    return table
