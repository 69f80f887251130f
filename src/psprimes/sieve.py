"""Segmented primality sieves: a streaming one and a cached table built from it.

``primality_segments`` walks 0..limit one segment at a time, holding one
segment and the base primes <= sqrt(limit), or reading the cached table
when that covers limit; the prime counts stream over it. ``shared_table``
fills one cached 1-byte primality array of exactly 0..limit <= TABLE_LIMIT
from those segments for code that needs random access: the Goldbach prime
masks, the singular series and the Lambda arrays and prime lists of the
exponential-sum code. ``mobius_array`` needs only the base primes.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

MAX_LIMIT = 1 << 34
# Largest shared_table limit (16 MB, ~0.4 s): covers Goldbach and the singular
# series (10^6), hb verify (2x <= 2^23) and the 10^7 tables of library sessions.
TABLE_LIMIT = 1 << 24
_SEGMENT = 1 << 20  # entries per segment, sized for cache locality


@dataclass
class SieveTable:
    limit: int
    primality: np.ndarray

    def primes(self, hi: int) -> np.ndarray:
        if hi > self.limit:
            raise ValueError(f"query {hi} exceeds sieve limit {self.limit}")
        return np.nonzero(self.primality[: hi + 1])[0]


def primality_segments(limit: int) -> Iterator[tuple[int, np.ndarray]]:
    """Primality of 0..limit one segment at a time, as (lo, is_prime[lo:hi]) pairs.

    Segments are [k*_SEGMENT, (k+1)*_SEGMENT) clipped to limit, in increasing
    order. When the cached shared_table covers limit, they are read-only views
    of it; otherwise each is sieved fresh, owned by the caller, and only the
    base primes <= sqrt(limit) persist between segments. Either way no table
    is built or grown. The limit is checked on the call, before the first
    segment is sieved.
    """
    if not 2 <= limit <= MAX_LIMIT:
        raise ValueError(f"sieve limit must lie in [2, 2^34], got {limit}")
    if _table is not None and _table.limit >= limit:
        cached = _table.primality[: limit + 1]  # a new view: the table stays writeable
        cached.flags.writeable = False
        return ((lo, cached[lo : lo + _SEGMENT]) for lo in range(0, limit + 1, _SEGMENT))
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


def lambda_array(hi: int) -> np.ndarray:
    """Lambda(n) for all n <= hi as a float64 array (index 0 unused)."""
    ps = shared_table(hi).primes(hi)
    lam = np.zeros(hi + 1, dtype=np.float64)
    lam[ps] = np.log(ps)
    for p in ps[ps <= math.isqrt(hi)]:
        p = int(p)
        pk = p * p
        while pk <= hi:
            lam[pk] = math.log(p)
            pk *= p
    return lam


def mobius_array(hi: int) -> np.ndarray:
    """mu(n) for all n <= hi as an int8 array (index 0 set to 0)."""
    mu = np.ones(hi + 1, dtype=np.int8)
    acc = np.ones(hi + 1, dtype=np.int64)
    for p in _small_primes(math.isqrt(hi)):
        mu[p::p] *= -1
        acc[p::p] *= p
        mu[p * p :: p * p] = 0
    # entries whose tracked product misses n carry one extra prime > sqrt(hi)
    extra = acc < np.arange(hi + 1, dtype=np.int64)
    mu[extra & (mu != 0)] *= -1
    mu[0] = 0
    return mu


_table: SieveTable | None = None


def shared_table(limit: int) -> SieveTable:
    """Process-wide primality table of at least 0..limit, in one cached slot.

    A request at or below the cached limit returns the cached table; a larger
    one builds exactly 0..limit and replaces it. Limits outside
    [2, TABLE_LIMIT] raise ValueError before anything is allocated.
    """
    global _table
    if not 2 <= limit <= TABLE_LIMIT:
        raise ValueError(f"sieve table limit must lie in [2, 2^24], got {limit}")
    if _table is None or _table.limit < limit:
        primality = np.empty(limit + 1, dtype=bool)
        for lo, seg in primality_segments(limit):
            primality[lo : lo + seg.size] = seg
        _table = SieveTable(limit=limit, primality=primality)
    return _table
