"""Segmented prime sieves: a streaming one and a cached prime list built from it.

This module alone knows how primes are stored. ``prime_stream`` yields the
primes p <= x with p = a (mod q), block by block: it slices the cached list
when that covers x, and otherwise sieves the odd integers of one segment at
a time, holding one byte per odd integer of a segment and the base primes
<= sqrt(x), and reads back only those in the progression; the prime counts
stream over it.
``shared_table`` concatenates that stream once into one cached, read-only,
sorted int64 array of the primes <= limit <= TABLE_LIMIT, for code that
needs random access: the Goldbach prime masks, the singular series and the
Lambda arrays and prime lists of the exponential-sum code. ``mobius_array``
needs only the base primes. Segmented sieving follows Bays and Hudson
(BIT 17, 1977).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

MAX_LIMIT = 1 << 34
# Largest shared_table limit (1,077,871 primes, 8.6 MB, ~0.04 s): covers
# Goldbach and the singular series (10^6), hb verify (2x <= 2^23) and the
# 10^7 tables of library sessions.
TABLE_LIMIT = 1 << 24
_SEGMENT = 1 << 20  # integers per sieved segment (even, so each starts at an even lo)


@dataclass(frozen=True)
class SieveTable:
    """The primes <= limit as one sorted, read-only int64 array."""

    limit: int
    prime_list: np.ndarray

    def primes(self, hi: int) -> np.ndarray:
        """Read-only view of the primes <= hi, found by binary search."""
        if hi > self.limit:
            raise ValueError(f"query {hi} exceeds sieve limit {self.limit}")
        return self.prime_list[: np.searchsorted(self.prime_list, hi, side="right")]


def prime_stream(x: int, q: int = 1, a: int = 0) -> Iterator[np.ndarray]:
    """The primes p <= x with p = a (mod q) in increasing order, as int64 blocks.

    Each block holds the primes of one segment [k*_SEGMENT, (k+1)*_SEGMENT)
    of [0, x] (the prime 2 may come as a block of its own). When the cached
    shared_table covers x, the blocks are read-only views of it for q = 1 and
    filtered copies otherwise; else the odd integers of each segment are
    sieved fresh, those = a (mod q) are read at stride lcm(2, q), and only the
    base primes <= sqrt(x) persist between segments. Either way no table is
    built or grown. x is checked on the call, before any block exists.
    """
    if not 2 <= x <= MAX_LIMIT:
        raise ValueError(f"sieve limit must lie in [2, 2^34], got {x}")
    if _table is not None and _table.limit >= x:
        ps = _table.primes(x)
        blocks = np.split(ps, np.searchsorted(ps, np.arange(_SEGMENT, x + 1, _SEGMENT)))
        return iter(blocks) if q == 1 else (b[b % q == a % q] for b in blocks)
    return _sieved(x, q, a % q)


def _sieved(x: int, q: int, a: int) -> Iterator[np.ndarray]:
    """prime_stream's blocks for 0 <= a < q, sieved segment by segment."""
    if (2 - a) % q == 0:
        yield np.array([2], dtype=np.int64)
    step = q if q % 2 == 0 else 2 * q  # lcm(2, q): the odd m = a (mod q) are r mod step
    r = a if a % 2 else a + q
    if r % 2 == 0:  # q and a both even: no odd prime qualifies
        return
    base = _small_primes(math.isqrt(x))[1:]
    for lo in range(0, x + 1, _SEGMENT):
        odd = np.ones((min(lo + _SEGMENT, x + 1) - lo) // 2, dtype=bool)  # lo + 1 + 2i
        if lo == 0:
            odd[0] = False  # 1 is no prime
        for p in base:  # strike the odd multiples of p from max(p^2, lo) on
            m = max(p * p, -(-lo // p) * p)
            odd[(m + p * (m % 2 == 0) - lo) // 2 :: p] = False
        first = (r - lo) % step  # odd, so lo + first sits at index first // 2
        ps = np.flatnonzero(odd[first // 2 :: step // 2])
        ps *= step
        ps += lo + first
        yield ps


def _small_primes(n: int) -> list[int]:
    """The primes <= n as Python ints, from the segmented sieve."""
    if n < 2:
        return []
    return np.concatenate(list(_sieved(n, 1, 0))).tolist()


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
    """Process-wide list of the primes <= limit or beyond, in one cached slot.

    A request at or below the cached limit returns the cached table; a larger
    one concatenates prime_stream(limit) into a new exact table and replaces
    it. Limits outside [2, TABLE_LIMIT] raise ValueError before anything is
    allocated.
    """
    global _table
    if not 2 <= limit <= TABLE_LIMIT:
        raise ValueError(f"sieve table limit must lie in [2, 2^24], got {limit}")
    if _table is None or _table.limit < limit:
        ps = np.concatenate(list(prime_stream(limit)))
        ps.flags.writeable = False
        _table = SieveTable(limit=limit, prime_list=ps)
    return _table
