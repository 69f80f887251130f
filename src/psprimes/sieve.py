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
prime lists of the exponential-sum code. ``_prime_powers`` reads it for the
prime powers of an interval with their Lambda, and ``lambda_array`` is those
of [1, hi] scattered into one array. ``mobius_array`` needs only the base
primes. Segmented sieving follows Bays and Hudson
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
    shared_table covers x and q < 2^31, the blocks are read-only views of it
    for q = 1 and copies filtered by ``_in_class`` otherwise; else the odd
    integers of each segment are sieved fresh, those = a (mod q) are read at
    stride lcm(2, q), and only the base primes <= sqrt(x) persist between
    segments. Either way no table is built or grown. x is checked on the
    call, before any block exists.
    """
    if not 2 <= x <= MAX_LIMIT:
        raise ValueError(f"sieve limit must lie in [2, 2^34], got {x}")
    if _table is not None and _table.limit >= x and q < 1 << 31:
        ps = _table.primes(x)
        blocks = np.split(ps, np.searchsorted(ps, np.arange(_SEGMENT, x + 1, _SEGMENT)))
        return iter(blocks) if q == 1 else (b.compress(_in_class(b, q, a)) for b in blocks)
    return _sieved(x, q, a % q)


def _in_class(b: np.ndarray, q: int, a: int) -> np.ndarray:
    """b = a (mod q), elementwise, for an int64 array 0 <= b <= 2^24 and 2 <= q < 2^31.

    n = b + (-a mod q) is divisible by q iff n*c mod 2^64 < c, c = ceil(2^64/q)
    (Lemire, Kaser and Kurz, "Faster remainder by direct computation", Softw.
    Pract. Exp. 49(6), 2019): with n = k*q + r and c*q = 2^64 + f, 0 <= f < q,
    n*c = k*f + r*c (mod 2^64). For r = 0, k*f <= n < c. For r >= 1,
    c <= k*f + r*c < n + (q - 1)*(2^64/q + 1) <= 2^64, as (n + q)*q < (2^24 +
    2^32)*2^31 < 2^64, so nothing wraps. The uint64 product wraps mod 2^64.
    """
    c = -(-(1 << 64) // q)
    n = (b + (-a % q)).view(np.uint64)
    n *= np.uint64(c)
    return n < c


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
    """Lambda(n) for all n <= hi as a float64 array (index 0 unused), from _prime_powers."""
    lam = np.zeros(hi + 1, dtype=np.float64)
    ns, w = _prime_powers(0, hi)
    lam[ns] = w
    return lam


def _prime_powers(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The prime powers n in (lo, hi], ascending, as int64, and Lambda(n) as float64.

    Lambda is np.log(p) at a prime p and math.log(p) at each higher power of
    p; only the primes <= hi are read, and no array of length hi is built.
    """
    ps = shared_table(hi).primes(hi)
    ns = ps[np.searchsorted(ps, lo, side="right") :]
    powers = []  # (p^k, log p) for k >= 2, the few powers up to hi
    for p in ps[ps <= math.isqrt(hi)].tolist():
        pk = p * p
        while pk <= hi:
            if pk > lo:
                powers.append((pk, math.log(p)))
            pk *= p
    powers.sort()
    at = np.searchsorted(ns, [pk for pk, _ in powers])
    lam = np.insert(np.log(ns), at, [w for _, w in powers])
    return np.insert(ns, at, [pk for pk, _ in powers]), lam


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
