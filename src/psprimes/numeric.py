"""Certified elementary evaluations that everything else builds on.

The central primitive is a *certified* floor of ``n**e``: the value is
evaluated in float64 with a rigorous error radius, and whenever the
enclosing interval straddles an integer the evaluation is escalated
through increasing mpmath precision until the floor is unambiguous.
Exact integer powers (e.g. ``4**1.5 == 8``) are detected by integer
root extraction, so escalation always terminates.

A floor that is off by one corrupts every downstream membership count,
which is why nothing here trusts a bare float comparison near an
integer boundary.

An exact sum is an expansion, a short list of floats with that exact sum
(Shewchuk, DCG 18, 1997): ``_exact_parts`` extracts one from an array (a
2-D one, one per row), callers concatenate those of their blocks, and
math.fsum rounds it once; ``fsum_array`` does both, ``_group_fsums`` per group.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

TWO_PI = 2.0 * math.pi

# Relative error radius attached to a float64 power: libm pow is good to a
# couple of ulps, 2^-47 leaves a margin of ~32 ulps.
_FLOAT_POW_REL = 2.0 ** -47

# Relative guard band for vectorised floors: anything whose fractional part
# comes within y*_ARRAY_GUARD_REL of 0 or 1 is re-decided by the scalar
# certified path. For n < 2^53 the float n is exact and y = n**e is trusted to
# the radius y*_FLOAT_POW_REL, as in the scalar path. For y >= 1, floor(y),
# frac = y - floor(y) and y*2^-46 are exact in float64, so the test
# frac <= tol is exact; only 1 - tol is rounded, by at most 2^-54 <= tol/2^8.
# An entry that passes both tests therefore lies more than
# (2 - 2^-7)*y*_FLOAT_POW_REL from every integer, beyond the radius, and its
# floor is certain. Twice the radius is the least power-of-two guard that
# absorbs that rounding.
_ARRAY_GUARD_REL = 2.0 * _FLOAT_POW_REL

_ESCALATION_PRECS = (96, 160, 256, 416, 704, 1184, 2000)


class PrecisionError(RuntimeError):
    """Raised when a floor decision cannot be certified at any staged precision."""


@dataclass(frozen=True)
class GammaExponent:
    """A validated pair (c, gamma) with gamma = 1/c, carried by every PS computation."""

    c: float
    gamma: float

    def __post_init__(self) -> None:
        if not 1.0 < self.c < 2.0:
            raise ValueError(f"exponent c must lie in (1, 2), got {self.c}")
        if abs(self.gamma * self.c - 1.0) > 1e-15:
            raise ValueError("gamma is not the reciprocal of c")
        if not 0.5 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (1/2, 1), got {self.gamma}")

    @classmethod
    def from_c(cls, c: float) -> "GammaExponent":
        return cls(c=float(c), gamma=1.0 / float(c))

    @classmethod
    def from_gamma(cls, gamma: float) -> "GammaExponent":
        return cls(c=1.0 / float(gamma), gamma=float(gamma))


def _iroot(n: int, k: int) -> tuple[int, bool]:
    """Integer k-th root of n >= 1: returns (floor(n**(1/k)), exact?)."""
    if n < 2 or k == 1:
        return n, True
    if k >= n.bit_length():
        return 1, n == 1
    x = 1 << -(-n.bit_length() // k)  # >= true root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x, x ** k == n


def _pow_parts(n: int, e: float) -> tuple[int, float, bool]:
    """Certified decomposition of n**e: (floor, fractional part, exact integer?).

    The fractional part is a float64 approximation; it is only used by callers
    for quantities that are Lipschitz in it (sawtooth evaluations), never for
    another floor decision.
    """
    if n < 1:
        raise ValueError(f"base must be a positive integer, got {n}")
    if not 0.0 < e < 4.0:
        raise ValueError(f"exponent must lie in (0, 4), got {e}")
    if n == 1:
        return 1, 0.0, True
    if e == int(e):
        return n ** int(e), 0.0, True

    y = float(n) ** e  # >= 1, within y * _FLOAT_POW_REL of n**e
    rad = y * _FLOAT_POW_REL
    fl = math.floor(y - rad)
    if fl == math.floor(y + rad):
        # Interval excludes every integer, so the power is certainly not one.
        return fl, y - fl, False

    # Close call: first rule exact integer powers in or out, then escalate.
    frac_e = Fraction(e)  # exact binary expansion of the float exponent
    root, exact = _iroot(n, frac_e.denominator)
    if exact:
        return root ** frac_e.numerator, 0.0, True
    import mpmath  # imported here: about 1e-6 of floors ever get this far

    for prec in _ESCALATION_PRECS:
        with mpmath.workprec(prec):
            ymp = mpmath.power(n, mpmath.mpf(e))
            rad = mpmath.ldexp(abs(ymp), 8 - prec)
            lo = mpmath.floor(ymp - rad)
            if lo == mpmath.floor(ymp + rad):
                return int(lo), float(ymp - lo), False
    raise PrecisionError(f"floor({n}**{e!r}) undecided at {_ESCALATION_PRECS[-1]} bits")


def floor_pow(n: int, e: float) -> int:
    """Exact floor(n**e) for integer n >= 1 and 0 < e < 4, certified."""
    fl, _, _ = _pow_parts(n, e)
    return fl


def floor_neg_pow(n: int, e: float) -> int:
    """Exact floor(-(n**e)), certified; equals -ceil(n**e)."""
    fl, _, exact = _pow_parts(n, e)
    return -fl if exact else -fl - 1


def _pow_parts_array(ns: np.ndarray, e: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised (floor, frac) of n**e, floors certified as by floor_pow.

    Entries whose float64 fractional part falls inside the guard band are
    re-decided one by one through the certified scalar path. Bases outside
    [1, 2^53), or a power that may reach 2^63 (its float64 value within the
    guard band of 2^63 or above), raise ValueError up front.
    """
    ns = np.asarray(ns, dtype=np.int64)
    if not 0.0 < e < 4.0:
        raise ValueError(f"exponent must lie in (0, 4), got {e}")
    if ns.size:
        top = int(ns.max())
        if ns.min() < 1 or top >= (1 << 53):
            raise ValueError("array bases must lie in [1, 2^53)")
        # top**e is within the radius top**e * _FLOAT_POW_REL of its float
        if float(top) ** e * (1.0 + _ARRAY_GUARD_REL) >= 2.0 ** 63:
            raise ValueError(f"floor({top}**{e!r}) may not fit in int64")
    y = ns.astype(np.float64) ** e
    fl = np.floor(y)
    frac = y - fl
    tol = y * _ARRAY_GUARD_REL  # y >= 1: every base is >= 1 and e > 0
    risky = (frac <= tol) | (frac >= 1.0 - tol)
    out = fl.astype(np.int64)
    if risky.any():
        for i in np.nonzero(risky)[0]:
            f, fr, _ = _pow_parts(int(ns[i]), e)
            out[i] = f
            frac[i] = fr
    return out, frac


def unit_exp_parts(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised (cos, sin) of 2*pi*t with mod-1 reduction."""
    t = np.asarray(t, dtype=np.float64)
    r = TWO_PI * (t - np.floor(t))
    return np.cos(r), np.sin(r)


# Each chunk of _FSUM_CHUNK entries is extracted apart: its temporaries stay
# in cache, and the extra memory is a few chunks however many the terms.
_FSUM_CHUNK = 1 << 14
# sigma = 2^(e + _EXTRACT_BITS) for a chunk below 2^e, with 2^_EXTRACT_BITS >= n + 2.
_EXTRACT_BITS = (_FSUM_CHUNK + 1).bit_length()
# A float sum of a chunk's entries, all multiples of 2^lsb and below 2^e, is
# exact once e <= lsb + _PLAIN_BITS: n*2^e <= 2^(lsb + 53) for n <= _FSUM_CHUNK.
_PLAIN_BITS = 53 - (_FSUM_CHUNK.bit_length() - 1)
# _exact_parts returns an array of fewer entries as its list: a short array is
# its own expansion. math.fsum of that list against math.fsum of the
# extracted parts, standard normal entries and then a sweep's t = p^(gamma-1)
# (2-core x86-64 VM, Python 3.11, numpy 2.4): 1.7 -> 14 and 1.8 -> 9 us at
# 64 entries, 8 -> 16 and 9 -> 11 us at 256, 18 -> 19 and 17 -> 12 us at
# 512, 32 -> 18 and 34 -> 13 us at 1024, 75 -> 23 and 62 -> 16 us at 2048.
# 2^9 lies between the two cross-overs; either way the sum has the same bits.
_EXPAND_MIN = 1 << 9
# Entries below 2^996 keep sigma at most 2^1011, so no pass can overflow.
# fsum_array leaves an array with a larger or a non-finite entry to math.fsum.
_FSUM_BIG = 2.0 ** 996


def fsum_array(a: np.ndarray) -> float:
    """math.fsum of the elements of a 1-D float64 array, as math.fsum of its expansion."""
    a = np.asarray(a, dtype=np.float64)
    try:
        parts = _exact_parts(a)
    except ValueError:  # an entry is not finite or reaches 2^996
        return math.fsum(a)
    return math.fsum(parts)


def _exact_parts(a: np.ndarray) -> list:
    """An expansion of the sum of a float64 array: floats whose exact sum is its exact sum.

    A 1-D array of fewer than _EXPAND_MIN entries is its own. Otherwise each
    chunk r of at most _FSUM_CHUNK = 2^14 entries is split into parts whose
    float sums are exact in any order: the entries of a part are multiples of
    2^u, and every sum of them is below 2^(u + 53). So ndarray.sum adds a
    part, or any subset of it, exactly, and the list holds one float per part.

    The parts come from passes of ExtractVector (Rump, Ogita and Oishi,
    "Accurate floating-point summation part I: faithful rounding", SIAM J.
    Sci. Comput. 31(1), 2008). For |r| < 2^e and sigma = 2^s, s = max(e +
    _EXTRACT_BITS, -1022), q = (sigma + r) - sigma and r - q are exact, q is
    a multiple of 2^max(s - 53, -1074) whose sums stay below sigma, and
    |r - q| <= 2^(s - 53): sigma + r lies in [sigma/2, 2*sigma), where floats
    are at most 2^(s - 52) apart. The next pass therefore takes e = s - 52,
    37 binades lower, from that bound and with no reduction over r; the
    chunk ends when r - q is zero. Once s = -1022 the remainder, a
    multiple of 2^-1074 of magnitude at most 2^-1075, is zero, so from below
    2^996 a chunk ends after at most 56 passes.

    When no entry of the chunk is zero and all share a sign, the smallest
    magnitude, in [2^(f-1), 2^f), makes every entry, and so every remainder,
    a multiple of 2^lsb, lsb = max(f - 53, -1074). Once e <= lsb +
    _PLAIN_BITS, a sum of the at most 2^14 remainders stays below 2^(e + 14)
    <= 2^(lsb + 53): r itself is the last part, and no pass runs to find it
    zero. A sweep's block of t = p^(gamma-1) takes one pass and this sum.
    A 2-D array, one row or at most _FSUM_CHUNK entries, has an expansion
    per row: each part adds its rows apart, to an array of one float each.

    Expansions of several arrays concatenate into one of all their entries,
    and math.fsum rounds it once, to math.fsum of those entries (+0.0 for a
    zero sum). Precondition but for a short 1-D array: every entry is
    finite and below 2^996 in magnitude (ValueError otherwise).
    """
    if a.ndim == 1 and a.size < _EXPAND_MIN:
        return a.tolist()
    return [part.reshape(a.shape[:-1] + (-1,)).sum(axis=-1) for _, part in _passes(a.reshape(-1))]


def _group_fsums(a: np.ndarray, groups: np.ndarray, n: int) -> np.ndarray:
    """math.fsum of the entries of a 1-D float64 array in each group k < n.

    ``groups`` is an int array as long as ``a``. np.bincount adds any subset
    of a part of ``_exact_parts`` exactly, so each group has an expansion of
    one float per part, rounded by math.fsum (+0.0 for an empty group).
    Precondition as for ``_exact_parts`` at any size.
    """
    sums = [np.bincount(groups[i : i + _FSUM_CHUNK], part, n) for i, part in _passes(a)]
    return np.array([math.fsum(g) for g in np.reshape(sums, (-1, n)).T.tolist()])


def _passes(a: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """(chunk start, part) for each part of each chunk of a 1-D array (_exact_parts)."""
    for i in range(0, a.size, _FSUM_CHUNK):
        r = a[i : i + _FSUM_CHUNK]
        top, bot = r.max(), r.min()
        if not max(top, -bot) < _FSUM_BIG:  # also for nan
            raise ValueError("fsum terms must be finite and below 2^996 in magnitude")
        e = math.frexp(max(top, -bot))[1]  # |r| < 2^e
        small = bot if bot > 0.0 else -top if top < 0.0 else 0.0
        lsb = max(math.frexp(small)[1] - 53, -1074) if small else -math.inf
        while True:
            if e <= lsb + _PLAIN_BITS:
                yield i, r
                break
            s = max(e + _EXTRACT_BITS, -1022)
            sigma = math.ldexp(1.0, s)
            part = r + sigma
            part -= sigma
            yield i, part
            r = r - part
            e = s - 52
            if e > lsb + _PLAIN_BITS and not r.any():
                break
