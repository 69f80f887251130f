"""Piatetski-Shapiro membership and the counting theorems.

Membership of m in the floor-power sequence is decided through certified
floors of m^gamma (an interval [(m)^gamma, (m+1)^gamma) contains an
integer iff m is a member, expressed via two negated floors). Counting
functions compare exact counts against their refined main terms; the
singular series is a truncated Euler product with a provable tail bound.

The ternary Goldbach count convolves the half-index indicators (p - 1)/2
of the odd member primes of two exponents once by a float64 FFT, at the
least even 2^a 3^b 5^c length that holds every sum, and rounds to integers;
the triples holding the prime 2 are counted exactly apart. An a-priori
rounding bound (Percival, Math. Comp. 2003, extended to mixed radix; the
assumptions on numpy's FFT are stated once, above ``_FFT_EPS``) must stay
below 1/4, and every entry must land within 1/4 of an integer, else
ArithmeticError; at N = 10^6 with every odd prime the bound is 1.1e-8.

Membership is decided at the points that are read: ``_ps_member_at`` decides
an array of m from one power t = m^(gamma-1) each, and only the few entries
it cannot prove go to the certified ceilings of m^gamma and (m+1)^gamma
(``_indicator_parts``); ``_beatty_member_at`` decides the Beatty boundaries
in floats, and those within a guard radius of an integer in exact integer
arithmetic (``_beatty_member_exact``).

The prime counts (plain, progression, Beatty) and their main terms stream
over the primes p <= x in the progression, in blocks of at most _BLOCK
primes taken from ``sieve.prime_stream``: membership is decided at each
block's primes (the Beatty test only at the floor-power members) from the
same t = p^(gamma-1) as the main term. Each block's main-term terms are
extracted into an exact integer, the integers are added, and the total is
rounded once. Memory is O(segment + sqrt(x)) whatever x is; no table is
built, but the stream slices a cached prime list that covers x instead of
sieving. Goldbach counts and the weights of ``bf_discrepancy`` decide
membership at the primes of the shared prime list, which the singular series
reads too.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .numeric import _ARRAY_GUARD_REL, GammaExponent, _exact_sum, _pow_parts_array, _round_exact
from .numeric import floor_neg_pow
from .sieve import prime_stream, shared_table

MAX_AP_MODULUS = 10 ** 4
GOLDBACH_N_RANGE = (10 ** 4, 10 ** 6)
SINGULAR_SERIES_P = 10 ** 6


@dataclass
class PsCountReport:
    """One counting experiment: exact count against its main term."""

    x: int
    c: float
    count: int
    main_term: float
    ratio: float | None
    q: int = 1
    a: int = 0
    headline_term: float | None = None


def ps_indicator(m: int, g: GammaExponent) -> int:
    """1 iff m is a floor-power member, via two certified negated floors."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return floor_neg_pow(m, g.gamma) - floor_neg_pow(m + 1, g.gamma)


def _indicator_parts(ms: np.ndarray, gam: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ceil((m+1)^gam) - ceil(m^gam), frac of m^gam, frac of (m+1)^gam) per m in ms.

    One certified _pow_parts_array call on the bases ms and ms + 1.
    """
    k = ms.size
    fl, frac = _pow_parts_array(np.concatenate([ms, ms + 1]), gam)
    ceil = fl + (frac > 0)
    return ceil[k:] - ceil[:k], frac[:k], frac[k:]


def _ps_member_at(ms: np.ndarray, g: GammaExponent) -> np.ndarray:
    """Boolean membership of each m in the int64 array ms, 1 <= m < 2^53 - 1."""
    if ms.size and (ms.min() < 1 or ms.max() >= (1 << 53) - 1):
        raise ValueError("m must lie in [1, 2^53 - 1)")
    mf = ms.astype(np.float64)
    return _member_from_t(ms, mf, mf ** (g.gamma - 1.0), g.gamma)


# m is a member iff d = ceil(m^gam) - m^gam < D = (m+1)^gam - m^gam. By the
# mean value theorem and Bernoulli's inequality, lo < D < hi for hi = gam*t,
# t = m^(gam-1), and lo = hi*(1 - (1-gam)/m). For 1 <= m < 2^53 the float m
# is exact; the float t is trusted to t*_FLOAT_POW_REL, so y0 = m*t, rounded
# once, is within (2^-47 + 2^-53)*y0 < tol/1.9 of m^gam, where tol =
# y0*_ARRAY_GUARD_REL is exact. d = ceil(y0) - y0 is exact (Sterbenz: y0 >= 1).
# Unless d <= tol or d >= 1 - tol, no integer lies that close to y0, so the
# true d is within tol/1.9 of the float one. The float lo and hi, below 1, are
# within the pow radius plus four roundings (2^-46.9 < tol/1.7) of the true
# ones, and each compared bound is rounded once more (< tol/64). Hence
# d < lo - 2*tol proves membership and d >= hi + 2*tol proves none; every
# other entry is re-decided by _indicator_parts.
def _member_from_t(ms: np.ndarray, mf: np.ndarray, t: np.ndarray, gam: float) -> np.ndarray:
    """Membership of each m in ms from its float mf and t = mf ** (gam - 1.0)."""
    y0 = mf * t
    d = np.ceil(y0)
    d -= y0
    tol = y0 * _ARRAY_GUARD_REL
    hi = gam * t
    lo = hi * (1.0 - (1.0 - gam) / mf)
    member = d < lo - 2.0 * tol
    risky = ~((d > tol) & (d < 1.0 - tol) & (member | (d >= hi + 2.0 * tol)))
    if risky.any():
        member[risky] = _indicator_parts(ms[risky], gam)[0] == 1
    return member


def _psi_of_negated(frac: np.ndarray) -> np.ndarray:
    # psi(-(fl + frac)) = (1 - frac) - 1/2 when frac > 0, else -1/2
    return np.where(frac > 0, 0.5 - frac, -0.5)


def ps_expansion_residual_array(ms: np.ndarray, g: GammaExponent) -> np.ndarray:
    """Indicator minus its first-order expansion at each m >= 2 of the array ms.

    The caller checks |.| <= C*m^(gamma-2).
    """
    ms = np.asarray(ms, dtype=np.int64)
    if ms.size and ms.min() < 2:
        raise ValueError("all m must be >= 2")
    gam = g.gamma
    ind, fr0, fr1 = _indicator_parts(ms, gam)
    expansion = (
        gam * ms.astype(np.float64) ** (gam - 1.0)
        + _psi_of_negated(fr1)
        - _psi_of_negated(fr0)
    )
    return ind.astype(np.float64) - expansion


# Primes per block of the counting sweep: membership is decided at each
# block's primes in one kernel call, with about ten float temporaries per
# entry. With blocks of 2^12, 2^13 and 2^14 primes, three warm counts to 10^7
# took 57.8, 50.1 and 63.1 ms in process, and `ps count --x 30000000` peaked at
# 32.8, 32.8 and 33.1 MB RSS (2-core x86-64 VM, numpy 2.4).
_BLOCK = 1 << 13


def _sweep(
    x: int, q: int, a: int, gam: float, term: Callable | None = None, B: BeattyParams | None = None
) -> tuple[float, int, int]:
    """(math.fsum of term(t), members, primes) over the primes p = a (mod q) up to x.

    Here t = p^(gam-1), one power per prime. Membership (floor-power for gam,
    then Beatty for B) is decided at the primes only, from the same t. Each
    block's terms, finite and below 2^996, go into an exact int
    (``_exact_sum``) and the total is rounded once; without a term it is 0.0.
    """
    total = members = primes = 0
    for stream_block in prime_stream(x, q, a):
        for lo in range(0, stream_block.size, _BLOCK):
            ps = stream_block[lo : lo + _BLOCK]
            pf = ps.astype(np.float64)
            t = pf ** (gam - 1.0)
            member = _member_from_t(ps, pf, t, gam)
            if B is not None:
                member[member] = _beatty_member_at(ps[member], B)
            members += int(np.count_nonzero(member))
            primes += ps.size
            if term is not None:
                total += _exact_sum(term(t))
    return _round_exact(total), members, primes


def _refined_sweep(x: int, gam: float, q: int, a: int) -> tuple[float, int]:
    """(refined main term, members) for the primes p = a (mod q) up to x."""
    total, k, _ = _sweep(x, q, a, gam, lambda t: t)
    return gam * total, k


def _ap_sweep(x: int, gam: float, q: int, a: int) -> tuple[float, int]:
    """(progression main term, members) for the primes p = a (mod q) up to x."""
    xg1 = float(x) ** (gam - 1.0)
    integral, k, n = _sweep(x, q, a, gam, lambda t: (xg1 - t) / (gam - 1.0))
    return gam * xg1 * n + gam * (1.0 - gam) * integral, k


def refined_main_term(x: int, c: float, q: int = 1, a: int = 0) -> float:
    """gamma * sum of p^(gamma-1) over primes p <= x with p = a (mod q)."""
    g = GammaExponent.from_c(c)
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    return _refined_sweep(x, g.gamma, q, a)[0]


def ps_prime_count(x: int, c: float) -> PsCountReport:
    """Count floor-power primes <= x against the refined main term.

    The headline x^gamma/log x is reported alongside; the refined term makes
    the desk-scale ratio test tight because the sawtooth oscillation it drops
    is power-saving.
    """
    g = GammaExponent.from_c(c)
    main, count = _refined_sweep(x, g.gamma, 1, 0)
    return PsCountReport(
        x=x,
        c=c,
        count=count,
        main_term=main,
        ratio=count / main if main > 0 else None,
        headline_term=x ** g.gamma / math.log(x),
    )


def ap_main_term(x: int, c: float, q: int, a: int) -> float:
    """Main term for the progression count, with the step integral in closed form.

    Evaluates gamma*x^(gamma-1)*pi(x;q,a) + gamma*(1-gamma)*I where
    I = integral_2^x u^(gamma-2) pi(u;q,a) du
      = sum over p of (x^(gamma-1) - p^(gamma-1)) / (gamma-1).
    """
    g = GammaExponent.from_c(c)
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    return _ap_sweep(x, g.gamma, q, a)[0]


def ps_prime_count_ap(x: int, c: float, q: int, a: int) -> PsCountReport:
    """Count floor-power primes <= x in the progression a mod q."""
    if q < 1 or q > MAX_AP_MODULUS:
        raise ValueError(f"q must lie in [1, {MAX_AP_MODULUS}], got {q}")
    if math.gcd(a, q) != 1:
        raise ValueError(f"require gcd(a, q) = 1, got a={a}, q={q}")
    g = GammaExponent.from_c(c)
    main, count = _ap_sweep(x, g.gamma, q, a % q)
    return PsCountReport(
        x=x,
        c=c,
        count=count,
        main_term=main,
        ratio=count / main if main > 0 else None,
        q=q,
        a=a % q,
    )


# The irrationals known by name, each as (p, q, d, r) with alpha exactly
# (p + q*sqrt(d))/r and d no square: the CLI reads them as reals (these
# floats), and the exact Beatty rechecks use the closed forms.
_ALPHA_FORMS = {"sqrt2": (0, 1, 2, 1), "phi": (1, 1, 5, 2)}
LABELLED_ALPHAS = {k: (p + q * math.sqrt(d)) / r for k, (p, q, d, r) in _ALPHA_FORMS.items()}


@dataclass(frozen=True)
class BeattyParams:
    """Parameters of the inhomogeneous floor sequence (floor(alpha*n + beta)).

    alpha and beta must be finite, and alpha must look irrational: values
    within 1e-12 of a rational with denominator <= 10^4 are rejected
    (heuristic guard; finite type is the caller's assertion). alpha_label
    'sqrt2' or 'phi' makes the boundary rechecks use that quadratic
    irrational exactly instead of the float alpha.
    """

    alpha: float
    beta: float
    alpha_label: str | None = None

    def __post_init__(self) -> None:
        if self.alpha_label is not None and self.alpha_label not in LABELLED_ALPHAS:
            raise ValueError(f"unknown alpha_label {self.alpha_label!r}")
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError(f"alpha and beta must be finite, got {self.alpha}, {self.beta}")
        if not self.alpha > 1.0:
            raise ValueError(f"alpha must exceed 1, got {self.alpha}")
        approx = Fraction(self.alpha).limit_denominator(10 ** 4)
        if abs(self.alpha - approx) < 1e-12:
            raise ValueError(
                f"alpha={self.alpha} is within 1e-12 of {approx}; need an "
                "irrational of finite type"
            )

    @classmethod
    def from_label(cls, label: str, beta: float) -> "BeattyParams":
        if label not in LABELLED_ALPHAS:
            raise ValueError(f"unknown alpha_label {label!r}")
        return cls(alpha=LABELLED_ALPHAS[label], beta=beta, alpha_label=label)


# Guard radius for the float boundaries lo = (m - beta)/alpha and
# hi = (m + 1 - beta)/alpha. For m < 2^53 the float m (and m + 1) is exact;
# the subtraction of beta and the division are each rounded once (relative
# 2^-53), and the float alpha is within relative 2^-52 of sqrt2 or phi (a
# decimal alpha is itself the exact parameter). Each computed endpoint is
# therefore within 4*2^-53 = 2^-51 of its true value, relative to it. An
# endpoint at least 2^-47*(|lo| + |hi| + 1) from every integer, 16 times
# that radius, has the same ceiling and comparisons as the true one;
# anything closer is re-decided in integers by _beatty_member_exact. Endpoints
# of size 2^46 or more are all that close, so a |beta| that large sends every
# m to the exact recheck.
_BEATTY_GUARD_REL = 2.0 ** -47


def _beatty_member_exact(m: int, B: BeattyParams) -> bool:
    """Beatty membership of m in exact integer arithmetic, for any finite beta.

    m is a member iff the least n with n*alpha >= m - beta is >= 1 and has
    n*alpha < m + 1 - beta. With alpha = (p + q*sqrt(d))/r and beta = b/D,
    n*alpha >= m + k - beta iff u + v*sqrt(d) >= 0 for the integers below.
    """
    if B.alpha_label is None:  # the float alpha is the exact parameter
        p, r = B.alpha.as_integer_ratio()
        q = d = 0
    else:
        p, q, d, r = _ALPHA_FORMS[B.alpha_label]
    b, D = B.beta.as_integer_ratio()

    def reaches(n: int, k: int) -> bool:
        u, v = n * p * D - r * ((m + k) * D - b), n * q * D
        if (u >= 0) == (v >= 0):
            return u >= 0
        return (u * u >= d * v * v) == (u >= 0)  # never equal: d is no square

    # n = ceil((m - beta)/alpha) from sqrt(d) ~ s/S, off by at most one; the
    # exact steps then put n on the least n that reaches m - beta
    T = m * D - b
    S = 1 << ((abs(T) // D).bit_length() + 8)
    s = math.isqrt(d * S * S)
    n = -(-T * r * (p * S - q * s) // (D * (p * p - q * q * d) * S))
    while not reaches(n, 0):
        n += 1
    while reaches(n - 1, 0):
        n -= 1
    return n >= 1 and not reaches(n, 1)


def _beatty_member_at(ms: np.ndarray, B: BeattyParams) -> np.ndarray:
    """Boolean Beatty membership of each m >= 1 in the int64 array ms."""
    mf = ms.astype(np.float64)
    lo_n = (mf - B.beta) / B.alpha
    hi_n = (mf + 1.0 - B.beta) / B.alpha
    n0 = np.ceil(lo_n)
    member = (n0 >= 1.0) & (n0 < hi_n)
    tol = (np.abs(lo_n) + np.abs(hi_n) + 1.0) * _BEATTY_GUARD_REL
    risky = (np.abs(lo_n - np.rint(lo_n)) < tol) | (np.abs(hi_n - np.rint(hi_n)) < tol)
    for i in np.flatnonzero(risky):
        member[i] = _beatty_member_exact(int(ms[i]), B)
    return member


def beatty_member_array(limit: int, B: BeattyParams) -> np.ndarray:
    """Boolean Beatty membership for 0 <= m <= limit, indexed by m (0 is no member)."""
    out = np.zeros(limit + 1, dtype=bool)
    out[1:] = _beatty_member_at(np.arange(1, limit + 1, dtype=np.int64), B)
    return out


def ps_beatty_prime_count(x: int, c: float, B: BeattyParams) -> PsCountReport:
    """Count primes <= x lying in both sequences, against x^gamma/(alpha*log x)."""
    g = GammaExponent.from_c(c)
    count = _sweep(x, 1, 0, g.gamma, B=B)[1]
    main = x ** g.gamma / (B.alpha * math.log(x))
    return PsCountReport(
        x=x,
        c=c,
        count=count,
        main_term=main,
        ratio=count / main if main > 0 else None,
    )


@dataclass
class SingularSeriesResult:
    N: int
    truncation_P: int
    value: float
    tail_bound: float


def singular_series(N: int, P: int) -> SingularSeriesResult:
    """Truncated Euler product prod_{p|N}(1-1/(p-1)^2) * prod_{p∤N}(1+1/(p-1)^3).

    Vanishes exactly for even N (the p=2 factor is zero). The omitted factors
    beyond P change log(value) by at most sum_{n>P} 2/n^3 <= 1/P^2, reported
    conservatively as 2/P. N mod p is exact for every N below 2^1024, the
    float range; a larger N is rejected before any work.
    """
    if N < 3:
        raise ValueError(f"N must be >= 3, got {N}")
    if N >= 2 ** 1024:
        raise ValueError("N must be below 2^1024")
    if P < 100:
        raise ValueError(f"P must be >= 100, got {P}")
    ps = shared_table(P).primes(P)
    divides = _mod_primes(N, ps) == 0
    pm1 = ps.astype(np.float64) - 1.0
    f_div = float(np.prod(1.0 - 1.0 / pm1[divides] ** 2)) if divides.any() else 1.0
    f_rest = float(np.prod(1.0 + 1.0 / pm1[~divides] ** 3))
    return SingularSeriesResult(
        N=N, truncation_P=P, value=f_div * f_rest, tail_bound=2.0 / P
    )


def _mod_primes(N: int, ps: np.ndarray) -> np.ndarray:
    """N mod p for every p < 2^24 in the int64 array ps, exact for any N >= 0.

    Horner's rule over the base-2^31 limbs of N: a residue below 2^24 times
    2^31, plus a limb, stays below 2^56, inside int64.
    """
    r = np.zeros_like(ps)
    for shift in range(N.bit_length() // 31 * 31, -1, -31):
        r = ((r << 31) + ((N >> shift) & (2 ** 31 - 1))) % ps
    return r


@dataclass
class Goldbach3Result:
    N: int
    c: tuple[float, float, float]
    exact: int
    predicted: float
    degenerate: bool
    singular_value: float


# A-priori rounding bound for the pair counts, after Percival ("Rapid
# multiplication modulo the sum and difference of highly composite numbers",
# Math. Comp. 72, 2003): computing the cyclic convolution of x
# and y of length 2^n by two forward FFTs, a pointwise product and an inverse
# FFT in binary64 (unit roundoff eps = 2^-53) with roots of unity accurate to
# beta puts every entry within
#     ||x||_2 ||y||_2 ((1+eps)^3n (1+eps*sqrt5)^(3n+1) (1+beta)^3n - 1)
# of the exact one. For 0/1 indicators ||x||_2 ||y||_2 = sqrt(|p1| |p2|).
#
# What is assumed of numpy's FFT (pocketfft), stated once. The lengths used
# (``_transform_length``) are even and 5-smooth, L = 2^a 3^b 5^c, so it runs
# only radix-2, -3, -4 and -5 passes (no Bluestein step), and n counts
# radix-2 stages as follows:
# - twiddle factors are accurate to beta = 2^-50 (eight ulps);
# - radix-2 and radix-4 passes round no worse than the theorem's radix-2
#   stages, one stage per factor 2;
# - each factor 3 or 5 counts as 3 or 5 radix-2 stages. This is conservative:
#   a radix-r butterfly makes r - 1 additions and two constant
#   multiplications per output, and the twiddle term beta dominates a stage;
# - the real-to-complex packing of rfft/irfft costs at most one more stage;
# so n = a + 3b + 5c + 1, which is log2(L) + 1 at a power of two. irfft then
# scales by 1/L, rounded once to a float and once in each product (exact at
# a power of two), which multiplies the growth by (1+eps)^2: entries are at
# most ||x||_2 ||y||_2 by Cauchy-Schwarz. The bound must stay below 1/4, and
# every computed entry must lie within 1/4 of an integer, which also checks
# the assumptions a posteriori.
_FFT_EPS = 2.0 ** -53
_FFT_TWIDDLE_ERR = 2.0 ** -50


def _pair_count_error_bound(n1: int, n2: int, size: int) -> float:
    """Bound on |computed - exact| for every entry of an FFT pair count.

    n1 and n2 count the ones of the two indicators; size is the 5-smooth
    transform length. (The float evaluation of the bound is itself off by a
    relative ~1e-15, which the 1/4 margin absorbs.)
    """
    n, rest = 1, size  # one stage for the real packing
    for radix, stages in ((2, 1), (3, 3), (5, 5)):
        while rest % radix == 0:
            rest //= radix
            n += stages
    if rest != 1:
        raise ValueError(f"transform length {size} is not 5-smooth")
    log_growth = (
        (3 * n + 2) * math.log1p(_FFT_EPS)
        + (3 * n + 1) * math.log1p(_FFT_EPS * math.sqrt(5.0))
        + 3 * n * math.log1p(_FFT_TWIDDLE_ERR)
    )
    return math.sqrt(n1 * n2) * math.expm1(log_growth)


def _transform_length(n: int) -> int:
    """The least even 2^a 3^b 5^c >= n, for n >= 1."""
    # each odd 3^b 5^c below the best length so far takes the least power of
    # two, at least 2, that lifts it to n; a power of two in [n, 2n] bounds it
    best = 2 * n
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 * max(2, 1 << (-(-n // p35) - 1).bit_length()))
            p35 *= 3
        p5 *= 5
    return best


def _pair_sum_counts(p1: np.ndarray, p2: np.ndarray, nmax: int) -> np.ndarray:
    """r[s] = #{(a, b): a in p1, b in p2, a + b = s} for s <= nmax.

    p1 and p2 hold distinct non-negative integers; entries above nmax reach
    no sum <= nmax and are ignored. r is the linear convolution of the two
    0/1 indicators, computed by one float64 FFT at the least even 5-smooth
    length >= 2*nmax + 1 (so no sum wraps around) and rounded to the nearest
    integer; equal indicators (c1 = c2, the CLI's default) share one forward
    transform. The product is formed in place and the indicators are freed
    before the inverse transform. Raises ArithmeticError if the rounding
    bound above reaches 1/4 or an entry lies 1/4 or more from an integer.
    """
    size = _transform_length(2 * nmax + 1)
    x, y = np.zeros(nmax + 1), np.zeros(nmax + 1)
    x[p1[p1 <= nmax]] = 1.0
    y[p2[p2 <= nmax]] = 1.0
    bound = _pair_count_error_bound(np.count_nonzero(x), np.count_nonzero(y), size)
    if bound >= 0.25:
        raise ArithmeticError(f"FFT rounding bound {bound:.3g} reaches 1/4")
    same = np.array_equal(x, y)
    fx = np.fft.rfft(x, size)
    del x
    fx *= fx if same else np.fft.rfft(y, size)
    del y
    r = np.fft.irfft(fx, size)[: nmax + 1]
    del fx
    rounded = np.rint(r)
    r -= rounded
    if np.abs(r, out=r).max() >= 0.25:
        raise ArithmeticError("an FFT pair count lies 1/4 or more from an integer")
    return rounded.astype(np.int64)


def goldbach3_count(
    N: int,
    c1: float,
    c2: float,
    c3: float,
) -> Goldbach3Result:
    """Ordered triples of floor-power primes summing to N, with the predicted count.

    The triples split by how many 2s they hold. For odd N, those of odd
    primes p = 2k + 1 have k1 + k2 + k3 = M = (N - 3)/2: r[s] counts the
    pairs k1 + k2 = s, from one FFT convolution at half the length (the
    least even 5-smooth length >= 2M + 1) certified by an a-priori rounding
    bound (see ``_pair_sum_counts``; ArithmeticError if it cannot be
    certified), and their count is the integer sum of r[M - k3] over
    k3 <= M. Two 2s need N - 4 to be a member. For even N every triple holds
    one 2, and an indicator lookup counts the odd pairs summing to N - 2.
    Membership is decided at the primes <= N only. At N = 999999 with a warm
    table it takes about 55 ms with equal exponents and 75 ms with two
    distinct ones, most of it the FFT (membership at the 78,498 primes takes
    1 to 3 ms; 2-core x86-64 VM, numpy 2.4). Even N is degenerate:
    the prediction is exactly 0 (singular series), the exact count is still
    reported.
    """
    lo, hi = GOLDBACH_N_RANGE
    if not lo <= N <= hi:
        raise ValueError(f"N must lie in [{lo}, {hi}], got {N}")
    cs = (c1, c2, c3)
    for c in cs:
        if not 1.0 < c < 1.2:
            raise ValueError(f"each exponent must lie in (1, 6/5), got {c}")
    ps = shared_table(max(N, SINGULAR_SERIES_P)).primes(N)
    member = {}
    for c in set(cs):
        member[c] = np.zeros(N + 1, dtype=bool)
        member[c][ps[_ps_member_at(ps, GammaExponent.from_c(c))]] = True
    ind = [member[c] for c in cs]
    others = ((1, 2), (0, 2), (0, 1))  # the two places other than the i-th
    if N % 2:  # no 2 (p = 2k + 1 makes the sum k1 + k2 + k3 = M), or two 2s
        M = (N - 3) // 2
        k1, k2, k3 = (np.flatnonzero(m[1::2]) for m in ind)
        exact = int(_pair_sum_counts(k1, k2, M)[M - k3[k3 <= M]].sum())
        exact += sum(
            int(ind[i][N - 4] & ind[j][2] & ind[k][2]) for i, (j, k) in enumerate(others)
        )
    else:  # one 2, and two odd primes summing to N - 2
        exact = sum(
            int(ind[i][2]) * int(np.count_nonzero(ind[j][: N - 1] & ind[k][N - 2 :: -1]))
            for i, (j, k) in enumerate(others)
        )

    ss = singular_series(N, SINGULAR_SERIES_P)
    gs = [GammaExponent.from_c(c).gamma for c in cs]
    coeff = (
        gs[0] * gs[1] * gs[2] * math.gamma(gs[0]) * math.gamma(gs[1]) * math.gamma(gs[2])
    ) / math.gamma(gs[0] + gs[1] + gs[2])
    predicted = coeff * ss.value * N ** (sum(gs) - 1.0) / math.log(N) ** 3
    return Goldbach3Result(
        N=N,
        c=cs,
        exact=exact,
        predicted=predicted,
        degenerate=(N % 2 == 0),
        singular_value=ss.value,
    )
