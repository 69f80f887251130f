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
(``_indicator_parts``); ``_beatty_member_at`` reduces beta by an exact
multiple of alpha, decides the Beatty boundaries in floats, and those within
a guard radius of an integer by one closed-form ceiling ceil(T/(D*alpha)) in
Z[sqrt d] each (``_beatty_member_exact``, ``_ceil_div_alpha``).

The prime counts (plain, progression, Beatty) and their main terms read one
member stream, ``_member_blocks``: over the primes p <= x in the progression,
in blocks of at most _BLOCK primes taken from ``sieve.prime_stream``, it
yields each block's primes, t = p^(gamma-1) and their membership, decided
from that same t (the Beatty test only at the floor-power members). Each
count is a short loop over it. Each block's main-term terms are extracted
into an expansion (``numeric._exact_parts``), the expansions are
concatenated, and math.fsum rounds them once. Memory is O(segment +
sqrt(x)) whatever x is; no table is built, but the stream slices a cached
prime list that covers x instead of sieving.
Goldbach counts and the weights of ``bf_discrepancy`` decide membership at
the primes of the shared prime list, which the singular series reads too.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .numeric import _ARRAY_GUARD_REL, _FSUM_CHUNK, GammaExponent, _exact_parts, _pow_parts_array
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
    ratio: float | None = field(init=False)  # _ratio(count, main_term)
    q: int = 1
    a: int = 0
    headline_term: float | None = None

    def __post_init__(self) -> None:
        self.ratio = _ratio(self.count, self.main_term)


def _ratio(value: float, main_term: float) -> float | None:
    """value / main_term, the ratio of every report; None if main_term <= 0."""
    return value / main_term if main_term > 0 else None


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
    if not ms.size:
        return np.zeros(0, dtype=bool)
    m_lo, m_hi = int(ms.min()), int(ms.max())
    if m_lo < 1 or m_hi >= (1 << 53) - 1:
        raise ValueError("m must lie in [1, 2^53 - 1)")
    mf = ms.astype(np.float64)
    return _member_from_t(ms, mf, mf ** (g.gamma - 1.0), g.gamma, m_lo, m_hi)


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
def _member_bracket(ms: np.ndarray, mf: np.ndarray, t: np.ndarray, gam: float) -> np.ndarray:
    """Membership of each m in ms from its float mf and t = mf ** (gam - 1.0), by the bracket."""
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


# The bracket takes about 20 array passes. The screen below settles almost
# every entry in 9, with bounds for all of ms, and hands the rest to the
# bracket, so its rechecks are the bracket's own. For m in [m_lo, m_hi]:
# - tol <= T = m_hi^gam*_ARRAY_GUARD_REL*(1 + 2^-40): y0 is within relative
#   2^-46.9 of m^gam <= m_hi^gam, and the scalar power within 2^-47.
# - the float hi - lo is at most gam*(1-gam)*m^(gam-2)*(1 + 2^-46.9) + 2^-52
#   (t, and the roundings of hi, u = (1-gam)/m, 1 - u and hi*(1 - u)), below
#   W = gam*(1-gam)*m_lo^(gam-2)*(1 + 2^-40) + 2^-50: m^(gam-2) falls with m,
#   and the scalar power, its exponent gam - 2 rounded, is within relative
#   2^-46.3.
# - e = d - hi is rounded once, by at most 2^-54 <= T/256, as T >= 2^-46.
# So 2*T < d < 1 - 2*T gives tol < d < 1 - tol, that bound rounded; then
# e >= 3*T gives d >= hi + 2*tol and e <= -(W + 4*T) gives d < lo - 2*tol,
# each bound rounded as the bracket rounds it: the bracket would settle the
# entry, with the same membership.
def _member_from_t(
    ms: np.ndarray, mf: np.ndarray, t: np.ndarray, gam: float, m_lo: int, m_hi: int
) -> np.ndarray:
    """Membership of each m in ms, all in [m_lo, m_hi], from mf and t = mf ** (gam - 1.0)."""
    T = _ARRAY_GUARD_REL * float(m_hi) ** gam * (1.0 + 2.0 ** -40)
    W = gam * (1.0 - gam) * float(m_lo) ** (gam - 2.0) * (1.0 + 2.0 ** -40) + 2.0 ** -50
    y0 = mf * t
    d = np.ceil(y0)
    d -= y0
    e = gam * t  # hi
    np.subtract(d, e, out=e)
    member = e <= -(W + 4.0 * T)
    sure = member | (e >= 3.0 * T)
    sure &= d > 2.0 * T
    sure &= d < 1.0 - 2.0 * T
    if not sure.all():
        rest = np.flatnonzero(~sure)
        member[rest] = _member_bracket(ms[rest], mf[rest], t[rest], gam)
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
# block's primes in one kernel call, with a few float temporaries per entry.
# With blocks of 2^12, 2^13 and 2^14 primes, eight warm counts to 10^7 took
# 75, 57 and 52 ms in process, and `ps count --x 30000000 --c 1.05` peaked at
# 33.3, 33.2 and 33.6 MB RSS (2-core x86-64 VM, numpy 2.4); 2^13 keeps the
# peak of the largest CLI count where it was.
_BLOCK = 1 << 13


def _member_blocks(
    x: int, q: int, a: int, gam: float, B: BeattyParams | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(ps, t, member) per block of at most _BLOCK primes p = a (mod q) up to x.

    t = ps ** (gam - 1.0), one power per prime, and member is floor-power
    membership decided from that t, then Beatty for B at its members only.
    """
    for stream_block in prime_stream(x, q, a):
        for lo in range(0, stream_block.size, _BLOCK):
            ps = stream_block[lo : lo + _BLOCK]
            pf = ps.astype(np.float64)
            t = pf ** (gam - 1.0)
            member = _member_from_t(ps, pf, t, gam, int(ps[0]), int(ps[-1]))
            if B is not None:
                kept = np.flatnonzero(member)
                member[kept] = _beatty_member_at(ps[kept], B)
            yield ps, t, member


def _refined(x: int, gam: float, q: int, a: int) -> tuple[float, int]:
    """(refined main term, members) for the primes p = a (mod q) up to x."""
    parts, members = [], 0
    for _, t, member in _member_blocks(x, q, a, gam):
        _add_exact(parts, t)
        members += int(np.count_nonzero(member))
    return gam * math.fsum(parts), members


def _add_exact(parts: list[float], terms: np.ndarray) -> None:
    """parts += the expansion of terms, refolded from _FSUM_CHUNK floats on: the
    short blocks of a sparse progression are their own expansions."""
    parts += _exact_parts(terms)
    if len(parts) >= _FSUM_CHUNK:
        parts[:] = _exact_parts(np.array(parts))


def refined_main_term(x: int, c: float, q: int = 1, a: int = 0) -> float:
    """gamma * sum of p^(gamma-1) over primes p <= x with p = a (mod q)."""
    g = GammaExponent.from_c(c)
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    return _refined(x, g.gamma, q, a)[0]


def ps_prime_count(x: int, c: float) -> PsCountReport:
    """Count floor-power primes <= x against the refined main term.

    The headline x^gamma/log x is reported alongside; the refined term makes
    the desk-scale ratio test tight because the sawtooth oscillation it drops
    is power-saving.
    """
    g = GammaExponent.from_c(c)
    main, count = _refined(x, g.gamma, 1, 0)
    return PsCountReport(x=x, c=c, count=count, main_term=main,
                         headline_term=x ** g.gamma / math.log(x))


def ap_main_term(x: int, c: float, q: int, a: int) -> float:
    """The main term of ``ps_prime_count_ap``, with its checks."""
    return ps_prime_count_ap(x, c, q, a).main_term


def ps_prime_count_ap(x: int, c: float, q: int, a: int) -> PsCountReport:
    """Count floor-power primes <= x in the progression a mod q.

    The main term is gamma*x^(gamma-1)*pi(x;q,a) + gamma*(1-gamma)*I, with the
    step integral in closed form, summed exactly as in ``_refined``:
    I = integral_2^x u^(gamma-2) pi(u;q,a) du
      = sum over p of (x^(gamma-1) - p^(gamma-1)) / (gamma-1).
    """
    if q < 1 or q > MAX_AP_MODULUS:
        raise ValueError(f"q must lie in [1, {MAX_AP_MODULUS}], got {q}")
    if math.gcd(a, q) != 1:
        raise ValueError(f"require gcd(a, q) = 1, got a={a}, q={q}")
    gam = GammaExponent.from_c(c).gamma
    xg1 = float(x) ** (gam - 1.0)
    integral, count, primes = [], 0, 0
    for ps, t, member in _member_blocks(x, q, a % q, gam):
        _add_exact(integral, (xg1 - t) / (gam - 1.0))
        count += int(np.count_nonzero(member))
        primes += ps.size
    main = gam * xg1 * primes + gam * (1.0 - gam) * math.fsum(integral)
    return PsCountReport(x=x, c=c, count=count, main_term=main, q=q, a=a % q)


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
    'sqrt2' or 'phi', with alpha its float in LABELLED_ALPHAS, makes the
    boundary rechecks use that quadratic irrational exactly.
    """

    alpha: float
    beta: float
    alpha_label: str | None = None

    def __post_init__(self) -> None:
        if self.alpha_label is not None and LABELLED_ALPHAS.get(self.alpha_label) != self.alpha:
            raise ValueError(f"unknown alpha_label {self.alpha_label!r} for alpha={self.alpha}")
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


# Guard radius for the float boundaries lo = (m - beta')/alpha and
# hi = (m + 1 - beta')/alpha, beta' the reduced beta of _beatty_member_at. For
# m < 2^53 the float m (and m + 1) is exact; the subtraction and the division
# are each rounded once (relative 2^-53), the float alpha is within relative
# 2^-52 of sqrt2 or phi (a decimal alpha is the exact parameter), and the
# float beta' within alpha*2^-51 of the true one. So each computed endpoint
# is within 2^-51*(|endpoint| + 1) of its true value. An endpoint at least
# 2^-47*(|lo| + |hi| + 1) from every integer, 16 times that radius, has the
# same ceiling and comparisons as the true one; anything closer is re-decided
# in integers by _beatty_member_exact.
_BEATTY_GUARD_REL = 2.0 ** -47


def _ceil_div_alpha(T: int, D: int, B: BeattyParams) -> int:
    """ceil(T/(D*alpha)) exactly, for integers T and D >= 1."""
    if B.alpha_label is None:  # the float alpha is the exact parameter
        (p, r), q, d = B.alpha.as_integer_ratio(), 0, 0
    else:
        p, q, d, r = _ALPHA_FORMS[B.alpha_label]
    # with alpha = (p + q*sqrt(d))/r, T/(D*alpha) = (X + Y*sqrt(d))/Z by the
    # conjugate, and ceil((X + w)/Z) = ceil((X + ceil(w))/Z) for Z > 0
    X, Y, Z = T * r * p, -T * r * q, D * (p * p - q * q * d)
    if Z < 0:
        X, Y, Z = -X, -Y, -Z
    s = math.isqrt(Y * Y * d)
    w = s + (s * s < Y * Y * d) if Y >= 0 else -s  # ceil(Y*sqrt(d))
    return -(-(X + w) // Z)


def _beatty_member_exact(m: int, B: BeattyParams) -> bool:
    """Exactly: m is a member iff 1 <= ceil((m - beta)/alpha) < ceil((m + 1 - beta)/alpha)."""
    b, D = B.beta.as_integer_ratio()
    return 1 <= _ceil_div_alpha(m * D - b, D, B) < _ceil_div_alpha((m + 1) * D - b, D, B)


def _beatty_member_at(ms: np.ndarray, B: BeattyParams) -> np.ndarray:
    """Boolean Beatty membership of each m >= 1 in the int64 array ms."""
    # beta = beta' + k*alpha for k = floor(beta/alpha), exact, and the float
    # beta' in [0, alpha]: ceil((m - beta)/alpha) = ceil((m - beta')/alpha) - k
    b, D = B.beta.as_integer_ratio()
    f = -_ceil_div_alpha(-b << 64, D, B)  # floor(2^64*beta/alpha)
    k, beta_r = f >> 64, B.alpha * (f % 2 ** 64 / 2 ** 64)
    mf = ms.astype(np.float64)
    lo_n = (mf - beta_r) / B.alpha
    hi_n = (mf + 1.0 - beta_r) / B.alpha
    n0 = np.ceil(lo_n)
    member = (n0 >= float(1 + k)) & (n0 < hi_n)
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
    count = sum(int(np.count_nonzero(m)) for _, _, m in _member_blocks(x, 1, 0, g.gamma, B))
    main = x ** g.gamma / (B.alpha * math.log(x))
    return PsCountReport(x=x, c=c, count=count, main_term=main)


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
    f_div = float(np.prod(1.0 - 1.0 / pm1[divides] ** 2))  # empty product: 1.0
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

    @property
    def ratio(self) -> float | None:  # a property: dataclasses.asdict leaves it out
        return _ratio(self.exact, self.predicted)


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
        member[c][ps.compress(_ps_member_at(ps, GammaExponent.from_c(c)))] = True
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
