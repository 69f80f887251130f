"""Direct numerical evaluation of the exponential-sum machinery.

Everything here evaluates sums term by term (no asymptotics): the central
weighted sum over dyadic ranges, bilinear model sums, the trigonometric
sawtooth approximation, second-derivative and stationary-phase checks, the
combinatorial von Mangoldt decomposition, and the weighted-versus-classical
prime-sum discrepancy with its alpha scans. A scan evaluates each rational
alpha = a/q exactly, from the weights summed over the residue classes mod q.

Every reduction is an exactly rounded sum, math.fsum of an expansion from
``numeric._exact_parts`` (exact extraction, repeated until nothing
remains), so every result is deterministic. Every direct exponential sum,
the stationary-phase sum of b_process_compare included, goes through
``_weighted_parts``: its caller's ``terms(lo, hi)`` forms the weights and
phases of _FSUM_CHUNK terms at a time, and the kernel adds the expansion of
each chunk and rounds once. Its memory is a few chunks however many the
terms, and the digits are those of one sum over them all.
The central sum reads Lambda only at the prime powers (``sieve._prime_powers``),
and each call sums a block of h, one per row of its phases.
The von Mangoldt decomposition builds its coefficients exactly in integers,
each array in the narrowest dtype its bound allows, and takes one float step,
a convolution with log. Its Dirichlet convolutions take O(sqrt(n)) slice
operations and add the terms of each entry in the order of a plain divisor
loop, so the float one is bit-identical to that loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numeric import _FSUM_CHUNK, GammaExponent, _exact_parts, _group_fsums, _iroot
from .numeric import fsum_array, unit_exp_parts
from .pspseq import _member_from_t
from .sieve import _prime_powers, mobius_array, shared_table

# Largest work of theorem_sum, in phase terms: H*P, P from _prime_power_bound.
# At the limit, through the CLI (2-core x86-64 VM, Python 3.11, numpy 2.4):
# 74 s at x = 16, H = 58823529, where rounding each h's sum is most of the
# time; 32 s at x = 1024, H = 2932551; 28 s at x = 2^23, H = 946.
_MAX_THEOREM_TERMS = 10 ** 9
# Largest N of vdc_bound_check and b_process_compare, and largest number of
# stationary points of b_process_compare and of (m, n) pairs of bilinear_sum.
# The sums stream, so these bound time, not memory. Through the CLI on a
# 2-core x86-64 VM: vdc and bprocess at N = 2^24 take ~1 s and 31 MB, and
# bprocess with 2^24 stationary points 1.2-1.4 s and 32 MB at N = 1024, ~2 s
# at N = 2^24; bilinear 1.1 s and 31 MB at M = 1, N = 2^24 (3.0 s and
# 159 MB with --bn log, whose coefficients are one float64 array); at
# M = 2^24, N = 1, 0.2 s when no m*n lies in (x, 2x] but about 6 minutes when
# every m does (its per-m loop, which _MAX_BILINEAR_ROWS rejects).
_MAX_DIRECT_TERMS = 1 << 24
# Largest number of rows (h, m) of bilinear_sum's Python loop, 10 to 30 us
# each: 2^17 rows at N = 1 take ~2.4 s and 40 MB through the CLI on the same VM.
_MAX_BILINEAR_ROWS = 1 << 17
_MAX_VAALER_H = 10 ** 6  # expsum vaaler prints H + 1 rows: 8.7 s, 480 MB at 10^6


class ResourceGuardError(ValueError):
    """Requested evaluation exceeds a fixed term or memory budget."""


def _check_terms(what: str, n: int, limit: int) -> None:
    if n > limit:
        raise ResourceGuardError(f"{what} = {n} exceeds the limit {limit}")


def check_bilinear_size(M: int, N: int, x: int, h_weights: dict[int, float]) -> None:
    """ValueError for M or N below 1; ResourceGuardError if bilinear_sum would visit too much.

    The limits are 2^24 (m, n) pairs, and 2^17 rows of its loop: the m that
    put some m*n in (x, 2x], once per nonzero delta_h.
    """
    if M < 1 or N < 1:
        raise ValueError("an m or n range is empty: M and N must be at least 1")
    _check_terms("M*N", M * N, _MAX_DIRECT_TERMS)
    nonzero_h = sum(d != 0.0 for d in h_weights.values())
    _check_terms("rows", len(_bilinear_rows(M, N, x)) * nonzero_h, _MAX_BILINEAR_ROWS)


def _bilinear_rows(M: int, N: int, x: int) -> range:
    """The m in (M, 2M] with some n in (N, 2N] and m*n in (x, 2x].

    Each m here has x // m < 2N and N < 2x // m, and m <= 2x // (N + 1) <= x
    gives x // m < 2x // m: the run of n in bilinear_sum is never empty.
    """
    return range(max(M, x // (2 * N)) + 1, min(2 * M, 2 * x // (N + 1)) + 1)


@dataclass(frozen=True)
class ExpSumSpec:
    """The central sum's phase alpha*n + h*(n+u)^gamma, n in (x, 2x], h in (H, 2H]."""

    alpha: float
    g: GammaExponent
    u: float
    x: int
    H: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.u <= 1.0:
            raise ValueError(f"u must lie in [0, 1], got {self.u}")
        if self.x < 16:
            raise ValueError(f"x must be >= 16, got {self.x}")
        if self.H < 1:
            raise ValueError(f"H must be >= 1, got {self.H}")


def _weighted_parts(size, terms):
    """Exactly rounded (re, im) of the sum over i < size of w_i * e(t_i).

    terms(lo, hi) returns the weights, a scalar or an array, and the float64
    phases of terms lo to hi - 1. It is called _FSUM_CHUNK terms at a time,
    so the temporaries stay a few chunks long however large size is: the
    expansions of the products of each chunk (numeric._exact_parts) are
    concatenated, and math.fsum rounds them once, to the bits of math.fsum
    over all the terms. Phases of shape (rows, hi - lo), one row or one chunk
    in all, give lists of each row's re and im.

    From 2^52 on, float64 spacing is a whole turn and e(phase) would read 1,
    so a phase that is not finite or reaches 2^52 raises ValueError. Terms
    are formed under np.errstate(over="ignore", invalid="ignore"): a phase
    that overflowed is inf or nan, and is rejected here without a numpy warning.
    """
    re, im = [], []  # the expansions of the sums: floats, or arrays of one float per row
    for lo in range(0, size, _FSUM_CHUNK):
        with np.errstate(over="ignore", invalid="ignore"):
            w, t = terms(lo, min(lo + _FSUM_CHUNK, size))
        if not max(t.max(initial=0.0), -t.min(initial=0.0)) < 2.0 ** 52:  # also nan
            raise ValueError("phases must be finite and below 2^52 in magnitude")
        cos, sin = unit_exp_parts(t)
        cos *= w  # in place, with the bits of w * cos
        sin *= w
        re += _exact_parts(cos)
        im += _exact_parts(sin)
    if re and isinstance(re[0], np.ndarray):  # rows: column r is row r's expansion
        return tuple([math.fsum(row) for row in np.array(s).T.tolist()] for s in (re, im))
    return math.fsum(re), math.fsum(im)


def _weighted_abs_sum(weights: np.ndarray, ns, phase) -> float:
    """|sum over n in ns of w_n * e(phase(n))|, each part exactly rounded (_weighted_parts)."""
    return math.hypot(*_weighted_parts(len(ns), lambda lo, hi: (weights[lo:hi], phase(ns[lo:hi]))))


def theorem_sum(spec: ExpSumSpec, scaled: bool = False) -> float:
    """Sum over h of |sum over n of Lambda(n) e(alpha*n + h*(n+u)^gamma)|.

    With scaled=True the result is multiplied by min(1, x^(1-gamma)/H).
    The inner sums and the sum over h are exactly rounded, a block of h per call.
    """
    _check_terms("phase terms", spec.H * _prime_power_bound(spec.x), _MAX_THEOREM_TERMS)
    ns, w = _prime_powers(spec.x, 2 * spec.x)  # the n with Lambda(n) != 0, once checked
    gam = spec.g.gamma
    pow_u = (ns + spec.u) ** gam
    step = max(1, _FSUM_CHUNK // len(ns))  # h per call: rows of at most a chunk, or one

    def block(h: int):  # |S_h| for h in [h, h + step), up to 2H
        rows = np.arange(h, min(h + step, 2 * spec.H + 1), dtype=np.float64)[:, None]
        terms = lambda lo, hi: (w[lo:hi], spec.alpha * ns[lo:hi] + rows * pow_u[lo:hi])
        return map(math.hypot, *_weighted_parts(len(ns), terms))

    total = math.fsum(s for h in range(spec.H + 1, 2 * spec.H + 1, step) for s in block(h))
    if scaled:
        total *= min(1.0, spec.x ** (1.0 - gam) / spec.H)
    return total


def _prime_power_bound(x: int) -> int:
    """An upper bound on the prime powers in (x, 2x], x >= 16: at most 2x/log x primes
    (Montgomery and Vaughan, Mathematika 20, 1973), taken with log x cut to 3 decimals so
    any x stays in integers, and at most one higher power per p <= sqrt(2x)."""
    return -(-2000 * x // math.floor(1000 * math.log(x))) + math.isqrt(2 * x)


def bilinear_sum(
    kind: str,
    a_coeffs,
    b_coeffs,
    M: int,
    N: int,
    *,
    alpha: float,
    g: GammaExponent,
    u: float,
    x: int,
    h_weights: dict[int, float],
) -> float:
    """|sum over h, m, n of delta_h a_m b_n e(alpha*mn + h*(mn+u)^gamma)|, mn in (x, 2x].

    m runs over (M, 2M] and n over (N, 2N]; a_coeffs and b_coeffs hold a_m
    and b_n in that order. kind 'TypeI' admits b_n up to max(1, log(4N))
    (smooth/log coefficients); 'TypeII' requires |b_n| <= 1. Coefficient
    bound violations are rejected, and so are sizes beyond the limits of
    check_bilinear_size.
    """
    if kind not in ("TypeI", "TypeII"):
        raise ValueError(f"kind must be TypeI or TypeII, got {kind!r}")
    check_bilinear_size(M, N, x, h_weights)
    a = np.asarray(a_coeffs, dtype=np.float64)
    b = np.asarray(b_coeffs, dtype=np.float64)
    if len(a) != M or len(b) != N:
        raise ValueError("coefficient arrays must have lengths M and N")
    tol = 1e-12
    # max |c| without a temporary as long as c; written as <= so that nan fails
    if not max(a.max(), -a.min()) <= 1.0 + tol:
        raise ValueError("need |a_m| <= 1")
    b_cap = 1.0 if kind == "TypeII" else max(1.0, math.log(4 * N))
    if not max(b.max(), -b.min()) <= b_cap + tol:
        raise ValueError(f"need |b_n| <= {b_cap:g} for {kind}")
    if not all(abs(d) <= 1.0 + tol for d in h_weights.values()):
        raise ValueError("need |delta_h| <= 1")

    gam = g.gamma
    res: list[float] = []
    ims: list[float] = []
    for h in sorted(h_weights):
        delta = h_weights[h]
        if delta == 0.0:
            continue
        for m in _bilinear_rows(M, N, x):
            n0, n1 = max(N, x // m), min(2 * N, 2 * x // m)  # n in (n0, n1]: m*n in (x, 2x]

            def terms(lo, hi):
                p = m * np.arange(n0 + 1 + lo, n0 + 1 + hi, dtype=np.int64)
                return b[n0 - N + lo : n0 - N + hi], alpha * p + h * (p + u) ** gam

            re, im = _weighted_parts(n1 - n0, terms)
            coeff = delta * float(a[m - M - 1])
            res.append(coeff * re)
            ims.append(coeff * im)
    return math.hypot(math.fsum(res), math.fsum(ims))


@dataclass
class VaalerApprox:
    """Trigonometric approximant of the sawtooth with its Fejer-kernel majorant.

    The taper is W(t) = pi*t*(1-|t|)*cot(pi*t) + |t| evaluated at h/(H+1); the
    coefficient a_h = -W(h/(H+1)) / (2*pi*i*h) (conjugate-symmetric), and the
    majorant coefficients b_h = (1 - |h|/(H+1)) / (2H+2) are nonnegative with
    a nonnegative cosine sum.
    """

    H: int
    taper: np.ndarray = field(repr=False)  # W(h/(H+1)) for h = 1..H
    b: np.ndarray = field(repr=False)  # b_h for h = 0..H

    def a_coeff(self, h: int) -> complex:
        if not 0 < abs(h) <= self.H:
            raise ValueError(f"a_h defined for 0 < |h| <= {self.H}, got {h}")
        val = 1j * self.taper[abs(h) - 1] / (2.0 * math.pi * abs(h))
        return val if h > 0 else val.conjugate()

    def b_coeff(self, h: int) -> float:
        if abs(h) > self.H:
            raise ValueError(f"b_h defined for |h| <= {self.H}, got {h}")
        return float(self.b[abs(h)])

    def psi_poly(self, ts: np.ndarray) -> np.ndarray:
        """sum over 0<|h|<=H of a_h e(h t), which is real by symmetry."""
        ts = np.asarray(ts, dtype=np.float64)
        out = np.zeros_like(ts)
        for h in range(1, self.H + 1):
            out -= self.taper[h - 1] / (math.pi * h) * np.sin(2.0 * math.pi * h * ts)
        return out

    def majorant(self, ts: np.ndarray) -> np.ndarray:
        """sum over |h|<=H of b_h e(h t): the scaled Fejer kernel, >= 0."""
        ts = np.asarray(ts, dtype=np.float64)
        out = np.full_like(ts, float(self.b[0]))
        for h in range(1, self.H + 1):
            out += 2.0 * self.b[h] * np.cos(2.0 * math.pi * h * ts)
        return out


def vaaler_coeffs(H: int) -> VaalerApprox:
    """Explicit sawtooth approximant of degree H with |a_h| <= 1/(pi*h), b_h <= 2/H."""
    if H < 1:
        raise ValueError(f"H must be >= 1, got {H}")
    _check_terms("H", H, _MAX_VAALER_H)
    hs = np.arange(1, H + 1, dtype=np.float64)
    t = hs / (H + 1.0)
    taper = math.pi * t * (1.0 - t) / np.tan(math.pi * t) + t
    b = (1.0 - np.arange(0, H + 1, dtype=np.float64) / (H + 1.0)) / (2.0 * H + 2.0)
    return VaalerApprox(H=H, taper=taper, b=b)


@dataclass
class VdcCheck:
    lhs: float
    rhs_unit: float
    empirical_c: float
    lam: float


def vdc_bound_check(h: float, g: GammaExponent, alpha: float, N: int) -> VdcCheck:
    """Second-derivative test: |sum e(h n^gamma + alpha n)| against N*sqrt(lam)+1/sqrt(lam).

    lam is the curvature scale gamma*(1-gamma)*|h|*N^(gamma-2) of the phase on
    (N, 2N]; empirical_c is the observed ratio.
    """
    if h == 0:
        raise ValueError("h = 0 gives a degenerate (curvature-free) phase")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    _check_terms("N", N, _MAX_DIRECT_TERMS)
    gam = g.gamma
    lam = gam * (1.0 - gam) * abs(h) * float(N) ** (gam - 2.0)
    if lam <= 0.0:
        raise ValueError(f"|h| = {abs(h)} is too small: the curvature scale lam underflows to 0")

    def terms(lo, hi):  # n in (N + lo, N + hi]
        n = np.arange(N + 1 + lo, N + 1 + hi, dtype=np.float64)
        return 1.0, h * n ** gam + alpha * n

    lhs = math.hypot(*_weighted_parts(N, terms))
    rhs = N * math.sqrt(lam) + 1.0 / math.sqrt(lam)
    return VdcCheck(lhs=lhs, rhs_unit=rhs, empirical_c=lhs / rhs, lam=lam)


@dataclass
class BProcessCompare:
    direct: complex
    stationary: complex
    error: float
    bound: float
    degenerate: bool
    num_stationary: int


def b_process_compare(
    h: float,
    g: GammaExponent,
    N: int,
    interval: tuple[float, float] | None = None,
) -> BProcessCompare:
    """Compare a concave-phase sum with its stationary-phase main term.

    Phase f(n) = h*n^gamma on [a, b] within (N, 2N] (so f'' < 0). The main
    term sums e(-phi(nu) - 1/8)/sqrt(|f''(x_nu)|) over integers nu in
    [f'(b), f'(a)], with f'(x_nu) = nu in closed form (clipped to [a, b]);
    the reference error unit is log(F/N + 2) + N/sqrt(F) with F = h*N^gamma.
    Both sums stream through _weighted_parts: x_nu, its weight and its phase
    are formed a chunk of nu at a time. More than _MAX_DIRECT_TERMS such nu
    raise ResourceGuardError before any work is done.
    """
    if h <= 0:
        raise ValueError(f"h must be positive for a concave phase, got {h}")
    _check_terms("N", N, _MAX_DIRECT_TERMS)
    a, b = interval if interval is not None else (N + 1, 2 * N)
    if not (N < a <= b <= 2 * N):
        raise ValueError(f"interval [{a}, {b}] must sit inside ({N}, {2 * N}]")
    gam = g.gamma
    fp = lambda t: gam * h * t ** (gam - 1.0)  # decreasing on [a, b]
    nu_lo, nu_hi = math.ceil(fp(b)), math.floor(fp(a))
    points = max(0, nu_hi - nu_lo + 1)
    if points > _MAX_DIRECT_TERMS:
        raise ResourceGuardError(
            f"{float(points):.3g} stationary points exceed the budget "
            f"of {_MAX_DIRECT_TERMS}; lower h or narrow the interval"
        )

    n0 = math.ceil(a)
    direct_terms = lambda lo, hi: (1.0, h * np.arange(n0 + lo, n0 + hi, dtype=np.float64) ** gam)
    direct = complex(*_weighted_parts(math.floor(b) + 1 - n0, direct_terms))

    def stationary_terms(lo, hi):  # nu in [nu_lo + lo, nu_lo + hi)
        nus = nu_lo + np.arange(lo, hi, dtype=np.float64)
        x = np.clip((nus / (gam * h)) ** (1.0 / (gam - 1.0)), a, b)  # f'(x) = nu
        weights = 1.0 / np.sqrt(np.abs(gam * (gam - 1.0) * h * x ** (gam - 2.0)))
        return weights, h * x ** gam - nus * x - 0.125  # -phi(nu) - 1/8

    stationary = complex(*_weighted_parts(points, stationary_terms))

    F = h * float(N) ** gam
    bound = math.log(F / N + 2.0) + N / math.sqrt(F)
    return BProcessCompare(
        direct=direct,
        stationary=stationary,
        error=abs(direct - stationary),
        bound=bound,
        degenerate=F < 1.0,
        num_stationary=points,
    )


# Largest x hb_terms accepts. At its peak, a Horner step of _hb_coefficients,
# it holds mu_Z in int8, U in int16 and two int64 sums, 19 bytes per entry of
# [0, 2x], and its peak memory grows by about 36 bytes per unit of x. Through
# `hb verify` at J = 3 (2-core x86-64 VM, Python 3.11): 0.8 s and 65 MB at
# x = 10^6, 4.6 s and 175 MB at the limit.
_MAX_HB_X = 1 << 22


@dataclass(frozen=True)
class HbParams:
    """Shape of the combinatorial decomposition: J folds, cutoff Z, dyadic base x."""

    J: int
    x: int
    Z: int

    def __post_init__(self) -> None:
        if not 1 <= self.J <= 4:
            raise ValueError(f"J must lie in [1, 4], got {self.J}")
        if self.Z < 2 or self.x < 2:
            raise ValueError("need Z >= 2 and x >= 2")
        if self.Z ** self.J < 2 * self.x:
            raise ValueError(
                f"identity invalid: Z^J = {self.Z ** self.J} < 2x = {2 * self.x}"
            )


def _dirichlet(f: np.ndarray, g: np.ndarray, hi: int) -> np.ndarray:
    """Dirichlet convolution (f*g)(n) for n <= hi; f, g indexed from 0.

    The output has dtype np.result_type(f, g). Each out[n] adds f[d]*g[n/d]
    over the divisors d of n in ascending order, in O(sqrt(hi)) slice
    operations: one slice per d <= s = isqrt(hi), then one strided slice per
    cofactor k <= hi/(s + 1) over the d > s, with k descending so that d
    still ascends. Terms with f[d] = 0 are added too: adding +-0 to an
    accumulator that starts at +0.0 never changes its bits. Each slice product
    is formed _FSUM_CHUNK entries at a time, so no temporary is as long as f.
    """
    nz = np.flatnonzero(f[: hi + 1])
    top = int(nz[-1]) if nz.size else 0  # the last d with f[d] != 0
    del nz  # as long as f when f is dense: it would add to the peak
    out = np.zeros(hi + 1, dtype=np.result_type(f, g))
    s = math.isqrt(hi)
    for d in range(1, min(s, top) + 1):
        _add_scaled(out[d :: d], f[d], g[1 : hi // d + 1])
    for k in range(hi // (s + 1), 0, -1):
        e = min(hi // k, top)
        if e > s:
            _add_scaled(out[k * (s + 1) : k * e + 1 : k], g[k], f[s + 1 : e + 1])
    return out


def _add_scaled(out: np.ndarray, c, v: np.ndarray) -> None:
    """out += c * v in place for a scalar c, _FSUM_CHUNK entries at a time."""
    for lo in range(0, out.size, _FSUM_CHUNK):
        out[lo : lo + _FSUM_CHUNK] += c * v[lo : lo + _FSUM_CHUNK]


def _hb_coefficients(params: HbParams) -> np.ndarray:
    """A = sum over j of c_j mu_Z^(*j) * 1^(*(j-1)) on [0, 2x], exactly, as int64.

    Here c_j = (-1)^(j-1) C(J,j) and mu_Z is mu restricted to [1, Z]. With
    U = mu_Z * 1, A = mu_Z * (sum of c_j U^(*(j-1))), built by Horner's rule;
    U is built only for J >= 2, so hb_terms takes J + 1 convolutions then and
    one at J = 1. A = mu on [1, Z^J]: A * 1 = delta - (delta - U)^(*J), and
    delta - U vanishes on [1, Z], so its J-fold power vanishes on [1, Z^J].
    Every partial sum is at most 2^J d_(2J-1)(n) in absolute value, and for
    n <= 2^23 and J = 4 that is below 16 * 2.2e8 < 2^32, far inside int64.
    mu_Z is held in int8 and U, with |U(n)| <= d(n) <= 432 for n <= 2^23
    (d(7207200) = 432), in int16; _narrow checks that cast.
    """
    hi = 2 * params.x
    mu = mobius_array(min(params.Z, hi))  # mu is read on [1, min(Z, 2x)] only
    mu_z = np.zeros(hi + 1, dtype=np.int8)
    mu_z[1 : mu.size] = mu[1:]
    c = [(-1) ** (j - 1) * math.comb(params.J, j) for j in range(1, params.J + 1)]
    a = np.multiply(mu_z, c[-1], dtype=np.int64)
    if params.J > 1:
        ones = np.broadcast_to(np.int64(1), (hi + 1,))  # 1 without an array
        u = _narrow(_dirichlet(mu_z, ones, hi), np.int16)
    for cj in reversed(c[:-1]):
        a = _dirichlet(a, u, hi)
        a += cj * mu_z
    return a


def _narrow(a: np.ndarray, dtype) -> np.ndarray:
    """a cast to an integer dtype; ArithmeticError, not a silent wrap, if one does not fit."""
    info = np.iinfo(dtype)
    if a.size and not info.min <= a.min() <= a.max() <= info.max:
        raise ArithmeticError(f"entries in [{a.min()}, {a.max()}] do not fit in {info.dtype}")
    return a.astype(dtype)


def hb_terms(params: HbParams) -> np.ndarray:
    """The alternating convolution identity for Lambda, as one array on [0, 2x].

    Lambda = A * log with A = sum over j of (-1)^(j-1) C(J,j) (mu restricted
    to [1,Z])^(*j) * 1^(*(j-1)), for n <= Z^J, hence on all of (x, 2x]. A is
    built exactly in integers (_hb_coefficients); the one float step is
    A * log. x above _MAX_HB_X raises ResourceGuardError before any array is
    allocated.

    Since A = mu on [1, 2x], each term A(d) log(n/d) is 0 or +-log(n/d), with
    the rounding of np.log alone (within 2^-52, relative); adding the d(n)
    terms adds at most d(n) - 1 roundings of 2^-53. So the error at n is at
    most about d(n)^2 * 2^-53 * log(2x): for n <= 2^23, where d(n) <= 432,
    below 3.4e-10, under the 1e-9 tolerance of `hb verify`.
    """
    if params.x > _MAX_HB_X:
        raise ResourceGuardError(
            f"x = {params.x} exceeds the Heath-Brown limit 2^22; "
            "memory grows by about 36 bytes per unit of x"
        )
    a = _narrow(_hb_coefficients(params), np.int8)  # A = mu on [1, 2x]
    hi = 2 * params.x
    log = np.arange(hi + 1, dtype=np.float64)
    np.log(log[1:], out=log[1:])  # in place; log[0] = 0 is never read
    return _dirichlet(a, log, hi)


def min_valid_cutoff(x: int, J: int) -> int:
    """Smallest Z with Z^J >= 2x."""
    if J < 1:
        raise ValueError(f"J must be >= 1, got {J}")
    return _iroot(2 * x - 1, J)[0] + 1


def bf_discrepancy(nmax: int, c: float, alpha: float) -> float:
    """|T(alpha)|: |weighted member sum - classical sum| for the prime exponential sum.

    The weighted side carries c*p^(1-gamma)*log(p) over member primes; the
    classical side is sum of log(p) e(alpha p) over all primes <= nmax. Any
    float alpha is taken, by a direct sum over the primes with float phases
    fl(alpha*p), exactly rounded.
    """
    w = _bf_weight_vector(nmax, c)
    ps = shared_table(nmax).primes(nmax)
    return _weighted_abs_sum(w, ps, lambda p: alpha * p.astype(np.float64))


def _bf_weight_vector(nmax: int, c: float) -> np.ndarray:
    """w_p = c*log(p)*[p a member]/t - log(p), with the one power t = p^(gamma-1)."""
    gam = GammaExponent.from_c(c).gamma
    ps = shared_table(nmax).primes(nmax)
    pf = ps.astype(np.float64)
    t = pf ** (gam - 1.0)
    logp = np.log(pf)
    return c * logp * _member_from_t(ps, pf, t, gam, int(ps[0]), int(ps[-1])) / t - logp


@dataclass
class AlphaScanResult:
    max_discrepancy: float
    argmax_alpha: float
    rows: list[tuple[float, float]]


def alpha_scan(nmax: int, c: float, grid_size: int) -> AlphaScanResult:
    """Worst-case |T| over an equispaced alpha grid plus small rationals.

    The alphas are the i/grid_size on [0, 1) and every a/q for q <= 20; each
    row is T at the exact rational a/q, in lowest terms, beside its float.
    There e(a*p/q) depends on p mod q only, so T(a/q) = sum over r mod q of
    W_r e(a*r/q), where W_r, the weight of the primes p = r (mod q), is one
    exactly rounded group sum per denominator. With the one table e(k/q),
    k < q, each row takes the exactly rounded real and imaginary parts over
    the r with W_r != 0. A row thus depends on (nmax, c, a/q) only, whatever
    grid_size, and the work is one pass over the primes per denominator plus
    about q terms per numerator. The maximiser reported is the first
    (smallest alpha) in case of ties.
    """
    if not 1 <= grid_size <= 10 ** 4:
        raise ValueError(f"grid_size must lie in [1, 10^4], got {grid_size}")
    numerators: dict[int, set[int]] = {}  # denominator -> numerators, in lowest terms
    pairs = [(i, grid_size) for i in range(grid_size)]
    for a, q in pairs + [(a, q) for q in range(1, 21) for a in range(q)]:
        g = math.gcd(a, q)
        numerators.setdefault(q // g, set()).add(a // g)
    w = _bf_weight_vector(nmax, c)
    ps = shared_table(nmax).primes(nmax)
    values: dict[float, float] = {}
    for q, nums in numerators.items():
        big_w = _group_fsums(w, ps % q, q)
        ks = np.flatnonzero(big_w)
        big_w = big_w[ks]
        cos, sin = unit_exp_parts(np.arange(q) / q)
        half: dict[int, float] = {}  # |T(a/q)| = |T((q - a)/q)|: w is real
        for a in nums:
            b = min(a, q - a)
            if b not in half:
                k = b * ks % q
                half[b] = math.hypot(fsum_array(big_w * cos[k]), fsum_array(big_w * sin[k]))
            values[a / q] = half[b]
    rows = sorted(values.items())
    best = max(range(len(rows)), key=lambda i: (rows[i][1], -i))
    return AlphaScanResult(
        max_discrepancy=rows[best][1], argmax_alpha=rows[best][0], rows=rows
    )
