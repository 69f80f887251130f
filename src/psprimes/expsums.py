"""Direct numerical evaluation of the exponential-sum machinery.

Everything here evaluates sums term by term (no asymptotics): the central
weighted sum over dyadic ranges, bilinear model sums, the trigonometric
sawtooth approximation, second-derivative and stationary-phase checks, the
combinatorial von Mangoldt decomposition, and the weighted-versus-classical
prime-sum discrepancy with its alpha scans.

Every reduction is an exactly rounded sum (``numeric.fsum_array``: exact
extraction, repeated until nothing remains, equal to math.fsum), so every
result is deterministic. The von Mangoldt decomposition builds its
coefficients exactly in int64 and takes one float step, a convolution with
log. Its Dirichlet convolutions take O(sqrt(n)) slice operations and add the
terms of each entry in the order of a plain divisor loop, so the float one is
bit-identical to that loop.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .numeric import GammaExponent, _iroot, fsum_array, unit_exp, unit_exp_parts
from .pspseq import _ps_member_at
from .sieve import lambda_array, mobius_array, shared_table

# Largest x*H theorem_sum accepts (its work is about pi(2x)*H phase terms).
_MAX_XH = 10 ** 13
# Largest N of vdc_bound_check and b_process_compare, and largest number of
# (m, n) pairs of bilinear_sum. Through the CLI on a 2-core x86-64 VM: N = 2^24
# takes ~3.3 s and 675 MB; bilinear 3.4 s and 580 MB at M = 1, N = 2^24 (8 s,
# 1.1 GB with --bn log); at M = 2^24, N = 1, 1.2 s when no m*n lies in
# (x, 2x] but 382 s and 1.6 GB when every m does (its per-m loop).
_MAX_DIRECT_TERMS = 1 << 24
# Largest number of rows (h, m) of bilinear_sum's Python loop, 20 to 30 us
# each: 2^17 rows at N = 1 take ~4 s and 44 MB through the CLI on the same VM.
_MAX_BILINEAR_ROWS = 1 << 17
_MAX_VAALER_H = 10 ** 6  # expsum vaaler prints H + 1 rows: 8.7 s, 480 MB at 10^6


class ResourceGuardError(ValueError):
    """Requested evaluation exceeds a fixed term or memory budget."""


def _check_terms(what: str, n: int, limit: int) -> None:
    if n > limit:
        raise ResourceGuardError(f"{what} = {n} exceeds the limit {limit}")


def check_bilinear_size(
    m_range: range, n_range: range, x: int, h_weights: dict[int, float]
) -> None:
    """ResourceGuardError if bilinear_sum would visit too much.

    The limits are 2^24 (m, n) pairs, and 2^17 rows of its loop: the m that
    can put some m*n in (x, 2x], once per nonzero delta_h.
    """
    _check_terms("M*N", len(m_range) * len(n_range), _MAX_DIRECT_TERMS)
    nonzero_h = sum(d != 0.0 for d in h_weights.values())
    rows = len(_bilinear_rows(m_range, n_range, x)) * nonzero_h
    _check_terms("rows", rows, _MAX_BILINEAR_ROWS)


def _bilinear_rows(m_range: range, n_range: range, x: int) -> range:
    """Indices i of the m = m_range[i] that bilinear_sum's loop visits."""
    n_lo, n_hi = sorted((n_range[0], n_range[-1])) if n_range else (0, 0)
    if n_lo < 1 or m_range.step < 0:
        return range(len(m_range))
    # some m*n lies in (x, 2x] only if x // max(n) < m <= 2x // min(n)
    return range(bisect_right(m_range, x // n_hi), bisect_right(m_range, 2 * x // n_lo))


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


def _weighted_parts(weights, phase: np.ndarray) -> tuple[float, float]:
    """Exactly rounded (re, im) of sum of weights * e(phase); weights may be a scalar.

    From 2^52 on, float64 spacing is a whole turn and e(phase) would read 1,
    so a phase that is not finite or reaches 2^52 raises ValueError. Callers
    form phases under np.errstate(over="ignore", invalid="ignore"): one that
    overflowed is inf or nan, and is rejected here without a numpy warning.
    """
    if not max(phase.max(initial=0.0), -phase.min(initial=0.0)) < 2.0 ** 52:  # also nan
        raise ValueError("phases must be finite and below 2^52 in magnitude")
    cos, sin = unit_exp_parts(phase)
    cos *= weights  # in place, with the bits of weights * cos
    sin *= weights
    return fsum_array(cos), fsum_array(sin)


def _weighted_abs_sum(weights: np.ndarray, phase: np.ndarray) -> float:
    """|sum of weights * e(phase)|, each part exactly rounded."""
    return math.hypot(*_weighted_parts(weights, phase))


def theorem_sum(spec: ExpSumSpec, scaled: bool = False) -> float:
    """Sum over h of |sum over n of Lambda(n) e(alpha*n + h*(n+u)^gamma)|.

    With scaled=True the result is multiplied by min(1, x^(1-gamma)/H).
    The inner sums and the sum over h, in increasing h, are exactly rounded.
    """
    _check_terms("x*H", spec.x * spec.H, _MAX_XH)
    lam = lambda_array(2 * spec.x)
    ns = np.arange(spec.x + 1, 2 * spec.x + 1, dtype=np.int64)
    w = lam[ns]
    keep = w > 0
    ns, w = ns[keep], w[keep]
    gam = spec.g.gamma
    pow_u = (ns + spec.u) ** gam
    hs = range(spec.H + 1, 2 * spec.H + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        alpha_n = spec.alpha * ns
        total = math.fsum([_weighted_abs_sum(w, alpha_n + h * pow_u) for h in hs])
    if scaled:
        total *= min(1.0, spec.x ** (1.0 - gam) / spec.H)
    return total


def bilinear_sum(
    kind: str,
    a_coeffs,
    b_coeffs,
    m_range: range,
    n_range: range,
    *,
    alpha: float,
    g: GammaExponent,
    u: float,
    x: int,
    h_weights: dict[int, float],
) -> float:
    """|sum over h, m, n of delta_h a_m b_n e(alpha*mn + h*(mn+u)^gamma)|, mn in (x, 2x].

    kind 'TypeI' admits b_n up to max(1, log(2N)) (smooth/log coefficients);
    'TypeII' requires |b_n| <= 1. Coefficient bound violations are rejected,
    and so are sizes beyond the limits of check_bilinear_size.
    """
    if kind not in ("TypeI", "TypeII"):
        raise ValueError(f"kind must be TypeI or TypeII, got {kind!r}")
    check_bilinear_size(m_range, n_range, x, h_weights)
    a = np.asarray(a_coeffs, dtype=np.float64)
    b = np.asarray(b_coeffs, dtype=np.float64)
    if len(a) != len(m_range) or len(b) != len(n_range):
        raise ValueError("coefficient arrays must align with their ranges")
    tol = 1e-12
    # written as <= so that nan fails
    if not np.all(np.abs(a) <= 1.0 + tol):
        raise ValueError("need |a_m| <= 1")
    b_cap = 1.0 if kind == "TypeII" else max(1.0, math.log(2 * max(n_range)))
    if not np.all(np.abs(b) <= b_cap + tol):
        raise ValueError(f"need |b_n| <= {b_cap:g} for {kind}")
    if not all(abs(d) <= 1.0 + tol for d in h_weights.values()):
        raise ValueError("need |delta_h| <= 1")

    ns = np.fromiter(n_range, dtype=np.int64)
    gam = g.gamma
    res: list[float] = []
    ims: list[float] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for h in sorted(h_weights):
            delta = h_weights[h]
            if delta == 0.0:
                continue
            for i in _bilinear_rows(m_range, n_range, x):
                m = m_range[i]
                prod = m * ns
                mask = (prod > x) & (prod <= 2 * x)
                if not mask.any():
                    continue
                sel = prod[mask]
                re, im = _weighted_parts(b[mask], alpha * sel + h * (sel + u) ** gam)
                coeff = delta * float(a[i])
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
    ns = np.arange(N + 1, 2 * N + 1, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = math.hypot(*_weighted_parts(1.0, h * ns.astype(np.float64) ** gam + alpha * ns))
    lam = gam * (1.0 - gam) * abs(h) * float(N) ** (gam - 2.0)
    rhs = N * math.sqrt(lam) + 1.0 / math.sqrt(lam)
    return VdcCheck(lhs=lhs, rhs_unit=rhs, empirical_c=lhs / rhs, lam=lam)


# Stationary points solved per b_process_compare call: each costs ~15 us
# (bisection plus Newton polish; x86-64, Python 3.11), so an accepted call
# spends at most ~1.5 s on them.
_MAX_STATIONARY_TERMS = 10 ** 5


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
    [f'(b), f'(a)] with f'(x_nu) = nu solved by bisection plus Newton polish;
    the reference error unit is log(F/N + 2) + N/sqrt(F) with F = h*N^gamma.
    More than _MAX_STATIONARY_TERMS such nu raise ResourceGuardError before
    any work is done.
    """
    if h <= 0:
        raise ValueError(f"h must be positive for a concave phase, got {h}")
    _check_terms("N", N, _MAX_DIRECT_TERMS)
    a, b = interval if interval is not None else (N + 1, 2 * N)
    if not (N < a <= b <= 2 * N):
        raise ValueError(f"interval [{a}, {b}] must sit inside ({N}, {2 * N}]")
    gam = g.gamma
    fp = lambda t: gam * h * t ** (gam - 1.0)  # decreasing on [a, b]
    nu_lo = math.ceil(fp(b))
    nu_hi = math.floor(fp(a))
    if nu_hi - nu_lo + 1 > _MAX_STATIONARY_TERMS:
        raise ResourceGuardError(
            f"{float(nu_hi - nu_lo + 1):.3g} stationary points exceed the budget "
            f"of {_MAX_STATIONARY_TERMS}; lower h or narrow the interval"
        )

    ns = np.arange(math.ceil(a), math.floor(b) + 1, dtype=np.int64)
    direct = complex(*_weighted_parts(1.0, h * ns.astype(np.float64) ** gam))

    terms_re: list[float] = []
    terms_im: list[float] = []
    for nu in range(nu_lo, nu_hi + 1):
        x_nu = _stationary_point(gam, h, float(nu), float(a), float(b))
        phi = -h * x_nu ** gam + nu * x_nu
        curv = abs(gam * (gam - 1.0) * h * x_nu ** (gam - 2.0))
        z = unit_exp(-phi - 0.125) / math.sqrt(curv)
        terms_re.append(z.real)
        terms_im.append(z.imag)
    stationary = complex(math.fsum(terms_re), math.fsum(terms_im))

    F = h * float(N) ** gam
    bound = math.log(F / N + 2.0) + N / math.sqrt(F)
    return BProcessCompare(
        direct=direct,
        stationary=stationary,
        error=abs(direct - stationary),
        bound=bound,
        degenerate=F < 1.0,
        num_stationary=len(terms_re),
    )


def _stationary_point(gam: float, h: float, nu: float, a: float, b: float) -> float:
    """Solve gam*h*t^(gam-1) = nu on [a, b] to ~1e-13 relative (monotone)."""
    lo, hi = a, b
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if gam * h * mid ** (gam - 1.0) >= nu:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(3):
        val = gam * h * x ** (gam - 1.0) - nu
        slope = gam * (gam - 1.0) * h * x ** (gam - 2.0)
        x = min(max(x - val / slope, a), b)
    return x


# Largest x hb_terms accepts. At its peak it holds five int64 arrays of
# length 2x (a Horner step of _hb_coefficients), and its peak memory grows by
# about 75 bytes per unit of x. Through `hb verify` at J = 3 (2-core x86-64
# VM, Python 3.11): 0.8 s and 91 MB at x = 10^6, 4.4 s and 317 MB at the limit.
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
    accumulator that starts at +0.0 never changes its bits.
    """
    nz = np.flatnonzero(f[: hi + 1])
    top = int(nz[-1]) if nz.size else 0  # the last d with f[d] != 0
    del nz  # as long as f when f is dense: it would add to the peak
    out = np.zeros(hi + 1, dtype=np.result_type(f, g))
    s = math.isqrt(hi)
    for d in range(1, min(s, top) + 1):
        out[d :: d] += f[d] * g[1 : hi // d + 1]
    for k in range(hi // (s + 1), 0, -1):
        e = min(hi // k, top)
        if e > s:
            out[k * (s + 1) : k * e + 1 : k] += f[s + 1 : e + 1] * g[k]
    return out


def _hb_coefficients(params: HbParams) -> np.ndarray:
    """A = sum over j of c_j mu_Z^(*j) * 1^(*(j-1)) on [0, 2x], exactly, as int64.

    Here c_j = (-1)^(j-1) C(J,j) and mu_Z is mu restricted to [1, Z]. With
    U = mu_Z * 1, A = mu_Z * (sum of c_j U^(*(j-1))), built by Horner's rule;
    U is built only for J >= 2, so hb_terms takes J + 1 convolutions then and
    one at J = 1. A = mu on [1, Z^J]: A * 1 = delta - (delta - U)^(*J), and
    delta - U vanishes on [1, Z], so its J-fold power vanishes on [1, Z^J].
    Every partial sum is at most 2^J d_(2J-1)(n) in absolute value, and for
    n <= 2^23 and J = 4 that is below 16 * 2.2e8 < 2^32, far inside int64.
    """
    hi = 2 * params.x
    mu = mobius_array(min(params.Z, hi))  # mu is read on [1, min(Z, 2x)] only
    mu_z = np.zeros(hi + 1, dtype=np.int64)
    mu_z[1 : mu.size] = mu[1:]
    c = [(-1) ** (j - 1) * math.comb(params.J, j) for j in range(1, params.J + 1)]
    a = c[-1] * mu_z
    if params.J > 1:
        u = _dirichlet(mu_z, np.broadcast_to(np.int64(1), (hi + 1,)), hi)  # 1 without an array
    for cj in reversed(c[:-1]):
        a = _dirichlet(a, u, hi)
        a += cj * mu_z
    return a


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
            "memory grows by about 75 bytes per unit of x"
        )
    a = _hb_coefficients(params)
    hi = 2 * params.x
    log = np.zeros(hi + 1, dtype=np.float64)
    log[1:] = np.log(np.arange(1, hi + 1, dtype=np.float64))
    return _dirichlet(a, log, hi)


def min_valid_cutoff(x: int, J: int) -> int:
    """Smallest Z with Z^J >= 2x."""
    if J < 1:
        raise ValueError(f"J must be >= 1, got {J}")
    return _iroot(2 * x - 1, J)[0] + 1


def bf_discrepancy(nmax: int, c: float, alpha: float) -> float:
    """|weighted member sum - classical sum| for the prime exponential sum.

    The weighted side carries c*p^(1-gamma)*log(p) over member primes; the
    classical side is sum of log(p) e(alpha p) over all primes <= nmax.
    """
    w = _bf_weight_vector(nmax, c)
    return _weighted_abs_sum(w, alpha * shared_table(nmax).primes(nmax).astype(np.float64))


def _bf_weight_vector(nmax: int, c: float) -> np.ndarray:
    g = GammaExponent.from_c(c)
    ps = shared_table(nmax).primes(nmax)
    member = _ps_member_at(ps, g)
    pf = ps.astype(np.float64)
    logp = np.log(pf)
    return c * pf ** (1.0 - g.gamma) * logp * member - logp


@dataclass
class AlphaScanResult:
    max_discrepancy: float
    argmax_alpha: float
    rows: list[tuple[float, float]]


def alpha_scan(nmax: int, c: float, grid_size: int) -> AlphaScanResult:
    """Worst-case discrepancy over an equispaced alpha grid plus small rationals.

    The grid is {i/grid_size} on [0, 1) joined with every a/q for q <= 20;
    the maximiser reported is the first (smallest alpha) in case of ties.
    """
    if not 1 <= grid_size <= 10 ** 4:
        raise ValueError(f"grid_size must lie in [1, 10^4], got {grid_size}")
    w = _bf_weight_vector(nmax, c)
    pf = shared_table(nmax).primes(nmax).astype(np.float64)
    alphas = sorted(
        {i / grid_size for i in range(grid_size)}
        | {a / q for q in range(1, 21) for a in range(q)}
    )
    rows = [(a, _weighted_abs_sum(w, a * pf)) for a in alphas]
    best = max(range(len(rows)), key=lambda i: (rows[i][1], -i))
    return AlphaScanResult(
        max_discrepancy=rows[best][1], argmax_alpha=rows[best][0], rows=rows
    )
