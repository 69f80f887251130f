import ast
import dataclasses
import functools
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from psprimes import pspseq as pq
from psprimes import sieve as sv
from psprimes.numeric import _ARRAY_GUARD_REL, GammaExponent, _pow_parts_array


def member_mask(limit, g):
    """Floor-power membership of 0 <= m <= limit, indexed by m (0 is no member)."""
    return np.concatenate([[False], pq._ps_member_at(np.arange(1, limit + 1, dtype=np.int64), g)])


def brute_member_set(limit, c):
    """Independent generation oracle: collect floor(n^c) up to limit."""
    gamma = 1.0 / c
    n_max = int(math.ceil((limit + 1) ** gamma)) + 2
    vals = _pow_parts_array(np.arange(1, n_max + 1, dtype=np.int64), c)[0]
    out = np.zeros(limit + 1, dtype=bool)
    vals = vals[(vals >= 1) & (vals <= limit)]
    out[vals] = True
    return out


class TestIndicator:
    def test_examples(self):
        g = GammaExponent.from_c(1.5)
        assert pq.ps_indicator(2, g) == 1
        assert pq.ps_indicator(3, g) == 0
        head = [m for m in range(1, 20) if pq.ps_indicator(m, g)]
        assert head == [1, 2, 5, 8, 11, 14, 18]

    def test_c_near_one_all_members(self):
        g = GammaExponent.from_c(1.0 + 1e-9)
        for m in (1, 2, 17, 1000, 9999):
            assert pq.ps_indicator(m, g) == 1

    def test_member_array_matches_generation(self):
        for c in (1.05, 1.5, 1.9):
            g = GammaExponent.from_c(c)
            assert np.array_equal(member_mask(20000, g), brute_member_set(20000, c))

    def test_member_array_matches_scalar(self):
        g = GammaExponent.from_c(1.1)
        ms = np.array(random.Random(9).sample(range(1, 3001), 60), dtype=np.int64)
        for m, member in zip(ms, pq._ps_member_at(ms, g)):
            assert member == bool(pq.ps_indicator(int(m), g))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            pq.ps_indicator(0, GammaExponent.from_c(1.5))


class TestExpansionResidual:
    def test_small_value_finite(self):
        g = GammaExponent.from_c(1.5)
        r = pq.ps_expansion_residual_array(np.array([2]), g)[0]
        assert abs(r) <= 10.0 * 2.0 ** (g.gamma - 2.0)

    def test_bound_on_log_spaced_sample(self):
        for c in (1.05, 1.1):
            g = GammaExponent.from_c(c)
            ms = np.unique(np.logspace(3, 6, 400).astype(np.int64))
            res = pq.ps_expansion_residual_array(ms, g)
            bound = 10.0 * ms.astype(np.float64) ** (g.gamma - 2.0)
            assert np.all(np.abs(res) <= bound)

    def test_array_is_bit_identical_to_two_kernel_calls(self):
        # one call on m and m + 1 together against one call for each
        ms = np.unique(
            np.concatenate(
                [np.arange(2, 3000), np.logspace(3, 9, 500).astype(np.int64), 3 ** np.arange(1, 19)]
            )
        )
        for c in (1.0 + 1e-9, 1.05, 1.5):
            g = GammaExponent.from_c(c)
            gam = g.gamma
            fl0, fr0 = _pow_parts_array(ms, gam)
            fl1, fr1 = _pow_parts_array(ms + 1, gam)
            ind = (fl1 + (fr1 > 0)) - (fl0 + (fr0 > 0))
            psi0 = np.where(fr0 > 0, 0.5 - fr0, -0.5)
            psi1 = np.where(fr1 > 0, 0.5 - fr1, -0.5)
            want = ind.astype(np.float64) - (
                gam * ms.astype(np.float64) ** (gam - 1.0) + psi1 - psi0
            )
            got = pq.ps_expansion_residual_array(ms, g)
            assert got.tobytes() == want.tobytes()

    def test_sawtooth_difference_bounded_by_one(self):
        g = GammaExponent.from_c(1.1)
        ms = np.arange(2, 5000, dtype=np.int64)
        ind = pq._ps_member_at(ms, g).astype(np.float64)
        main = g.gamma * ms.astype(np.float64) ** (g.gamma - 1.0)
        res = pq.ps_expansion_residual_array(ms, g)
        psi_diff = ind - main - res
        assert np.all(np.abs(psi_diff) <= 1.0)


class TestPrimeCount:
    def test_tiny_example(self):
        rep = pq.ps_prime_count(10, 1.5)
        assert rep.count == 2  # primes among {1, 2, 5, 8}

    def test_c_near_one_counts_all_primes(self):
        rep = pq.ps_prime_count(10, 1.0 + 1e-9)
        assert rep.count == 4

    def test_report_fields(self):
        rep = pq.ps_prime_count(10 ** 5, 1.05)
        assert rep.ratio == pytest.approx(rep.count / rep.main_term)
        assert rep.headline_term == pytest.approx((10 ** 5) ** (1 / 1.05) / math.log(10 ** 5))
        assert 0.9 <= rep.ratio <= 1.1

    def test_limit_checked_up_front(self):
        B = pq.BeattyParams.from_label("sqrt2", 0.3)
        for x in (1, 2 ** 34 + 1):
            for count in (
                lambda: pq.ps_prime_count(x, 1.1),
                lambda: pq.ps_prime_count_ap(x, 1.1, 3, 1),
                lambda: pq.ps_beatty_prime_count(x, 1.1, B),
            ):
                with pytest.raises(ValueError, match=r"\[2, 2\^34\]"):
                    count()


# Streaming counts against the whole-array reference: x sits on or next to a
# block or sieve-segment boundary, or inside the first block; c reaches down
# to 1 + 1e-9.
BLOCK = pq._BLOCK
stream_x = st.one_of(
    st.integers(2, BLOCK - 1),
    st.builds(
        lambda k, d: k + d,
        st.sampled_from((BLOCK, 2 * BLOCK, 3 * BLOCK, sv._SEGMENT)),
        st.sampled_from((-1, 0, 1)),
    ),
)
stream_c = st.one_of(st.just(1.0 + 1e-9), st.floats(1.01, 1.95))


def eratosthenes(n):
    """Primality of 0..n by one whole-array sieve: an oracle free of segments."""
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask


def reference_members(x, g):
    is_prime = eratosthenes(x)
    return member_mask(x, g) & is_prime, np.nonzero(is_prime)[0]


def beatty_oracle(m, alpha, beta):
    """Beatty membership of m by bisection on integer inequalities, apart from pspseq.

    m is a member iff the least n with n*alpha >= t = m - beta is >= 1 and
    has n*alpha < t + 1; for t <= 0 already n = 1 gives alpha + beta > m + 1.
    """
    t = m - Fraction(beta)
    if t <= 0:
        return False
    if alpha == "sqrt2":
        def reaches(n, t):
            return 2 * n * n >= t * t
    elif alpha == "phi":  # n*(1 + sqrt5)/2 >= t iff n*sqrt5 >= 2t - n
        def reaches(n, t):
            return 2 * t <= n or 5 * n * n >= (2 * t - n) ** 2
    else:  # the float parameter itself, not the decimal string
        def reaches(n, t):
            return n * Fraction(float(alpha)) >= t
    lo, hi = 0, math.ceil(t) + 1  # alpha > 1: lo falls short of t, hi reaches it
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if reaches(mid, t) else (mid, hi)
    return not reaches(hi, t + 1)


def beatty_params(alpha, beta):
    """A labelled quadratic irrational ('sqrt2', 'phi') or a decimal alpha."""
    if alpha in ("sqrt2", "phi"):
        return pq.BeattyParams.from_label(alpha, beta)
    return pq.BeattyParams(alpha=float(alpha), beta=beta)


def sign_in_quadratic_field(u, w, d):
    """The sign of u + w*sqrt(d), for d = 0 or no square, decided by squaring."""
    a, b = (u > 0) - (u < 0), ((w > 0) - (w < 0)) * (d > 0)
    if a * b >= 0:
        return a or b
    return a if u * u > w * w * d else b


@functools.cache
def nearest_beatty_boundaries(alpha, beta, starts):
    """m0 = floor(k*alpha + beta) for the 8 k of each window [start, start + 10^6)
    where k*alpha + beta comes closest to an integer."""
    B = beatty_params(alpha, beta)
    ms = []
    for start in starts:
        k = np.arange(start, start + 10 ** 6, dtype=np.float64)
        t = k * B.alpha + beta
        ms += [int(v * B.alpha + beta) for v in k[np.argpartition(np.abs(t - np.rint(t)), 8)[:8]]]
    return ms


class TestStreamingCount:
    @settings(max_examples=12, deadline=None)
    @given(x=stream_x, c=stream_c)
    def test_count_and_main_term(self, x, c):
        g = GammaExponent.from_c(c)
        mask, ps = reference_members(x, g)
        rep = pq.ps_prime_count(x, c)
        assert rep.count == int(np.count_nonzero(mask))
        assert rep.main_term == g.gamma * math.fsum(ps.astype(np.float64) ** (g.gamma - 1.0))

    @settings(max_examples=12, deadline=None)
    @given(x=stream_x, c=stream_c, q=st.integers(1, 10 ** 4), a=st.integers(0, 10 ** 4))
    def test_ap_count_and_main_term(self, x, c, q, a):
        assume(math.gcd(a, q) == 1)
        g = GammaExponent.from_c(c)
        mask, ps = reference_members(x, g)
        rep = pq.ps_prime_count_ap(x, c, q, a)
        assert rep.count == int(np.count_nonzero(np.flatnonzero(mask) % q == a % q))
        if q > 1:
            ps = ps[ps % q == a % q]
        gam = g.gamma
        xg1 = float(x) ** (gam - 1.0)
        integral = math.fsum((xg1 - ps.astype(np.float64) ** (gam - 1.0)) / (gam - 1.0))
        assert rep.main_term == gam * xg1 * ps.size + gam * (1.0 - gam) * integral

    @settings(max_examples=12, deadline=None)
    @given(
        x=stream_x,
        c=stream_c,
        alpha=st.sampled_from(("sqrt2", "phi", "2.345678901234")),
        beta=st.floats(0.0, 0.999),
    )
    def test_beatty_count(self, x, c, alpha, beta):
        B = beatty_params(alpha, beta)
        g = GammaExponent.from_c(c)
        mask, _ = reference_members(x, g)
        rep = pq.ps_beatty_prime_count(x, c, B)
        assert rep.count == int(np.count_nonzero(mask & pq.beatty_member_array(x, B)))

    @settings(max_examples=25, deadline=None)
    @given(lo=st.integers(0, 3 << 14), span=st.integers(0, 5000), c=stream_c)
    def test_block_kernels_are_slices(self, lo, span, c):
        g = GammaExponent.from_c(c)
        B = pq.BeattyParams.from_label("phi", 0.25)
        hi = lo + span
        ms = np.arange(max(lo, 1), hi + 1, dtype=np.int64)
        assert np.array_equal(pq._ps_member_at(ms, g), member_mask(hi, g)[ms])
        assert np.array_equal(pq._beatty_member_at(ms, B), pq.beatty_member_array(hi, B)[ms])

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        c=stream_c,
        alpha=st.sampled_from(("sqrt2", "phi", "2.345678901234")),
        beta=st.sampled_from((0.0, 0.3)),
    )
    def test_point_kernels_equal_range_form(self, data, c, alpha, beta):
        # sorted point sets mixing random m, m at block and segment edges, m
        # next to n^c (m^gamma near an integer) and m next to the nearest
        # Beatty boundaries
        g = GammaExponent.from_c(c)
        B = beatty_params(alpha, beta)
        seg = sv._SEGMENT
        near = st.integers(-2, 2)
        edge = st.builds(
            lambda k, d: k + d, st.sampled_from((1 << 14, BLOCK, 2 * BLOCK, seg)), near
        )
        near_integer = st.builds(
            lambda n, d: int(n ** c) + d, st.integers(1, int(seg ** (1.0 / c))), near
        )
        boundary = st.builds(
            lambda m, d: m + d,
            st.sampled_from([m for m in nearest_beatty_boundaries(alpha, beta, (1,)) if m < seg]),
            near,
        )
        points = data.draw(
            st.lists(st.one_of(st.integers(1, seg), edge, near_integer, boundary), min_size=1, max_size=40)
        )
        ms = np.unique(np.maximum(np.array(points, dtype=np.int64), 1))
        hi = int(ms[-1])
        assert np.array_equal(pq._ps_member_at(ms, g), member_mask(hi, g)[ms])
        assert np.array_equal(pq._beatty_member_at(ms, B), pq.beatty_member_array(hi, B)[ms])

    @pytest.mark.parametrize("c", [1.0 + 1e-9, 1.05, 1.5, 1.9])
    def test_summed_terms_are_the_plain_powers(self, monkeypatch, c):
        # the one power per prime that membership reads is the main term's
        # p ** (gamma - 1), bit for bit, in both main-term forms
        blocks = []
        exact_parts = pq._exact_parts
        monkeypatch.setattr(
            pq, "_exact_parts", lambda terms: blocks.append(terms.copy()) or exact_parts(terms)
        )
        x = 10 ** 6
        ps = np.flatnonzero(eratosthenes(x)).astype(np.float64)
        gam = GammaExponent.from_c(c).gamma
        pq.ps_prime_count(x, c)
        assert np.concatenate(blocks).tobytes() == (ps ** (gam - 1.0)).tobytes()
        # each sweep block of t takes one pass: an expansion of at most 2 floats
        assert all(len(exact_parts(t)) <= 2 for t in blocks)
        blocks.clear()
        pq.ps_prime_count_ap(x, c, 3, 2)
        xg1 = float(x) ** (gam - 1.0)
        want = (xg1 - ps[ps % 3 == 2] ** (gam - 1.0)) / (gam - 1.0)
        assert np.concatenate(blocks).tobytes() == want.tobytes()

    @pytest.mark.parametrize("q, a", [(1, 0), (211, 7), (9973, 5)])
    def test_folded_expansions_give_the_same_main_terms(self, monkeypatch, q, a):
        # a stream folds its expansion into a shorter one from _FSUM_CHUNK
        # floats on; folding after every few floats leaves every bit alone
        x = 3 * 10 ** 6
        want = [pq.ps_prime_count_ap(x, 1.1, q, a), pq.refined_main_term(x, 1.3, q, a)]
        calls = []
        exact_parts = pq._exact_parts
        monkeypatch.setattr(pq, "_FSUM_CHUNK", 5)
        monkeypatch.setattr(
            pq, "_exact_parts", lambda terms: calls.append(terms.size) or exact_parts(terms)
        )
        assert [pq.ps_prime_count_ap(x, 1.1, q, a), pq.refined_main_term(x, 1.3, q, a)] == want
        blocks = sum(1 for _ in pq._member_blocks(x, q, a, 0.9))
        assert len(calls) > 2 * blocks  # folds ran besides the two sweeps' blocks

    def test_membership_is_decided_at_primes_only(self, monkeypatch):
        # a timing-free guard against per-integer work: the one-power kernel
        # sees each prime in the progression once, in order, and nothing else;
        # the certified kernel sees only the few entries it re-decides, as m
        # and m + 1
        seen, rechecked = [], []
        kernel, certified = pq._member_from_t, pq._pow_parts_array
        monkeypatch.setattr(
            pq, "_member_from_t", lambda ms, *args: seen.append(ms.copy()) or kernel(ms, *args)
        )
        monkeypatch.setattr(
            pq, "_pow_parts_array", lambda ns, e: rechecked.append(len(ns)) or certified(ns, e)
        )
        x = sv._SEGMENT + 12345
        ps = np.flatnonzero(eratosthenes(x))
        for count, want in (
            (lambda: pq.ps_prime_count(x, 1.3), ps),
            (lambda: pq.ps_prime_count_ap(x, 1.3, 3, 2), ps[ps % 3 == 2]),
            (lambda: pq.ps_prime_count_ap(x, 1.3, 7919, 5), ps[ps % 7919 == 5]),
        ):
            seen.clear()
            rechecked.clear()
            count()
            assert np.array_equal(np.concatenate(seen), want)
            assert sum(rechecked) <= 8 and sum(rechecked) % 2 == 0


def bracket_reference(ms, gam):
    """The one-power bracket on every entry, as first written, with its certified
    rechecks: (membership, the sorted m it re-decided)."""
    mf = ms.astype(np.float64)
    t = mf ** (gam - 1.0)
    y0 = mf * t
    d = np.ceil(y0) - y0
    tol = y0 * _ARRAY_GUARD_REL
    hi = gam * t
    lo = hi * (1.0 - (1.0 - gam) / mf)
    member = d < lo - 2.0 * tol
    risky = ~((d > tol) & (d < 1.0 - tol) & (member | (d >= hi + 2.0 * tol)))
    member[risky] = pq._indicator_parts(ms[risky], gam)[0] == 1
    return member, np.sort(ms[risky])


@st.composite
def screen_case(draw):
    """(ms, gamma, m_lo, m_hi): m in [1, 2^52), sorted or not, with bounds that
    hold every m, and m placed where the screen's margins matter."""
    exact_power = draw(st.booleans())
    if exact_power:  # m = k^j +- 1 or k^j: m^gamma within tol of an integer
        c, j = draw(st.sampled_from([(1.5, 3), (1.25, 5), (4.0 / 3.0, 4), (1.75, 7)]))
        ks = draw(st.lists(st.integers(2, int(2.0 ** (52 / j))), min_size=1, max_size=10))
        ms = [k ** j + dk for k in ks for dk in (-1, 0, 1)]
    else:
        c = draw(st.one_of(st.just(1.0 + 1e-9), st.floats(1.0, 2.0, exclude_min=True, exclude_max=True)))
        ms = []
    gam = GammaExponent.from_c(c).gamma
    log_uniform = st.builds(lambda u: int(2.0 ** u), st.floats(0.0, 52.0, exclude_max=True))
    # from 2^38 to 2^46 tol reaches 2^-8 to 1, so many d sit in the margins
    margins = st.integers(1 << 38, 1 << 46)
    ms += draw(st.lists(st.one_of(log_uniform, margins, st.integers(1, 10 ** 4)), max_size=60))
    # m next to n^c, where y0 = m*t lies near the integer n
    ns = draw(st.lists(st.builds(lambda u: int(2.0 ** u), st.floats(0.0, 52.0 * gam)), max_size=8))
    ms += [int(float(n) ** c) + dk for n in ns for dk in (-1, 0, 1)]
    ms = [m for m in ms if 1 <= m < 1 << 52] or [1]
    ms = sorted(ms) if draw(st.booleans()) else draw(st.permutations(ms))
    m_lo = max(1, min(ms) - draw(st.sampled_from([0, 1, 1000])))
    m_hi = min((1 << 52) - 1, max(ms) + draw(st.sampled_from([0, 1, 1000])))
    return np.array(ms, dtype=np.int64), gam, m_lo, m_hi


def bracket_terms(m, gam):
    """(d, tol, lo, hi) of the bracket at one m, computed as the kernel does."""
    mf = np.array([float(m)])
    t = mf ** (gam - 1.0)
    y0 = mf * t
    hi = gam * t
    return (np.ceil(y0) - y0)[0], (y0 * _ARRAY_GUARD_REL)[0], (hi * (1.0 - (1.0 - gam) / mf))[0], hi[0]


def edge_tie(gap, roots):
    """The first (m, gamma) among the candidate roots, stepped a few ulps either
    way, at which gap(d, tol, lo, hi) is exactly zero."""
    for m, g0 in roots:
        for k in range(-40, 41):
            g = g0 + k * math.ulp(g0)
            if 0.5 < g < 1.0 and gap(*bracket_terms(m, g)) == 0.0:
                return m, g
    raise AssertionError("no tie found")


def bracket_roots(gap):
    """Per m >= 2, the gammas where gap changes sign, by bisection in floats."""
    gs = np.linspace(0.5 + 1e-9, 1.0 - 1e-9, 65).tolist()
    for m in range(2, 200):
        def f(g):
            return gap(*bracket_terms(m, g))

        for a, b in zip(gs, gs[1:]):
            if f(a) * f(b) >= 0.0:
                continue
            while (a + b) / 2 not in (a, b):
                a, b = (a, (a + b) / 2) if f(a) * f((a + b) / 2) <= 0.0 else ((a + b) / 2, b)
            yield m, a


class TestMemberScreen:
    """_member_from_t settles most entries with bounds for the whole array and
    leaves the rest to the per-entry bracket: on every entry its membership and
    its rechecks are the bracket's own."""

    @staticmethod
    def check(ms, gam, m_lo, m_hi):
        want, want_rechecked = bracket_reference(ms, gam)
        rechecked = []
        certified = pq._indicator_parts
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                pq, "_indicator_parts", lambda m, g: rechecked.append(m.copy()) or certified(m, g)
            )
            mf = ms.astype(np.float64)
            got = pq._member_from_t(ms, mf, mf ** (gam - 1.0), gam, m_lo, m_hi)
        assert np.array_equal(got, want)
        assert np.array_equal(np.sort(np.concatenate([np.zeros(0, np.int64), *rechecked])), want_rechecked)
        return want_rechecked.size

    @settings(max_examples=120, deadline=None)
    @given(case=screen_case())
    def test_equals_the_bracket_on_every_entry(self, case):
        self.check(*case)

    @pytest.mark.parametrize("edge", ["member", "non-member", "integer above"])
    def test_ties_on_the_bracket_edges(self, edge):
        # m and gamma where d lands exactly on an edge of the bracket: strict
        # (d < lo - 2*tol, d < 1 - tol) or not (d >= hi + 2*tol), so a flipped
        # comparison changes what is re-decided. d == tol cannot occur: it
        # needs y0 = ceil(y0)/(1 + 2^-46), a float only when it is an
        # integer, and then d = 0.
        if edge == "member":
            gap = lambda d, tol, lo, hi: d - (lo - 2.0 * tol)  # noqa: E731
            m, gam = edge_tie(gap, bracket_roots(gap))
        elif edge == "non-member":
            gap = lambda d, tol, lo, hi: d - (hi + 2.0 * tol)  # noqa: E731
            m, gam = edge_tie(gap, bracket_roots(gap))
        else:  # y0 = m^gamma just above the integer j, by j*2^-46
            gap = lambda d, tol, lo, hi: d - (1.0 - tol)  # noqa: E731
            roots = ((m, (math.log(j) + 2.0 ** -46) / math.log(m)) for m in range(3, 200) for j in range(2, m))
            m, gam = edge_tie(gap, ((m, g) for m, g in roots if 0.5 < g < 1.0))
        rechecks = self.check(np.array([m], dtype=np.int64), gam, m, m)
        assert rechecks == (edge != "non-member")

    @pytest.mark.parametrize("c", [1.0 + 1e-9, 1.024, 1.3, 1.9])
    def test_sweep_blocks_leave_few_entries_to_the_bracket(self, monkeypatch, c):
        # the scalar bounds are tight enough that the bracket sees a small
        # share of a sweep; most of that share is the first block, where m
        # starts at 2 and the bracket (1 - gamma)/m is widest
        seen, total = [], 0
        bracket = pq._member_bracket
        monkeypatch.setattr(
            pq, "_member_bracket", lambda ms, *args: seen.append(ms.size) or bracket(ms, *args)
        )
        for ps, _, _ in pq._member_blocks(10 ** 6, 1, 0, GammaExponent.from_c(c).gamma):
            total += ps.size
        assert sum(seen) < total // 50


class TestMemberStream:
    """The contract of ``_member_blocks``, the one loop over the primes that
    every count reads."""

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("q, a", [(1, 0), (3, 2), (9973, 5)])
    def test_blocks_against_oracles(self, monkeypatch, warm, q, a):
        # x on the segment edges, and on the block edges: the BLOCK-th and
        # 2*BLOCK-th prime of the progression (where it has that many), and
        # its neighbours
        g = GammaExponent.from_c(1.1)
        gam = g.gamma
        B = pq.BeattyParams.from_label("phi", 0.25)
        seg = sv._SEGMENT
        primes = np.flatnonzero(eratosthenes(2 * seg + 1))
        primes = primes[primes % q == a]
        edges = [int(p) + d for k in (BLOCK, 2 * BLOCK) if k < primes.size
                 for p in primes[k - 1 : k + 1] for d in (-1, 0)]
        xs = sorted({*edges, seg - 1, seg, seg + 1, 2 * seg + 1})
        floor_power = pq._ps_member_at(primes, g)
        beatty = floor_power.copy()
        beatty[beatty] = pq._beatty_member_at(primes[beatty], B)
        for x in xs:
            monkeypatch.setattr(sv, "_table", None)
            if warm:
                sv.shared_table(x)
            want = primes[primes <= x]
            for params, member_want in ((None, floor_power), (B, beatty)):
                blocks = list(pq._member_blocks(x, q, a, gam, params))
                assert all(ps.size <= BLOCK for ps, _, _ in blocks)
                ps, t, member = (np.concatenate(parts) for parts in zip(*blocks))
                assert np.array_equal(ps, want)
                assert t.tobytes() == (want.astype(np.float64) ** (gam - 1.0)).tobytes()
                assert np.array_equal(member, member_want[: want.size])

    def test_prime_stream_is_read_only_by_the_member_stream(self):
        # later consumers loop over _member_blocks instead of copying its loop
        tree = ast.parse(Path(pq.__file__).read_text())

        def stream_calls(node):
            return sum(
                isinstance(n, ast.Call)
                and getattr(n.func, "id", getattr(n.func, "attr", None)) == "prime_stream"
                for n in ast.walk(node)
            )

        (blocks,) = [
            n for n in ast.walk(tree)
            if isinstance(n, ast.FunctionDef) and n.name == "_member_blocks"
        ]
        assert stream_calls(tree) == stream_calls(blocks) == 1


class TestWarmTable:
    """A count whose x the cached table covers reads it, with the same report."""

    # x = 3000 streams fewer than 2^11 primes; at q = 9973 and x = 3*10^6 a
    # block holds a few primes
    @pytest.mark.parametrize(
        "x",
        [sv._SEGMENT - 1, sv._SEGMENT, sv._SEGMENT + 1, 2 * sv._SEGMENT + 4321, 3000, 3 * 10 ** 6],
    )
    def test_reports_equal_with_empty_and_warm_cache(self, monkeypatch, x):
        B = pq.BeattyParams.from_label("sqrt2", 0.3)
        counts = (
            lambda: pq.ps_prime_count(x, 1.1),
            lambda: pq.ps_prime_count_ap(x, 1.3, 997, 3),
            lambda: pq.ps_prime_count_ap(x, 1.1, 9973, 5),
            lambda: pq.ps_beatty_prime_count(x, 1.05, B),
            lambda: pq.refined_main_term(x, 1.2, 4, 1),
            lambda: pq.ap_main_term(x, 1.5, 3, 2),
        )
        small_primes = sv._small_primes

        def no_sieve(n):
            raise AssertionError("a warm count sieved")

        monkeypatch.setattr(sv, "_table", None)
        cold = [f() for f in counts]
        assert sv._table is None  # counts never build a table
        for limit in (x, x + 5000):  # the table at x, and above it
            monkeypatch.setattr(sv, "_table", None)
            monkeypatch.setattr(sv, "_small_primes", small_primes)
            table = sv.shared_table(limit)
            before = table.prime_list.copy()
            monkeypatch.setattr(sv, "_small_primes", no_sieve)
            assert [f() for f in counts] == cold
            assert sv._table is table and np.array_equal(table.prime_list, before)
            assert not table.prime_list.flags.writeable


class TestApCount:
    def test_q_one_degenerates(self):
        a = pq.ps_prime_count_ap(100, 1.1, 1, 0)
        b = pq.ps_prime_count(100, 1.1)
        assert a.count == b.count

    def test_gcd_rejected(self):
        with pytest.raises(ValueError):
            pq.ps_prime_count_ap(100, 1.1, 4, 2)
        with pytest.raises(ValueError):
            pq.ps_prime_count_ap(100, 1.1, 10 ** 5, 1)

    def test_residue_partition(self):
        x, c, q = 10 ** 5, 1.1, 4
        g = GammaExponent.from_c(c)
        total = pq.ps_prime_count(x, c).count
        parts = sum(
            pq.ps_prime_count_ap(x, c, q, a).count for a in (1, 3)
        )
        members_dividing_q = sum(
            1 for p in (2,) if pq.ps_indicator(p, g)
        )  # primes dividing 4
        assert parts + members_dividing_q == total

    def test_ratio_near_one(self):
        rep = pq.ps_prime_count_ap(10 ** 6, 1.1, 3, 1)
        assert 0.9 <= rep.ratio <= 1.1


class TestApMainTerm:
    def test_abel_identity(self):
        # algebraically exact: the closed-form integral collapses the expression
        for (q, a) in ((3, 1), (4, 3), (7, 2), (5, 2)):
            for c in (1.05, 1.1):
                lhs = pq.ap_main_term(10 ** 5, c, q, a)
                rhs = pq.refined_main_term(10 ** 5, c, q, a)
                assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_residue_is_taken_mod_q(self):
        # a names a residue class: a, a + q and a - q select the same primes
        x, c = 10 ** 5, 1.1
        for q, a in ((5, 2), (7, 3)):
            want = pq.refined_main_term(x, c, q, a)
            assert pq.refined_main_term(x, c, q, a + q) == want
            assert pq.refined_main_term(x, c, q, a - q) == want
            assert pq.ap_main_term(x, c, q, a + 2 * q) == pq.ap_main_term(x, c, q, a)
        with pytest.raises(ValueError):
            pq.refined_main_term(x, c, 0, 0)

    def test_q_one_matches_refined_total(self):
        lhs = pq.ap_main_term(10 ** 5, 1.1, 1, 0)
        assert lhs == pytest.approx(
            pq.refined_main_term(10 ** 5, 1.1), rel=1e-9
        )

    def test_checked_as_the_progression_count(self):
        # one progression main term, with the checks of ps_prime_count_ap
        for q, a in ((4, 2), (10 ** 5, 1)):
            with pytest.raises(ValueError):
                pq.ap_main_term(10 ** 5, 1.1, q, a)

    def test_against_midpoint_quadrature(self, table):
        # independent oracle: piecewise-midpoint quadrature of the step integral,
        # one flat piece per gap between consecutive primes in the progression
        x, c, q, a = 10 ** 5, 1.1, 5, 2
        g = GammaExponent.from_c(c)
        ps = [int(p) for p in table.primes(x) if p % q == a]
        pieces = []
        prev, count = 2.0, 0
        for p in ps:
            pieces.append((prev, float(p), count))
            count += 1
            prev = float(p)
        pieces.append((prev, float(x), count))
        integral = 0.0
        for lo, hi, cnt in pieces:
            if hi <= lo or cnt == 0:
                continue
            K = 8
            width = (hi - lo) / K
            mids = lo + width * (np.arange(K) + 0.5)
            integral += cnt * float(np.sum(mids ** (g.gamma - 2.0)) * width)
        expected = (
            g.gamma * float(x) ** (g.gamma - 1.0) * len(ps)
            + g.gamma * (1.0 - g.gamma) * integral
        )
        assert pq.ap_main_term(x, c, q, a) == pytest.approx(
            expected, rel=1e-6
        )


class TestBeatty:
    def test_examples(self):
        B = pq.BeattyParams.from_label("sqrt2", 0.0)
        m = int(7 * B.alpha + B.beta)
        # [2.121, 2.828) holds no integer; [2.828, 3.536) holds n = 3
        assert pq._beatty_member_at(np.array([3, 4, m]), B).tolist() == [False, True, True]
        assert [pq._beatty_member_exact(k, B) for k in (3, 4, m)] == [False, True, True]

    def test_guard_rejects_near_rational(self):
        with pytest.raises(ValueError):
            pq.BeattyParams(alpha=1.5, beta=0.0)
        with pytest.raises(ValueError):
            pq.BeattyParams(alpha=1.0 + 1e-13, beta=0.0)
        with pytest.raises(ValueError):
            pq.BeattyParams(alpha=0.8, beta=0.0)

    def test_rejections_up_front(self):
        for label in ("e", "pi", None):
            with pytest.raises(ValueError, match="unknown alpha_label"):
                pq.BeattyParams.from_label(label, 0.0)
        for alpha, beta in ((math.inf, 0.0), (math.nan, 0.0), (2.5, math.inf), (2.5, -math.inf)):
            with pytest.raises(ValueError, match="finite"):
                pq.BeattyParams(alpha=alpha, beta=beta)
        for beta in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                pq.BeattyParams.from_label("sqrt2", beta)
        # at the top of int64 float(m) is inexact, so the guard path sends m
        # to the exact recheck
        B = pq.BeattyParams.from_label("sqrt2", 0.0)
        top = 2 ** 63 - 1
        got = pq._beatty_member_at(np.array([top], dtype=np.int64), B)[0]
        assert got == pq._beatty_member_exact(top, B)

    def test_labelled_floats_come_from_the_closed_forms(self):
        assert pq.LABELLED_ALPHAS == {"sqrt2": math.sqrt(2.0), "phi": (1.0 + math.sqrt(5.0)) / 2.0}
        # the exact sign test of u + v*sqrt(d) needs d to be no square
        assert all(math.isqrt(d) ** 2 != d for _, _, d, _ in pq._ALPHA_FORMS.values())

    def test_brute_force_agreement_to_one_million(self):
        for label, beta in (("sqrt2", 0.0), ("phi", 0.3)):
            B = pq.BeattyParams.from_label(label, beta)
            limit = 10 ** 6
            got = pq.beatty_member_array(limit, B)
            ns = np.arange(1, int(2 * limit / B.alpha) + 2, dtype=np.float64)
            vals = np.floor(B.alpha * ns + B.beta).astype(np.int64)
            want = np.zeros(limit + 1, dtype=bool)
            want[vals[(vals >= 1) & (vals <= limit)]] = True
            assert np.array_equal(got, want)

    def test_array_matches_scalar(self):
        B = pq.BeattyParams.from_label("phi", 0.25)
        arr = pq.beatty_member_array(2000, B)
        for m in random.Random(13).sample(range(1, 2001), 50):
            assert arr[m] == pq._beatty_member_exact(m, B)

    @pytest.mark.parametrize("alpha", ["sqrt2", "phi", "2.345678901234"])
    def test_guard_band_at_nearest_boundaries(self, alpha):
        # k where k*alpha + beta comes closest to an integer, for k <= 10^7 and
        # just below m = 2^34: every m within 2 of such a boundary must agree
        # with the exact decision, alone and within a block
        for beta in (0.0, 0.3):
            B = beatty_params(alpha, beta)
            top = int(2 ** 34 / B.alpha)
            starts = (*range(1, 10 ** 7, 10 ** 6), top - 10 ** 6)
            for m0 in nearest_beatty_boundaries(alpha, beta, starts):
                got = pq._beatty_member_at(np.arange(m0 - 2, m0 + 3, dtype=np.int64), B)
                for i, m in enumerate(range(m0 - 2, m0 + 3)):
                    want = pq._beatty_member_exact(m, B)
                    assert got[i] == want, (alpha, beta, m)
                    alone = pq._beatty_member_at(np.array([m]), B)[0]
                    assert alone == want, (alpha, beta, m)

    @settings(max_examples=300, deadline=None)
    @given(
        alpha=st.sampled_from(("sqrt2", "phi", "2.345678901234", "1.000000123456789")),
        m=st.one_of(st.integers(1, 2 ** 63 - 1), st.integers(1, 10 ** 4)),
        beta=st.one_of(
            st.floats(-1e300, 1e300),
            st.floats(-2.0 ** 70, 2.0 ** 70),
            st.floats(-1e4, 1e4),
            st.floats(-1e-300, 1e-300),
            st.sampled_from((5e-324, -5e-324, 2.0 ** -1022 - 2.0 ** -1074, -0.0)),
        ),
    )
    def test_exact_recheck_matches_bisection_oracle(self, alpha, m, beta):
        B = beatty_params(alpha, beta)
        assert pq._beatty_member_exact(m, B) == beatty_oracle(m, alpha, beta)

    @pytest.mark.parametrize("alpha", ["sqrt2", "phi", "2.345678901234"])
    def test_exact_recheck_at_the_boundaries(self, alpha):
        # m = floor(n*alpha + beta) and its neighbours, m < 2^62: with a huge
        # |beta|, placing (m - beta)/alpha takes hundreds of digits; a
        # 400-digit alpha picks m0 to within one, and the oracle decides
        S = 10 ** 400
        if alpha == "sqrt2":
            a = Fraction(math.isqrt(2 * S * S), S)
        elif alpha == "phi":
            a = Fraction(S + math.isqrt(5 * S * S), 2 * S)
        else:
            a = Fraction(float(alpha))
        rng = random.Random(21)
        for beta in (0.3, -2.0 ** 62, -1e20, -1e70, -1e300):
            B = beatty_params(alpha, beta)
            for _ in range(4):
                n = int((rng.randrange(1, 2 ** 62) - Fraction(beta)) / a)
                m0 = math.floor(n * a + Fraction(beta))
                for m in range(max(m0 - 2, 1), m0 + 3):
                    assert pq._beatty_member_exact(m, B) == beatty_oracle(m, alpha, beta), (beta, m)

    @settings(max_examples=300, deadline=None)
    @given(
        alpha=st.sampled_from(("sqrt2", "phi", "2.345678901234")),
        T=st.integers(-(2 ** 200), 2 ** 200),
        D=st.integers(0, 1074).map(lambda e: 1 << e),
    )
    def test_ceil_div_alpha_brackets_the_quotient(self, alpha, T, D):
        # c = ceil(T/(D*alpha)) iff (c - 1)*D*alpha < T <= c*D*alpha; with
        # alpha = (p + q*sqrt(d))/r, n*D*alpha - T has the sign of
        # (n*D*p - T*r) + n*D*q*sqrt(d)
        if alpha in ("sqrt2", "phi"):
            p, q, d, r = {"sqrt2": (0, 1, 2, 1), "phi": (1, 1, 5, 2)}[alpha]
        else:
            (p, r), q, d = float(alpha).as_integer_ratio(), 0, 0
        c = pq._ceil_div_alpha(T, D, beatty_params(alpha, 0.0))

        def sign(n):
            return sign_in_quadratic_field(n * D * p - T * r, n * D * q, d)

        assert sign(c - 1) < 0 <= sign(c)

    def test_exact_recheck_has_no_search_loop(self):
        # each boundary is one closed-form ceiling; a search must not come back
        tree = ast.parse(Path(pq.__file__).read_text())
        loops = (ast.For, ast.While, ast.AsyncFor, ast.comprehension)
        names = {"_beatty_member_exact", "_ceil_div_alpha"}
        funcs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name in names]
        assert {f.name for f in funcs} == names
        assert not any(isinstance(n, loops) for f in funcs for n in ast.walk(f))

    def test_label_must_be_the_float_alpha(self):
        # sqrt2 once placed the rechecks while e placed the float boundaries,
        # which made 999982 a member
        beta = 999983 - (999983 // math.e) * math.e
        with pytest.raises(ValueError, match="unknown alpha_label 'sqrt2'"):
            pq.BeattyParams(alpha=math.e, beta=beta, alpha_label="sqrt2")
        with pytest.raises(ValueError, match="unknown alpha_label 'phi'"):
            pq.BeattyParams(alpha=math.sqrt(2.0), beta=0.0, alpha_label="phi")
        B = pq.BeattyParams(alpha=math.e, beta=beta)
        assert not pq._beatty_member_at(np.array([999982]), B)[0]
        assert not pq._beatty_member_exact(999982, B)

    @pytest.mark.parametrize(
        "alpha, beta", [("sqrt2", -1e20), ("phi", -1e20), ("sqrt2", -1e70), ("sqrt2", 1e300),
                        ("phi", -1e300)],
    )
    def test_huge_beta_rechecks_are_rare(self, monkeypatch, alpha, beta):
        # beta is reduced exactly by a multiple of alpha, so the float
        # boundaries settle all but a few members whatever |beta| is
        calls = []
        exact = pq._beatty_member_exact
        monkeypatch.setattr(
            pq, "_beatty_member_exact", lambda m, B: calls.append(m) or exact(m, B)
        )
        pq.ps_beatty_prime_count(10 ** 6, 1.1, pq.BeattyParams.from_label(alpha, beta))
        assert len(calls) <= 10

    @pytest.mark.parametrize("alpha", ["sqrt2", "phi", "2.345678901234"])
    def test_reduced_beta_matches_exact_recheck(self, alpha):
        # the float boundaries at beta' = beta - k*alpha, with the cutoff
        # n >= 1 + k, decide as the exact recheck does, where members begin
        # (m near beta) and far past it
        for beta in (12345.678, 1e12 + 0.25, -2.0 ** 46, -1e20, -1e300):
            B = beatty_params(alpha, beta)
            start = max(1, int(beta) - 100)
            ms = np.arange(start, start + 2000, dtype=np.int64)
            want = [pq._beatty_member_exact(int(m), B) for m in ms]
            assert pq._beatty_member_at(ms, B).tolist() == want, beta

    def test_prime_in_guard_band_reaches_exact_recheck(self, monkeypatch):
        # beta = p - n*alpha puts the lower boundary (p - beta)/alpha of the
        # prime p within rounding of the integer n; c near 1 makes p a member
        c = 1.0 + 1e-9
        p = 999983
        alpha = math.sqrt(2.0)
        B = pq.BeattyParams.from_label("sqrt2", p - (p // alpha) * alpha)
        assert pq.ps_indicator(p, GammaExponent.from_c(c)) == 1
        calls = []
        exact = pq._beatty_member_exact
        monkeypatch.setattr(
            pq, "_beatty_member_exact", lambda m, B: calls.append(m) or exact(m, B)
        )
        x = p + 50
        rep = pq.ps_beatty_prime_count(x, c, B)
        assert p in calls
        mask, _ = reference_members(x, GammaExponent.from_c(c))
        assert rep.count == int(np.count_nonzero(mask & pq.beatty_member_array(x, B)))

    def test_guard_band_rechecks_are_rare(self, monkeypatch):
        calls = []
        exact = pq._beatty_member_exact
        monkeypatch.setattr(
            pq, "_beatty_member_exact", lambda m, B: calls.append(m) or exact(m, B)
        )
        pq.beatty_member_array(10 ** 6, pq.BeattyParams.from_label("sqrt2", 0.3))
        assert len(calls) <= 10

    def test_count_is_subset_of_ps_count(self):
        B = pq.BeattyParams.from_label("sqrt2", 0.3)
        joint = pq.ps_beatty_prime_count(10 ** 5, 1.1, B)
        plain = pq.ps_prime_count(10 ** 5, 1.1)
        assert joint.count <= plain.count
        assert joint.main_term == pytest.approx(
            (10 ** 5) ** (1 / 1.1) / (B.alpha * math.log(10 ** 5))
        )


class TestSingularSeries:
    def test_even_vanishes_exactly(self):
        for N in range(4, 44, 2):
            assert pq.singular_series(N, 10 ** 5).value == 0.0

    def test_frozen_oracle_value(self):
        # frozen from the direct Euler product truncated at P = 10^7
        r = pq.singular_series(9, 10 ** 6)
        assert r.value == pytest.approx(1.5339743631407254, abs=2e-6)
        r105 = pq.singular_series(105, 10 ** 6)
        assert r105.value == pytest.approx(1.3702996792325440, abs=2e-6)

    def test_self_consistency_tail(self):
        for N in (9, 105, 10 ** 5 + 3):
            a = pq.singular_series(N, 10 ** 5)
            b = pq.singular_series(N, 2 * 10 ** 5)
            assert abs(a.value - b.value) <= a.tail_bound
            assert a.tail_bound == pytest.approx(2e-5)

    @pytest.mark.parametrize(
        "N", [2 ** 63 - 1, 2 ** 63 + 1, 10 ** 19 + 1, 3 ** 200, 2 ** 1024 - 1]
    )
    def test_residues_of_large_N_are_exact(self, table, N):
        ps = table.primes(10 ** 5).astype(np.int64)
        # 16777213 is the largest prime below 2^24, the largest P
        top = np.array([2, 3, 16777213], dtype=np.int64)
        for p in (ps, top):
            assert pq._mod_primes(N, p).tolist() == [N % q for q in p.tolist()]
        divides = np.array([N % q == 0 for q in ps.tolist()])
        pm1 = ps.astype(np.float64) - 1.0
        want = float(np.prod(1.0 - 1.0 / pm1[divides] ** 2)) if divides.any() else 1.0
        want *= float(np.prod(1.0 + 1.0 / pm1[~divides] ** 3))
        assert pq.singular_series(N, 10 ** 5).value == want

    def test_rejections(self):
        with pytest.raises(ValueError):
            pq.singular_series(2, 10 ** 5)
        with pytest.raises(ValueError, match="2\\^1024"):
            pq.singular_series(2 ** 1024, 10 ** 5)
        with pytest.raises(ValueError):
            pq.singular_series(9, 50)


def blocked_pair_sum_counts(p1, p2, nmax):
    """Reference pair counts: every sum a + b, 256 rows of p1 at a time."""
    r = np.zeros(nmax + 1, dtype=np.int64)
    block = 256
    for i in range(0, p1.size, block):
        sums = (p1[i : i + block, None] + p2[None, :]).ravel()
        sums = sums[sums <= nmax]
        if sums.size:
            r += np.bincount(sums, minlength=nmax + 1)
    return r


@st.composite
def _pair_count_case(draw):
    nmax = draw(st.one_of(st.integers(0, 2), st.integers(0, 600)))
    # entries up to nmax + 20 exercise the ones no sum <= nmax can use
    subset = st.lists(st.integers(0, nmax + 20), unique=True, max_size=300)
    p1 = np.array(sorted(draw(subset)), dtype=np.int64)
    p2 = p1.copy() if draw(st.booleans()) else np.array(sorted(draw(subset)), dtype=np.int64)
    return p1, p2, nmax


class TestPairSumCounts:
    @settings(max_examples=300, deadline=None)
    @given(case=_pair_count_case())
    def test_equals_blocked_loop(self, case):
        p1, p2, nmax = case
        got = pq._pair_sum_counts(p1, p2, nmax)
        assert got.dtype == np.int64
        assert np.array_equal(got, blocked_pair_sum_counts(p1, p2, nmax))

    # With every integer present (the largest counts), 2*nmax + 1 just below
    # an even 5-smooth length (359, 999, 1079, and 2^k - 1), just above one
    # (361, 1001, 1081, and 2^k + 1), or itself 5-smooth (1, 225 = 15^2,
    # 243 = 3^5, 375 = 3 * 5^3)
    @pytest.mark.parametrize(
        "nmax",
        [0, 1, 2, 3, 4, 255, 256, 1023, 1024, 1025]
        + [112, 121, 179, 180, 187, 499, 500, 539, 540],
    )
    def test_dense_at_transform_size_edges(self, nmax):
        full = np.arange(nmax + 3, dtype=np.int64)
        odd = full[1::2]
        for p1, p2 in ((full, full), (full, odd), (odd, full[:0])):
            got = pq._pair_sum_counts(p1, p2, nmax)
            assert np.array_equal(got, blocked_pair_sum_counts(p1, p2, nmax))

    def test_member_primes_distinct_exponents(self, table):
        N = 20011
        primes = table.primes(N)
        assert np.array_equal(primes, np.flatnonzero(eratosthenes(N)))
        p1 = primes[pq._ps_member_at(primes, GammaExponent.from_c(1.01))]
        p2 = primes[pq._ps_member_at(primes, GammaExponent.from_c(1.1))]
        got = pq._pair_sum_counts(p1, p2, N)
        assert np.array_equal(got, blocked_pair_sum_counts(p1, p2, N))

    def test_transform_length_is_least_even_5_smooth(self):
        def smooth(m):
            for r in (2, 3, 5):
                while m % r == 0:
                    m //= r
            return m == 1

        want, lengths = 5000, []
        for m in range(5000, 0, -1):  # want = least even 5-smooth >= m
            if m % 2 == 0 and smooth(m):
                want = m
            lengths.append((m, want))
        assert all(pq._transform_length(m) == want for m, want in lengths)

    @pytest.mark.parametrize("size", [2, 6, 10, 240, 250, 360, 1000, 1080, 2160, 10 ** 6])
    def test_bound_counts_every_radix_3_and_5_stage(self, size):
        # Percival's radix-2 formula at ceil(log2 size) + 1 stages is a floor
        # for the mixed-radix count a + 3b + 5c + 1: a stage count that drops
        # the 3s and 5s falls below it
        stages = (size - 1).bit_length() + 1
        radix2 = math.sqrt(78498 * 1000) * math.expm1(
            3 * stages * math.log1p(2.0 ** -53)
            + (3 * stages + 1) * math.log1p(2.0 ** -53 * math.sqrt(5.0))
            + 3 * stages * math.log1p(2.0 ** -50)
        )
        assert pq._pair_count_error_bound(78498, 1000, size) >= radix2

    def test_bound_rejects_length_with_other_factors(self):
        with pytest.raises(ValueError, match="5-smooth"):
            pq._pair_count_error_bound(10, 10, 14)

    def test_bound_at_top_of_goldbach_range(self, table):
        n = table.primes(10 ** 6).size
        assert n == 78498
        # the least power of two >= 2*10^6 + 1, which a full-length transform
        # at N = 10^6 would need
        assert pq._pair_count_error_bound(n, n, 1 << 21) < 2.0 ** -20
        # the length the half-index transform uses at N = 999999 (nmax = 499998)
        size = pq._transform_length(2 * 499998 + 1)
        assert size == 10 ** 6
        assert pq._pair_count_error_bound(n, n, size) < 2.0 ** -20

    def test_bound_reaching_quarter_raises(self, monkeypatch):
        monkeypatch.setattr(pq, "_FFT_TWIDDLE_ERR", 0.01)
        p = np.arange(100, dtype=np.int64)
        with pytest.raises(ArithmeticError, match="bound"):
            pq._pair_sum_counts(p, p, 100)

    def test_entry_off_integer_raises(self, monkeypatch):
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) + 0.3)
        p = np.arange(10, dtype=np.int64)
        with pytest.raises(ArithmeticError, match="integer"):
            pq._pair_sum_counts(p, p, 10)


def full_length_goldbach(N, cs, table):
    """Reference count: sum over p3 of the full-length pair counts at N - p3."""
    ps = table.primes(N)
    P1, P2, P3 = (ps[pq._ps_member_at(ps, GammaExponent.from_c(c))] for c in cs)
    return int(blocked_pair_sum_counts(P1, P2, N)[N - P3].sum())


_rng = random.Random(20111)
_SPLIT_CASES = [
    (10 ** 4, (1.01, 1.01, 1.01)),
    (10 ** 4 + 1, (1.01, 1.01, 1.01)),
    (10 ** 4, (1.01, 1.05, 1.1)),
    (10 ** 4 + 1, (1.1, 1.05, 1.01)),
    # 10007 and 10009 are primes: p3 = N - 2 has half-index M, p3 = N has
    # M + 1 and must be dropped
    (10009, (1.0 + 1e-9,) * 3),
    (10009, (1.01, 1.02, 1.0 + 1e-9)),
    # N - 4 = 10007 is prime: triples with two 2s
    (10011, (1.0 + 1e-9, 1.01, 1.0 + 1e-9)),
] + [
    (
        _rng.randrange(10 ** 4, 3 * 10 ** 4),
        tuple(round(_rng.uniform(1.001, 1.19), 3) for _ in range(3)),
    )
    for _ in range(4)
] + [
    # 2M + 1 = N - 2 = 10001 lies just above the 5-smooth length 10^4, so the
    # transform takes the next one, 10240
    (10003, (1.01, 1.01, 1.01)),
    (10003, (1.01, 1.05, 1.1)),
]


class TestGoldbach3:
    def test_even_degenerate(self):
        r = pq.goldbach3_count(10 ** 4 + 2, 1.01, 1.01, 1.01)
        assert r.degenerate
        assert r.predicted == 0.0
        assert r.exact > 0

    def test_c_near_one_matches_classical_count(self, table):
        N = 10001
        c = 1.0 + 1e-9
        r = pq.goldbach3_count(N, c, c, c)
        # classical ordered-triple oracle via a plain double loop
        primes = table.primes(N)
        is_prime = np.zeros(N + 1, dtype=bool)
        is_prime[primes] = True
        classical = 0
        for p1 in primes:
            rest = N - int(p1)
            if rest < 4:
                break
            sub = primes[primes < rest]
            classical += int(np.count_nonzero(is_prime[rest - sub]))
        assert r.exact == classical

    def test_regression_pinned_count(self):
        # first oracle run pinned: N = 10^5 + 3, all exponents 1.01
        r = pq.goldbach3_count(10 ** 5 + 3, 1.01, 1.01, 1.01)
        assert r.exact == 8418930
        assert r.predicted == pytest.approx(5435568.118649692, rel=1e-9)

    def test_pinned_count_at_top_of_range(self):
        # equal to the blocked pair loop's count at the same N
        r = pq.goldbach3_count(999999, 1.01, 1.01, 1.01)
        assert r.exact == 268313994

    @pytest.mark.parametrize("N, cs", _SPLIT_CASES)
    def test_split_equals_full_length_reference(self, table, N, cs):
        assert pq.goldbach3_count(N, *cs).exact == full_length_goldbach(N, cs, table)

    def test_odd_N_convolves_at_half_length(self, monkeypatch):
        sizes = []
        pair_counts = pq._pair_sum_counts
        monkeypatch.setattr(
            pq, "_pair_sum_counts", lambda a, b, n: sizes.append(n) or pair_counts(a, b, n)
        )
        pq.goldbach3_count(10009, 1.01, 1.01, 1.01)
        pq.goldbach3_count(10010, 1.01, 1.01, 1.01)
        assert sizes == [(10009 - 3) // 2]

    def test_mixed_exponents_run(self):
        r = pq.goldbach3_count(10 ** 4 + 1, 1.01, 1.05, 1.1)
        assert r.exact >= 0
        assert r.predicted > 0

    def test_ratio_is_a_read_only_property(self):
        odd = pq.goldbach3_count(10 ** 4 + 1, 1.01, 1.05, 1.1)
        even = pq.goldbach3_count(10 ** 4 + 2, 1.01, 1.01, 1.01)
        assert odd.ratio == odd.exact / odd.predicted
        assert even.predicted == 0.0 and even.ratio is None
        with pytest.raises(AttributeError):
            odd.ratio = 1.0
        # a property, not a field: the serialised result is unchanged
        assert "ratio" not in dataclasses.asdict(odd)

    def test_rejections(self):
        with pytest.raises(ValueError):
            pq.goldbach3_count(999, 1.01, 1.01, 1.01)
        with pytest.raises(ValueError):
            pq.goldbach3_count(10 ** 5 + 3, 1.3, 1.01, 1.01)
