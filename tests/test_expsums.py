import cmath
import itertools
import math
import time
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from psprimes import expsums as ex
from psprimes import numeric as nc
from psprimes import pspseq as pq
from psprimes import sieve as sv
from psprimes.numeric import GammaExponent, unit_exp_parts


def naive_theorem_sum(spec):
    """Two-loop reference evaluation in plain Python arithmetic."""
    lam = sv.lambda_array(2 * spec.x)
    total = 0.0
    for h in range(spec.H + 1, 2 * spec.H + 1):
        s = 0j
        for n in range(spec.x + 1, 2 * spec.x + 1):
            if lam[n] > 0:
                ph = spec.alpha * n + h * (n + spec.u) ** spec.g.gamma
                s += lam[n] * cmath.exp(2j * math.pi * ph)
        total += abs(s)
    return total


def per_h_theorem_sum(spec, scaled=False):
    """math.fsum over h of math.hypot of the math.fsum of each h's terms (reference)."""
    ns, w = sv._prime_powers(spec.x, 2 * spec.x)
    gam = spec.g.gamma
    pow_u = (ns + spec.u) ** gam
    sums = []
    for h in range(spec.H + 1, 2 * spec.H + 1):
        cos, sin = unit_exp_parts(spec.alpha * ns + h * pow_u)
        sums.append(math.hypot(math.fsum(w * cos), math.fsum(w * sin)))
    total = math.fsum(sums)
    return total * min(1.0, spec.x ** (1.0 - gam) / spec.H) if scaled else total


class TestTheoremSum:
    def test_matches_naive_oracle(self):
        g = GammaExponent.from_c(1.1)
        spec = ex.ExpSumSpec(alpha=math.sqrt(2), g=g, u=0.0, x=2 ** 10, H=2)
        fast = ex.theorem_sum(spec)
        slow = naive_theorem_sum(spec)
        assert fast == pytest.approx(slow, rel=1e-6)

    def test_reduces_to_plain_form_at_alpha_zero(self):
        # alpha = 0, u = 0 must agree with an independently coded
        # sum_h |sum_n Lambda(n) e(h n^gamma)| evaluation
        g = GammaExponent.from_c(1.1)
        x, H = 2 ** 10, 3
        spec = ex.ExpSumSpec(alpha=0.0, g=g, u=0.0, x=x, H=H)
        val = ex.theorem_sum(spec)
        lam = sv.lambda_array(2 * x)
        total = 0.0
        for h in range(H + 1, 2 * H + 1):
            s = 0j
            for n in range(x + 1, 2 * x + 1):
                if lam[n] > 0:
                    s += lam[n] * cmath.exp(2j * math.pi * h * n ** g.gamma)
            total += abs(s)
        assert val == pytest.approx(total, rel=1e-9)

    def test_triangle_inequality_bound(self):
        g = GammaExponent.from_c(1.05)
        spec = ex.ExpSumSpec(alpha=0.7, g=g, u=0.3, x=2 ** 10, H=3)
        val = ex.theorem_sum(spec)
        lam = sv.lambda_array(2 ** 11)
        cap = float(lam[2 ** 10 + 1 :].sum()) * spec.H
        assert val <= cap

    def test_scaled_factor(self):
        g = GammaExponent.from_c(1.1)
        spec = ex.ExpSumSpec(alpha=0.1, g=g, u=0.0, x=2 ** 10, H=8)
        plain = ex.theorem_sum(spec)
        scaled = ex.theorem_sum(spec, scaled=True)
        factor = min(1.0, (2 ** 10) ** (1 - g.gamma) / 8)
        assert scaled == pytest.approx(plain * factor, rel=1e-12)

    def test_resource_guard(self, monkeypatch):
        g = GammaExponent.from_c(1.1)
        spec = ex.ExpSumSpec(alpha=0.0, g=g, u=0.0, x=2 ** 10, H=8)
        work = 8 * ex._prime_power_bound(2 ** 10)  # H*P
        monkeypatch.setattr(ex, "_MAX_THEOREM_TERMS", work)
        ex.theorem_sum(spec)
        monkeypatch.setattr(ex, "_MAX_THEOREM_TERMS", work - 1)
        with pytest.raises(ex.ResourceGuardError, match="phase terms"):
            ex.theorem_sum(spec)

    # P = 8 prime powers at x = 16 and 128 at x = 880 divide 2^14, 142 at
    # x = 1024 does not, and 20429 at x = 2^18 fill more than one chunk; the
    # last block of h is short except at x = 880, H = 256
    @pytest.mark.parametrize(
        "x, H, alpha, u, scaled",
        [(16, 20000, math.sqrt(2), 0.0, False), (1024, 20000, 0.3, 1.0, True),
         (880, 256, math.sqrt(2), 0.0, False), (880, 257, 0.3, 1.0, False),
         (2 ** 18, 3, math.sqrt(2), 0.731, True), (16, 1, 0.3, 1.0, True)],
    )
    def test_blocks_of_h_equal_the_per_h_loop(self, x, H, alpha, u, scaled):
        spec = ex.ExpSumSpec(alpha=alpha, g=GammaExponent.from_c(1.1), u=u, x=x, H=H)
        assert ex.theorem_sum(spec, scaled) == per_h_theorem_sum(spec, scaled)

    def test_each_row_is_rounded_once(self):
        # the row 2^53 + 1 + 2^-60 rounds to 2^53 + 2, but adding its parts
        # in floats gives 2^53: the tie 2^53 + 1 goes to even first
        w = np.array([2.0 ** 53, 1.0, 2.0 ** -60])
        re, _ = ex._weighted_parts(w, range(3), lambda i: np.array([[0.0], [0.5], [0.0]]) + 0 * i)
        assert re == [2.0 ** 53 + 2, -(2.0 ** 53 + 2), 2.0 ** 53 + 2]

    @pytest.mark.parametrize("x, H, P", [(16, 20000, 8), (1024, 500, 142), (2 ** 18, 3, 20429)])
    def test_one_weighted_parts_call_per_block_of_h(self, monkeypatch, x, H, P):
        shapes = []
        kernel = ex._weighted_parts

        def spy(w, ns, phase):
            shapes.append(phase(np.arange(min(len(ns), nc._FSUM_CHUNK))).shape)
            return kernel(w, ns, phase)

        monkeypatch.setattr(ex, "_weighted_parts", spy)
        ex.theorem_sum(ex.ExpSumSpec(alpha=0.3, g=GammaExponent.from_c(1.1), u=0.0, x=x, H=H))
        rows = max(1, nc._FSUM_CHUNK // P)
        assert len(shapes) == -(-H // rows)
        assert sum(r for r, _ in shapes) == H
        assert all(r * P <= nc._FSUM_CHUNK or r == 1 for r, _ in shapes)

    def test_holds_no_list_as_long_as_H(self):
        spec = ex.ExpSumSpec(alpha=0.3, g=GammaExponent.from_c(1.1), u=0.0, x=16, H=250000)
        ex.theorem_sum(ex.ExpSumSpec(alpha=0.3, g=spec.g, u=0.0, x=16, H=8))  # table warm
        tracemalloc.start()
        try:
            ex.theorem_sum(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # H floats in a list take 8 MB; a block of 2048 h a few hundred kB
        assert peak < 4 * 2 ** 20

    def test_prime_power_bound_holds(self):
        # every x in [16, 2^16] from one cumulative count of the prime powers,
        # then sampled larger x, each from _prime_powers itself
        hi = 2 ** 17
        counts = np.concatenate([[0], np.cumsum(sv.lambda_array(hi)[1:] > 0)])
        xs = np.arange(16, 2 ** 16 + 1)
        bounds = np.array([ex._prime_power_bound(int(x)) for x in xs])
        assert (bounds >= counts[2 * xs] - counts[xs]).all()
        for x in (2 ** 16 + 1, 100003, 2 ** 18, 999999, 2 ** 20 + 7, 3 * 10 ** 6, 2 ** 23):
            assert ex._prime_power_bound(x) >= len(sv._prime_powers(x, 2 * x)[0]), x
        for x in (16, 100, 1000, 2 ** 16):
            assert len(sv._prime_powers(x, 2 * x)[0]) == counts[2 * x] - counts[x]

    def test_spec_validation(self):
        g = GammaExponent.from_c(1.1)
        with pytest.raises(ValueError):
            ex.ExpSumSpec(alpha=0.0, g=g, u=1.5, x=64, H=2)
        with pytest.raises(ValueError):
            ex.ExpSumSpec(alpha=0.0, g=g, u=0.0, x=8, H=2)


class TestBilinear:
    def test_hand_expanded_tiny_case(self):
        g = GammaExponent.from_c(1.1)
        M = N = 4  # m and n in (4, 8]
        x = 30
        want = 0j
        for m in range(M + 1, 2 * M + 1):
            for n in range(N + 1, 2 * N + 1):
                if x < m * n <= 2 * x:
                    want += cmath.exp(2j * math.pi * 3 * (m * n) ** g.gamma)
        got = ex.bilinear_sum(
            "TypeII", [1] * 4, [1] * 4, M, N,
            alpha=0.0, g=g, u=0.0, x=x, h_weights={3: 1.0},
        )
        assert got == pytest.approx(abs(want), abs=1e-12)

    def test_zero_weights_give_zero(self):
        g = GammaExponent.from_c(1.1)
        val = ex.bilinear_sum(
            "TypeII", [1] * 3, [1] * 3, 3, 3,
            alpha=0.2, g=g, u=0.1, x=20, h_weights={2: 0.0, 5: 0.0},
        )
        assert val == 0.0

    def test_log_coefficients_match_direct(self):
        g = GammaExponent.from_c(1.05)
        M, N = 4, 8
        mr, nr = range(M + 1, 2 * M + 1), range(N + 1, 2 * N + 1)
        x = 60
        b = [math.log(n) for n in nr]
        want = 0j
        for h, d in ((2, 1.0), (3, -0.5)):
            for i, m in enumerate(mr):
                for j, n in enumerate(nr):
                    if x < m * n <= 2 * x:
                        want += (
                            d
                            * 0.5
                            * b[j]
                            * cmath.exp(
                                2j * math.pi * (0.25 * m * n + h * (m * n + 0.5) ** g.gamma)
                            )
                        )
        got = ex.bilinear_sum(
            "TypeI", [0.5] * M, b, M, N,
            alpha=0.25, g=g, u=0.5, x=x, h_weights={2: 1.0, 3: -0.5},
        )
        assert got == pytest.approx(abs(want), abs=1e-12)

    def test_no_product_in_range_returns_at_once(self):
        # m in (2^20, 2^21] and n = 2 give m*n in (2^21, 2^22], none in (x, 2x]
        g = GammaExponent.from_c(1.1)
        M = x = 1 << 20
        t0 = time.perf_counter()
        val = ex.bilinear_sum(
            "TypeI", [1.0] * M, [1.0], M, 1,
            alpha=0.0, g=g, u=0.0, x=x, h_weights={1: 1.0},
        )
        assert val == 0.0
        assert time.perf_counter() - t0 < 1.0  # the loop over every m took ~7 s

    @pytest.mark.parametrize("x", [2500, 4000, 9000])
    def test_partial_overlap_equals_full_loop(self, x):
        # the reference visits every m, as the loop did before it was windowed
        g = GammaExponent.from_c(1.05)
        M, N, u, alpha = 200, 15, 0.25, 0.3
        mr, nr = range(M + 1, 2 * M + 1), range(N + 1, 2 * N + 1)
        a = np.cos(np.arange(len(mr), dtype=np.float64))
        b = np.linspace(-1.0, 1.0, len(nr))
        weights = {1: 1.0, 4: -0.5}
        ns = np.fromiter(nr, dtype=np.int64)
        res, ims = [], []
        for h, delta in sorted(weights.items()):
            for i, m in enumerate(mr):
                prod = m * ns
                mask = (prod > x) & (prod <= 2 * x)
                if not mask.any():
                    continue
                sel = prod[mask]
                cos, sin = unit_exp_parts(alpha * sel + h * (sel + u) ** g.gamma)
                res.append(delta * float(a[i]) * math.fsum(b[mask] * cos))
                ims.append(delta * float(a[i]) * math.fsum(b[mask] * sin))
        want = math.hypot(math.fsum(res), math.fsum(ims))
        got = ex.bilinear_sum(
            "TypeII", a, b, M, N, alpha=alpha, g=g, u=u, x=x, h_weights=weights
        )
        assert got == want and want > 0.0

    def test_coefficient_bounds_enforced(self):
        g = GammaExponent.from_c(1.1)
        common = dict(alpha=0.0, g=g, u=0.0, x=3, h_weights={1: 1.0})  # m*n = 4
        with pytest.raises(ValueError):
            ex.bilinear_sum("TypeII", [2.0], [1.0], 1, 1, **common)
        with pytest.raises(ValueError):
            ex.bilinear_sum("TypeII", [1.0], [1.5], 1, 1, **common)
        with pytest.raises(ValueError):
            ex.bilinear_sum(
                "TypeI", [1.0], [1.0], 1, 1,
                alpha=0.0, g=g, u=0.0, x=3, h_weights={1: 2.0},
            )
        with pytest.raises(ValueError):
            ex.bilinear_sum("TypeX", [1.0], [1.0], 1, 1, **common)

    @pytest.mark.parametrize("kind", ["TypeI", "TypeII"])
    def test_empty_range_rejected(self, kind):
        # TypeI leaked max() of an empty sequence; TypeII returned 0.0
        g = GammaExponent.from_c(1.1)
        for M, N in ((1, 0), (0, 2), (-5, 3)):
            with pytest.raises(ValueError, match="M and N must be at least 1"):
                ex.check_bilinear_size(M, N, 10, {1: 1.0})
            with pytest.raises(ValueError, match="M and N must be at least 1"):
                ex.bilinear_sum(kind, [1.0] * max(M, 0), [1.0] * max(N, 0), M, N,
                                alpha=0.0, g=g, u=0.0, x=10, h_weights={1: 1.0})

    @pytest.mark.parametrize("a, b, delta", [([math.nan], [1.0], 1.0),
                                             ([1.0], [math.nan], 1.0),
                                             ([1.0], [1.0], math.nan)],
                             ids=["a", "b", "delta"])
    def test_nan_coefficient_rejected(self, a, b, delta):
        g = GammaExponent.from_c(1.1)
        with pytest.raises(ValueError):  # m*n = 4 lies in (x, 2x]
            ex.bilinear_sum("TypeI", a, b, 1, 1, alpha=0.0, g=g, u=0.0, x=3,
                            h_weights={1: delta})


class TestVaaler:
    @pytest.mark.parametrize("H", [10, 100])
    def test_pointwise_inequality_on_grid(self, H):
        va = ex.vaaler_coeffs(H)
        ts = np.arange(20000) / 20000.0
        saw = (ts - np.floor(ts)) - 0.5
        slack = np.abs(saw - va.psi_poly(ts)) - va.majorant(ts)
        assert float(slack.max()) <= 1e-10

    def test_coefficient_decay(self):
        va = ex.vaaler_coeffs(1000)
        for h in (1, 7, 100, 999, 1000):
            assert abs(va.a_coeff(h)) * h <= 1.0
            assert abs(va.a_coeff(-h) - va.a_coeff(h).conjugate()) == 0.0
        assert va.b.max() <= 2.0 / 1000
        assert va.b.min() >= 0.0

    def test_majorant_nonnegative(self):
        va = ex.vaaler_coeffs(25)
        ts = np.linspace(0, 1, 5000)
        assert float(va.majorant(ts).min()) >= -1e-12

    def test_rejections(self):
        with pytest.raises(ValueError):
            ex.vaaler_coeffs(0)
        va = ex.vaaler_coeffs(5)
        with pytest.raises(ValueError):
            va.a_coeff(0)
        with pytest.raises(ValueError):
            va.a_coeff(6)


class TestVdc:
    def test_small_grid(self):
        for c in (1.05, 1.1):
            g = GammaExponent.from_c(c)
            for h in (1, 8, 64):
                for k in (10, 13, 16):
                    r = ex.vdc_bound_check(h, g, 0.0, 2 ** k)
                    assert r.empirical_c <= 10.0

    def test_specific_point(self):
        g = GammaExponent.from_c(1.1)
        r = ex.vdc_bound_check(1.0, g, 0.0, 2 ** 12)
        assert r.lhs <= 10.0 * r.rhs_unit

    def test_h_zero_rejected(self):
        with pytest.raises(ValueError):
            ex.vdc_bound_check(0.0, GammaExponent.from_c(1.1), 0.0, 1024)


class TestDirectSumLimits:
    def test_limits_are_inclusive_and_checked_first(self, monkeypatch):
        monkeypatch.setattr(ex, "_MAX_DIRECT_TERMS", 64)
        monkeypatch.setattr(ex, "_MAX_VAALER_H", 8)
        g = GammaExponent.from_c(1.1)
        ex.vdc_bound_check(1.0, g, 0.0, 64)
        ex.b_process_compare(1.0, g, 64)
        ex.vaaler_coeffs(8)
        ex.check_bilinear_size(8, 8, 30, {1: 1.0})
        with pytest.raises(ex.ResourceGuardError):
            ex.vdc_bound_check(1.0, g, 0.0, 65)
        with pytest.raises(ex.ResourceGuardError):
            ex.b_process_compare(1.0, g, 65)
        with pytest.raises(ex.ResourceGuardError):
            ex.vaaler_coeffs(9)
        with pytest.raises(ex.ResourceGuardError):
            # rejected before the (misaligned) coefficients are read
            ex.bilinear_sum(
                "TypeII", [], [], 8, 9,
                alpha=0.0, g=g, u=0.0, x=30, h_weights={1: 1.0},
            )

    def test_bilinear_rows_limit(self, monkeypatch):
        # rows are the m whose m*n can reach (x, 2x], once per nonzero delta_h
        monkeypatch.setattr(ex, "_MAX_BILINEAR_ROWS", 8)
        g = GammaExponent.from_c(1.1)
        ex.check_bilinear_size(4, 1, 8, {1: 1.0, 2: 0.0, 3: 1.0})  # m in (4, 8], twice
        ex.check_bilinear_size(4, 10, 40, {1: 1.0})  # m in (4, 7]
        # n in (10, 20]; x = 500 gives m in (50, 90], x = 40 m in (4, 7] three times
        for M, x, h_weights in ((50, 500, {1: 1.0}), (4, 40, {1: 1.0, 2: 1.0, 3: -1.0})):
            with pytest.raises(ex.ResourceGuardError, match="rows"):
                # rejected before the (misaligned) coefficients are read
                ex.bilinear_sum(
                    "TypeI", [], [], M, 10,
                    alpha=0.0, g=g, u=0.0, x=x, h_weights=h_weights,
                )

    def test_bilinear_row_count_matches_the_loop(self):
        # the rows counted are exactly the m with some m*n in (x, 2x]: the others add nothing
        g = GammaExponent.from_c(1.3)
        M, N = 29, 6  # m in (29, 58], n in (6, 12]
        ms = range(M + 1, 2 * M + 1)
        a, b = np.linspace(-1, 1, M), np.cos(np.arange(N))
        kw = dict(alpha=0.3, g=g, u=0.5, h_weights={2: 0.5})
        for x in (1, 10, 100, 200, 500, 2000):
            visited = [m for m in ms if any(x < m * n <= 2 * x for n in range(N + 1, 2 * N + 1))]
            assert list(ex._bilinear_rows(M, N, x)) == visited
            got = ex.bilinear_sum("TypeII", a, b, M, N, x=x, **kw)
            a_rows = np.where(np.isin(ms, visited), a, 0.0)
            assert got == ex.bilinear_sum("TypeII", a_rows, b, M, N, x=x, **kw)

    def test_bilinear_rows_closed_form_on_a_grid(self):
        # every m of the closed form has an n, and no other m does
        for M, N in itertools.product(range(1, 9), repeat=2):
            for x in range(-2, 4 * M * N + 3):
                visited = [m for m in range(M + 1, 2 * M + 1)
                           if any(x < m * n <= 2 * x for n in range(N + 1, 2 * N + 1))]
                assert list(ex._bilinear_rows(M, N, x)) == visited, (M, N, x)

    def test_oversized_bilinear_rows_rejected_at_once(self):
        # m in (2^24, 2^25] and n = 2
        with pytest.raises(ex.ResourceGuardError, match="rows = 16777216"):
            ex.check_bilinear_size(2 ** 24, 1, 2 ** 25, {1: 1.0})
        ex.check_bilinear_size(2 ** 24, 1, 2 ** 24, {1: 1.0})  # no m reaches (x, 2x]


class TestBProcess:
    def test_error_within_bound_on_grid(self):
        g = GammaExponent.from_c(1.1)
        for h in (4.0, 16.0, 64.0):
            for k in (12, 14):
                r = ex.b_process_compare(h, g, 2 ** k)
                assert r.error <= 10.0 * r.bound

    def test_empty_stationary_range(self):
        g = GammaExponent.from_c(1.1)
        N = 2 ** 12
        # derivative range stays inside (0.2, 0.3): no integer frequencies
        h = 0.25 / (g.gamma * (N + 1) ** (g.gamma - 1.0))
        r = ex.b_process_compare(h, g, N, interval=(N + 1, N + 40))
        assert r.num_stationary == 0
        assert r.stationary == 0j
        assert r.error <= 10.0 * r.bound

    def test_degenerate_flag(self):
        g = GammaExponent.from_c(1.1)
        N = 2 ** 12
        h = 0.5 / N ** g.gamma  # F = 0.5 < 1
        r = ex.b_process_compare(h, g, N)
        assert r.degenerate

    def test_rejections(self):
        g = GammaExponent.from_c(1.1)
        with pytest.raises(ValueError):
            ex.b_process_compare(-1.0, g, 1024)
        with pytest.raises(ValueError):
            ex.b_process_compare(4.0, g, 1024, interval=(100, 5000))

    def test_stationary_budget_counts_the_solved_points(self, monkeypatch):
        g = GammaExponent.from_c(1.1)
        n = ex.b_process_compare(1000.0, g, 1024).num_stationary
        assert n == 30
        monkeypatch.setattr(ex, "_MAX_STATIONARY_TERMS", n)
        assert ex.b_process_compare(1000.0, g, 1024).num_stationary == n
        monkeypatch.setattr(ex, "_MAX_STATIONARY_TERMS", n - 1)
        with pytest.raises(ex.ResourceGuardError):
            ex.b_process_compare(1000.0, g, 1024)

    def test_huge_h_rejected_up_front(self):
        g = GammaExponent.from_c(1.1)
        with pytest.raises(ex.ResourceGuardError):
            ex.b_process_compare(1e300, g, 1024)

    @pytest.mark.parametrize(
        "c, h, interval",
        [(c, h, None) for c in (1.01, 1.1, 1.5, 1.9) for h in (2e3, 3e4)]
        + [(1.1, 3e4, (1100.5, 1500.25))],
    )
    def test_stationary_sum_matches_mpmath(self, c, h, interval):
        # 40-digit sum over the same nu, with x_nu, |f''(x_nu)| and the phase
        # h*x^gamma - nu*x - 1/8 in mpmath from the same float h and gamma
        g = GammaExponent.from_c(c)
        N = 1024
        a, b = interval or (N + 1, 2 * N)
        r = ex.b_process_compare(h, g, N, interval)
        gam = g.gamma
        nus = range(math.ceil(gam * h * b ** (gam - 1.0)), math.floor(gam * h * a ** (gam - 1.0)) + 1)
        assert r.num_stationary == len(nus) > 0
        with mpmath.workdps(40):
            G, hh = mpmath.mpf(gam), mpmath.mpf(h)
            want, wsum = mpmath.mpc(0), mpmath.mpf(0)
            for nu in nus:
                x = min(max((nu / (G * hh)) ** (1 / (G - 1)), mpmath.mpf(a)), mpmath.mpf(b))
                w = 1 / mpmath.sqrt(abs(G * (G - 1) * hh * x ** (G - 2)))
                want += w * mpmath.expjpi(2 * (hh * x ** G - nu * x - mpmath.mpf(1) / 8))
                wsum += w
            want, wsum = complex(want), float(wsum)
        # each float phase is near F = h*N^gamma in size, so within a few ulps
        # of F of its exact value: allow 4 ulps of F per term, a turn being 2*pi
        F = h * N ** gam
        assert abs(r.stationary - want) <= 4 * 2 * math.pi * F * 2.0 ** -53 * wsum

    @pytest.mark.parametrize("h", [1.0, 1000.0, 3e5])
    def test_one_weighted_parts_call_per_sum(self, monkeypatch, h):
        # the direct and the stationary-phase sum, whatever the number of points
        calls = []
        kernel = ex._weighted_parts
        monkeypatch.setattr(ex, "_weighted_parts", lambda *a: calls.append(1) or kernel(*a))
        r = ex.b_process_compare(h, GammaExponent.from_c(1.1), 1024)
        assert len(calls) == 2, r.num_stationary


def loop_dirichlet(f, g, hi):
    """The plain divisor loop: one slice per nonzero f[d], d ascending (oracle)."""
    out = np.zeros(hi + 1, dtype=np.result_type(f, g))
    for d in np.nonzero(f[: hi + 1])[0]:
        if d == 0:
            continue
        out[d :: d] += f[d] * g[1 : hi // d + 1]
    return out


def loop_hb_coefficients(params):
    """sum over j of c_j mu_Z^(*j) * 1^(*(j-1)), term by term, in integers (oracle)."""
    hi = 2 * params.x
    mu = sv.mobius_array(min(params.Z, hi))
    mu_z = np.zeros(hi + 1, dtype=np.int64)
    mu_z[1 : mu.size] = mu[1:]
    ones = np.ones(hi + 1, dtype=np.int64)
    total = np.zeros(hi + 1, dtype=np.int64)
    mu_j = mu_z  # mu_Z^(*j)
    ones_j = np.zeros(hi + 1, dtype=np.int64)  # 1^(*(j-1)), delta at j = 1
    ones_j[1] = 1
    for j in range(1, params.J + 1):
        if j > 1:
            mu_j = loop_dirichlet(mu_j, mu_z, hi)
            ones_j = loop_dirichlet(ones_j, ones, hi)
        total += (-1) ** (j - 1) * math.comb(params.J, j) * loop_dirichlet(mu_j, ones_j, hi)
    return total


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestDirichletMatchesLoop:
    """_dirichlet and hb_terms are bit-identical to the per-divisor loops."""

    @pytest.mark.parametrize("hi", [1, 2, 3, 4, 8, 9, 12, 30, 99, 100, 110, 1000, 4097])
    @pytest.mark.parametrize("density", [0.0, 0.01, 0.3, 1.0])
    def test_random_f(self, hi, density):
        rng = np.random.default_rng(hi * 10 + int(density * 100))
        size = hi + 1 + int(rng.integers(0, 4))
        f = rng.standard_normal(size) * (rng.random(size) < density)
        f[rng.integers(0, size, 3)] = -0.0
        g = rng.standard_normal(size)
        g[rng.integers(0, size, 3)] = -0.0
        for top in (size, hi // 2 + 1, math.isqrt(hi) + 1):  # f zero beyond top
            ft = np.where(np.arange(size) < top, f, 0.0)
            assert_same_bits(ex._dirichlet(ft, g, hi), loop_dirichlet(ft, g, hi))

    def test_integer_valued_f_with_cancellation(self):
        # mu-like values: exact sums that pass through zero keep +0.0
        rng = np.random.default_rng(5)
        f = rng.integers(-1, 2, 3001).astype(np.float64)
        g = rng.integers(-2, 3, 3001).astype(np.float64)
        assert_same_bits(ex._dirichlet(f, g, 3000), loop_dirichlet(f, g, 3000))
        # the same values in int64 stay int64, and equal the float sums
        fi, gi = f.astype(np.int64), g.astype(np.int64)
        got = ex._dirichlet(fi, gi, 3000)
        assert got.dtype == np.int64
        assert np.array_equal(got, loop_dirichlet(fi, gi, 3000))
        assert np.array_equal(got, ex._dirichlet(f, g, 3000))

    @pytest.mark.parametrize(
        "J,x,Z",
        [(1, 500, 1000), (1, 500, 1700), (2, 500, 32), (2, 500, 1500), (3, 2000, None),
         (3, 2000, 4500), (4, 2000, None), (4, 300, 700), (2, 20000, None)],
    )
    def test_hb_terms(self, J, x, Z):
        params = ex.HbParams(J=J, x=x, Z=Z or ex.min_valid_cutoff(x, J))
        a = ex._hb_coefficients(params)
        assert a.dtype == np.int64
        assert np.array_equal(a, loop_hb_coefficients(params))
        assert a[0] == 0 and np.array_equal(a[1:], sv.mobius_array(2 * x)[1:])
        log = np.zeros(2 * x + 1)
        log[1:] = np.log(np.arange(1, 2 * x + 1, dtype=np.float64))
        assert_same_bits(ex.hb_terms(params), loop_dirichlet(a, log, 2 * x))

    @pytest.mark.parametrize("J", [1, 2, 3, 4])
    def test_hb_terms_takes_at_most_j_plus_one_convolutions(self, J, monkeypatch):
        calls = []
        dirichlet = ex._dirichlet
        monkeypatch.setattr(
            ex, "_dirichlet", lambda f, g, hi: calls.append(hi) or dirichlet(f, g, hi)
        )
        x = 5000
        lam = ex.hb_terms(ex.HbParams(J=J, x=x, Z=ex.min_valid_cutoff(x, J)))
        # U = mu_Z * 1 is built only for J >= 2, where Horner's rule reads it
        assert len(calls) == (1 if J == 1 else J + 1)
        assert int(np.count_nonzero(np.abs(lam[1:] - sv.lambda_array(2 * x)[1:]) > 1e-12)) == 0


class TestHeathBrown:
    def test_composite_gives_zero(self):
        lam = ex.hb_terms(ex.HbParams(J=2, x=8, Z=4))
        assert lam[12] == pytest.approx(0.0, abs=1e-12)

    def test_prime_power_value(self):
        lam = ex.hb_terms(ex.HbParams(J=2, x=10, Z=5))
        assert lam[16] == pytest.approx(math.log(2), abs=1e-12)

    def test_builds_no_table(self, monkeypatch):
        # mu comes from the base primes <= sqrt(Z) alone
        calls = []
        monkeypatch.setattr(sv, "_table", None)
        monkeypatch.setattr(sv, "prime_stream", lambda limit: calls.append(limit))
        lam = ex.hb_terms(ex.HbParams(J=3, x=1000, Z=50))
        assert calls == [] and sv._table is None
        assert lam[1009] == pytest.approx(math.log(1009), abs=1e-9)

    def test_full_dyadic_range_agreement(self):
        lam = sv.lambda_array(2 * 10 ** 4)
        for J in (2, 3):
            params = ex.HbParams(J=J, x=10 ** 4, Z=ex.min_valid_cutoff(10 ** 4, J))
            got = ex.hb_terms(params)[10 ** 4 + 1 : 2 * 10 ** 4 + 1]
            want = lam[10 ** 4 + 1 : 2 * 10 ** 4 + 1]
            assert int(np.count_nonzero(np.abs(got - want) > 1e-9)) == 0

    @pytest.mark.parametrize("J", [2, 3, 4])
    def test_coefficients_at_an_exact_power(self, J):
        # Z^J = 2x with mu(Z) != 0: A(2x) = mu(2x) needs mu read up to Z itself
        x = 6 ** J // 2
        a = ex._hb_coefficients(ex.HbParams(J=J, x=x, Z=6))
        assert np.array_equal(a[1:], sv.mobius_array(2 * x)[1:])

    def test_invalid_cutoff_rejected(self):
        with pytest.raises(ValueError):
            ex.HbParams(J=2, x=10 ** 4, Z=100)  # 100^2 < 2*10^4
        with pytest.raises(ValueError):
            ex.HbParams(J=5, x=10, Z=100)

    def test_min_valid_cutoff(self):
        assert ex.min_valid_cutoff(10 ** 4, 2) ** 2 >= 2 * 10 ** 4
        assert (ex.min_valid_cutoff(10 ** 4, 2) - 1) ** 2 < 2 * 10 ** 4
        assert ex.min_valid_cutoff(10 ** 4, 3) ** 3 >= 2 * 10 ** 4
        # exact powers: Z^J = 2x itself
        assert ex.min_valid_cutoff(32, 3) == 4
        assert ex.min_valid_cutoff(8, 4) == 2
        assert ex.min_valid_cutoff(2 ** 99, 4) == 2 ** 25
        for J in range(1, 5):
            for x in range(1, 3000):
                Z = ex.min_valid_cutoff(x, J)
                assert (Z - 1) ** J < 2 * x <= Z ** J
        # beyond the float range, where (2x)^(1/J) overflows as a float
        x = 10 ** 400 + 7
        Z = ex.min_valid_cutoff(x, 3)
        assert (Z - 1) ** 3 < 2 * x <= Z ** 3
        with pytest.raises(ValueError):
            ex.min_valid_cutoff(100, 0)


class TestBalogFriedlander:
    def test_c_near_one_discrepancy_vanishes(self):
        d = ex.bf_discrepancy(2 ** 16, 1.0 + 1e-12, 0.3)
        assert d <= 1e-5

    def test_alpha_zero_small(self):
        d = ex.bf_discrepancy(10 ** 6, 1.05, 0.0)
        assert d / 10 ** 6 <= 0.05

    def test_scan_includes_alpha_zero(self):
        res = ex.alpha_scan(2 ** 14, 1.1, 16)
        d0 = ex.bf_discrepancy(2 ** 14, 1.1, 0.0)
        assert res.max_discrepancy >= d0
        assert any(a == 0.0 for a, _ in res.rows)
        # small rationals a/q, q <= 20, ride along with the equispaced grid
        assert any(abs(a - 1 / 7) < 1e-15 for a, _ in res.rows)

    def test_doubling_grid_is_stable(self):
        m1 = ex.alpha_scan(2 ** 14, 1.1, 32).max_discrepancy
        m2 = ex.alpha_scan(2 ** 14, 1.1, 64).max_discrepancy
        assert m2 <= 1.25 * m1
        assert m2 >= m1  # the coarse grid is a subset

    def test_grid_size_cap(self):
        with pytest.raises(ValueError):
            ex.alpha_scan(2 ** 10, 1.1, 10 ** 4 + 1)

    def test_overflowing_phases_raise_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="below 2\\^52"):
                ex.bf_discrepancy(1000, 1.1, 1e308)

    def test_scan_rows_are_discrepancies_within_the_phase_error(self):
        # bf_discrepancy rounds each phase alpha*p (alpha < 1) by up to
        # p*2^-53 turns; the scan row has no phase error
        nmax, c = 2 ** 12, 1.1
        w = np.abs(ex._bf_weight_vector(nmax, c))
        ps = sv.shared_table(nmax).primes(nmax).astype(np.float64)
        bound = 2 * math.pi * 2.0 ** -51 * math.fsum(w * ps) + 2.0 ** -47 * math.fsum(w)
        for alpha, d in ex.alpha_scan(nmax, c, 16).rows:
            assert abs(d - ex.bf_discrepancy(nmax, c, alpha)) <= bound


def scan_values(nmax, c, grid_size):
    return dict(ex.alpha_scan(nmax, c, grid_size).rows)


def scan_alphas(grid_size):
    return sorted({i / grid_size for i in range(grid_size)}
                  | {a / q for q in range(1, 21) for a in range(q)})


class TestAlphaScanByResidues:
    """Each scan row is |T(a/q)| at the exact rational a/q, from residue-class sums."""

    @pytest.mark.parametrize(
        "grid_size, fractions",
        [(1, [(0, 1), (1, 7), (3, 20), (1, 2), (19, 20)]),
         (7, [(3, 7), (5, 7), (2, 9)]),
         (360, [(7, 360), (181, 360), (1, 8), (359, 360)])],
    )
    def test_rows_match_a_40_digit_reference(self, grid_size, fractions):
        nmax, c = 2 ** 13, 1.3
        w = ex._bf_weight_vector(nmax, c)
        ps = sv.shared_table(nmax).primes(nmax)
        values = scan_values(nmax, c, grid_size)
        tol = 2.0 ** -48 * math.fsum(np.abs(w))
        with mpmath.workdps(40):
            for a, q in fractions:
                t = mpmath.mpc(0)
                for wp, r in zip(w.tolist(), (ps * a % q).tolist()):
                    t += mpmath.mpf(wp) * mpmath.expjpi(mpmath.mpf(2 * r) / q)
                assert abs(values[a / q] - abs(t)) <= tol

    @pytest.mark.parametrize("grid_size", [1, 7, 110, 360, 10 ** 4])
    def test_alpha_column(self, grid_size):
        rows = ex.alpha_scan(100, 1.1, grid_size).rows
        assert [a for a, _ in rows] == scan_alphas(grid_size)

    def test_rows_do_not_depend_on_the_grid(self):
        s32, s64, s360 = (scan_values(2 ** 13, 1.1, g) for g in (32, 64, 360))
        for one, other in ((s32, s64), (s32, s360), (s64, s360)):
            common = set(one) & set(other)
            assert len(common) >= 128  # at least every a/q with q <= 20
            assert all(one[alpha] == other[alpha] for alpha in common)
        assert set(s32) <= set(s64)

    def test_alpha_zero_row_is_the_weight_sum(self, table):
        nmax, c = 2 ** 18, 1.1
        w = ex._bf_weight_vector(nmax, c)
        assert w.size > nc._FSUM_CHUNK
        assert scan_values(nmax, c, 3)[0.0] == abs(math.fsum(w))

    def test_no_per_prime_phases(self, monkeypatch):
        # a timing-free guard: one table of q entries per distinct
        # denominator, where a direct sum takes pi(N) phases per alpha
        entries = []
        kernel = ex.unit_exp_parts
        monkeypatch.setattr(
            ex, "unit_exp_parts", lambda t: entries.append(np.size(t)) or kernel(t)
        )
        ex.alpha_scan(2 ** 14, 1.1, 360)
        denominators = {Fraction(i, 360).denominator for i in range(360)}
        denominators |= set(range(1, 21))
        assert 0 < sum(entries) <= sum(denominators)


class TestReductionsMatchInlineFsum:
    """Every exponential sum equals math.fsum over the whole term array.

    The references are the plain formulas, with math.fsum applied to the
    numpy arrays directly; sizes span several fsum_array chunks.
    """

    @staticmethod
    def abs_sum(w, phase):
        cos, sin = unit_exp_parts(phase)
        return math.hypot(math.fsum(w * cos), math.fsum(w * sin))

    def test_theorem_sum(self):
        g = GammaExponent.from_c(1.1)
        spec = ex.ExpSumSpec(alpha=math.sqrt(2), g=g, u=0.25, x=2 ** 18, H=2)
        lam = sv.lambda_array(2 ** 19)
        ns = np.arange(2 ** 18 + 1, 2 ** 19 + 1, dtype=np.int64)
        w = lam[ns]
        ns, w = ns[w > 0], w[w > 0]
        assert ns.size > nc._FSUM_CHUNK
        pow_u = (ns + spec.u) ** g.gamma
        want = math.fsum(
            [self.abs_sum(w, spec.alpha * ns + h * pow_u) for h in (3, 4)]
        )
        assert ex.theorem_sum(spec) == want
        scaled = want * min(1.0, spec.x ** (1.0 - g.gamma) / spec.H)
        assert ex.theorem_sum(spec, scaled=True) == scaled

    def test_bf_discrepancy_and_scan(self, table):
        nmax, c = 2 ** 18, 1.1
        g = GammaExponent.from_c(c)
        ps = table.primes(nmax)
        pf = ps.astype(np.float64)
        t = pf ** (g.gamma - 1.0)
        member = pq._ps_member_at(ps, g)
        w = c * np.log(pf) * member / t - np.log(pf)
        assert ps.size > nc._FSUM_CHUNK
        for alpha in (0.0, 0.3, math.sqrt(2) - 1):
            want = self.abs_sum(w, alpha * pf)
            assert ex.bf_discrepancy(nmax, c, alpha) == want

        def residue_row(alpha):
            # |T(a/q)| = |T((q - a)/q)|, from the weight W_r of each class r mod q
            frac = Fraction(alpha).limit_denominator(20)
            q, a = frac.denominator, min(frac.numerator, frac.denominator - frac.numerator)
            big_w = np.array([math.fsum(w[ps % q == r]) for r in range(q)])
            cos, sin = unit_exp_parts(np.arange(q) / q)
            k = a * np.arange(q) % q
            return math.hypot(math.fsum(big_w * cos[k]), math.fsum(big_w * sin[k]))

        rows = ex.alpha_scan(nmax, c, 4).rows
        assert rows == [(a, residue_row(a)) for a, _ in rows]

    def test_vdc_bound_check(self):
        g = GammaExponent.from_c(1.1)
        N, h, alpha = 2 ** 15, 4.0, 0.3
        ns = np.arange(N + 1, 2 * N + 1, dtype=np.int64)
        cos, sin = unit_exp_parts(h * ns.astype(np.float64) ** g.gamma + alpha * ns)
        want = math.hypot(math.fsum(cos), math.fsum(sin))
        assert ex.vdc_bound_check(h, g, alpha, N).lhs == want

    def test_b_process_direct(self):
        g = GammaExponent.from_c(1.1)
        N, h = 2 ** 15, 16.0
        ns = np.arange(N + 1, 2 * N + 1, dtype=np.int64)
        cos, sin = unit_exp_parts(h * ns.astype(np.float64) ** g.gamma)
        want = complex(math.fsum(cos), math.fsum(sin))
        assert ex.b_process_compare(h, g, N).direct == want

    def test_bilinear_sum(self):
        g = GammaExponent.from_c(1.05)
        M, N, x, u, alpha = 3, 30000, 150000, 0.5, 0.25
        mr = range(M + 1, 2 * M + 1)  # each m has a run of n longer than one chunk
        a = np.array([1.0, -0.5, 0.75])
        ns = np.arange(N + 1, 2 * N + 1, dtype=np.int64)
        b = np.log(ns.astype(np.float64)) / math.log(120000)
        weights = {2: 1.0, 3: -0.5}
        res, ims = [], []
        for h, delta in weights.items():
            for i, m in enumerate(mr):
                prod = m * ns
                mask = (prod > x) & (prod <= 2 * x)
                sel = prod[mask]
                cos, sin = unit_exp_parts(alpha * sel + h * (sel + u) ** g.gamma)
                res.append(delta * a[i] * math.fsum(b[mask] * cos))
                ims.append(delta * a[i] * math.fsum(b[mask] * sin))
        want = math.hypot(math.fsum(res), math.fsum(ims))
        got = ex.bilinear_sum(
            "TypeII", a, b, M, N, alpha=alpha, g=g, u=u, x=x, h_weights=weights
        )
        assert got == want


CHUNK = nc._FSUM_CHUNK
EDGE_LENGTHS = [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5]


class TestChunkEdges:
    """The streamed sums equal one whole-array math.fsum at chunk edges, bit for bit.

    Each reference forms every phase at once and sums the whole term array;
    the sums under test read their terms _FSUM_CHUNK at a time.
    """

    @staticmethod
    def parts(w, phase):
        cos, sin = unit_exp_parts(phase)
        return math.fsum(w * cos), math.fsum(w * sin)

    @pytest.mark.parametrize("N", EDGE_LENGTHS)
    def test_vdc_bound_check(self, N):
        g = GammaExponent.from_c(1.3)
        h, alpha = 7.0, 0.6180339
        ns = np.arange(N + 1, 2 * N + 1, dtype=np.int64)
        want = math.hypot(*self.parts(1.0, h * ns.astype(np.float64) ** g.gamma + alpha * ns))
        assert ex.vdc_bound_check(h, g, alpha, N).lhs == want

    @pytest.mark.parametrize("length", EDGE_LENGTHS)
    def test_b_process_direct(self, length):
        g = GammaExponent.from_c(1.2)
        N, h = 4 * CHUNK, 5.5
        # [N + 1, N + length] and [N + 1.5, N + length + 1.5] each hold `length` integers
        for a, b in ((N + 1, N + length), (N + 1.5, N + length + 1.5)):
            ns = np.arange(math.ceil(a), math.ceil(a) + length, dtype=np.int64)
            want = complex(*self.parts(1.0, h * ns.astype(np.float64) ** g.gamma))
            assert ex.b_process_compare(h, g, N, (a, b)).direct == want

    @pytest.mark.parametrize("length", EDGE_LENGTHS)
    # the ids of the ascending cases when this test took an m range and an n step
    @pytest.mark.parametrize("M", [1, 3], ids=["mr0-1", "mr1-1"])
    def test_bilinear_row(self, length, M):
        # the row m = 2M has a run of n with m*n in (x, 2x] `length` long, n in (N, N + length]
        g = GammaExponent.from_c(1.1)
        N, x = length + 40, 2 * M * (length + 20)
        b = np.random.default_rng(length).uniform(-1.0, 1.0, N)
        ns = np.arange(N + 1, 2 * N + 1, dtype=np.int64)
        u, alpha, h, delta = 0.375, 0.2, 3, -0.75
        res, ims = [], []
        for m in range(M + 1, 2 * M + 1):
            prod = m * ns
            mask = (prod > x) & (prod <= 2 * x)
            assert m < 2 * M or int(mask.sum()) == length
            sel = prod[mask]
            re, im = self.parts(b[mask], alpha * sel + h * (sel + u) ** g.gamma)
            res.append(delta * 0.5 * re)
            ims.append(delta * 0.5 * im)
        want = math.hypot(math.fsum(res), math.fsum(ims))
        got = ex.bilinear_sum(
            "TypeII", [0.5] * M, b, M, N, alpha=alpha, g=g, u=u, x=x, h_weights={h: delta}
        )
        assert got == want


class TestNarrowedHbDtypes:
    def test_cast_that_would_wrap_raises(self):
        for dtype, bad in ((np.int16, 32768), (np.int16, -32769), (np.int8, 128)):
            with pytest.raises(ArithmeticError):
                ex._narrow(np.array([0, bad, 1], dtype=np.int64), dtype)
        a = np.array([-32768, 0, 432, 32767], dtype=np.int64)
        got = ex._narrow(a, np.int16)
        assert got.dtype == np.int16 and np.array_equal(got, a)
        assert ex._narrow(np.zeros(0, dtype=np.int64), np.int8).dtype == np.int8

    def test_convolutions_read_narrow_inputs(self, monkeypatch):
        # mu_Z in int8 and U in int16; the integer Horner steps stay int64 and
        # the last convolution reads A in int8
        seen = []
        dirichlet = ex._dirichlet
        monkeypatch.setattr(
            ex, "_dirichlet",
            lambda f, g, hi: seen.append((f.dtype, g.dtype)) or dirichlet(f, g, hi),
        )
        x = 3000
        lam = ex.hb_terms(ex.HbParams(J=3, x=x, Z=ex.min_valid_cutoff(x, 3)))
        assert seen == [(np.int8, np.int64), (np.int64, np.int16), (np.int64, np.int16),
                        (np.int8, np.float64)]
        assert int(np.count_nonzero(np.abs(lam[1:] - sv.lambda_array(2 * x)[1:]) > 1e-12)) == 0

    def test_coefficients_outside_int8_raise(self, monkeypatch):
        monkeypatch.setattr(ex, "_hb_coefficients", lambda params: np.full(41, 128, np.int64))
        with pytest.raises(ArithmeticError):
            ex.hb_terms(ex.HbParams(J=2, x=20, Z=7))
