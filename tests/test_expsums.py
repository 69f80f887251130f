import cmath
import math
import time

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
        monkeypatch.setattr(ex, "_MAX_XH", 1000)
        g = GammaExponent.from_c(1.1)
        spec = ex.ExpSumSpec(alpha=0.0, g=g, u=0.0, x=2 ** 10, H=8)
        with pytest.raises(ex.ResourceGuardError):
            ex.theorem_sum(spec)

    def test_spec_validation(self):
        g = GammaExponent.from_c(1.1)
        with pytest.raises(ValueError):
            ex.ExpSumSpec(alpha=0.0, g=g, u=1.5, x=64, H=2)
        with pytest.raises(ValueError):
            ex.ExpSumSpec(alpha=0.0, g=g, u=0.0, x=8, H=2)


class TestBilinear:
    def test_hand_expanded_tiny_case(self):
        g = GammaExponent.from_c(1.1)
        mr, nr = range(5, 9), range(5, 9)
        x = 30
        want = 0j
        for m in mr:
            for n in nr:
                if x < m * n <= 2 * x:
                    want += cmath.exp(2j * math.pi * 3 * (m * n) ** g.gamma)
        got = ex.bilinear_sum(
            "TypeII", [1] * 4, [1] * 4, mr, nr,
            alpha=0.0, g=g, u=0.0, x=x, h_weights={3: 1.0},
        )
        assert got == pytest.approx(abs(want), abs=1e-12)

    def test_zero_weights_give_zero(self):
        g = GammaExponent.from_c(1.1)
        val = ex.bilinear_sum(
            "TypeII", [1] * 3, [1] * 3, range(4, 7), range(4, 7),
            alpha=0.2, g=g, u=0.1, x=20, h_weights={2: 0.0, 5: 0.0},
        )
        assert val == 0.0

    def test_log_coefficients_match_direct(self):
        g = GammaExponent.from_c(1.05)
        mr, nr = range(3, 7), range(8, 16)
        x = 40
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
            "TypeI", [0.5] * 4, b, mr, nr,
            alpha=0.25, g=g, u=0.5, x=x, h_weights={2: 1.0, 3: -0.5},
        )
        assert got == pytest.approx(abs(want), abs=1e-12)

    def test_no_product_in_range_returns_at_once(self):
        # m in (2^20, 2^21] and n = 2 give m*n in (2^21, 2^22], none in (x, 2x]
        g = GammaExponent.from_c(1.1)
        M = x = 1 << 20
        t0 = time.perf_counter()
        val = ex.bilinear_sum(
            "TypeI", [1.0] * M, [1.0], range(M + 1, 2 * M + 1), range(2, 3),
            alpha=0.0, g=g, u=0.0, x=x, h_weights={1: 1.0},
        )
        assert val == 0.0
        assert time.perf_counter() - t0 < 1.0  # the loop over every m took ~7 s

    @pytest.mark.parametrize("x", [2500, 4000, 9000])
    def test_partial_overlap_equals_full_loop(self, x):
        # the reference visits every m, as the loop did before it was windowed
        g = GammaExponent.from_c(1.05)
        mr, nr, u, alpha = range(10, 400), range(7, 30), 0.25, 0.3
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
            "TypeII", a, b, mr, nr, alpha=alpha, g=g, u=u, x=x, h_weights=weights
        )
        assert got == want and want > 0.0

    def test_coefficient_bounds_enforced(self):
        g = GammaExponent.from_c(1.1)
        common = dict(alpha=0.0, g=g, u=0.0, x=10, h_weights={1: 1.0})
        with pytest.raises(ValueError):
            ex.bilinear_sum("TypeII", [2.0], [1.0], range(3, 4), range(3, 4), **common)
        with pytest.raises(ValueError):
            ex.bilinear_sum("TypeII", [1.0], [1.5], range(3, 4), range(3, 4), **common)
        with pytest.raises(ValueError):
            ex.bilinear_sum(
                "TypeI", [1.0], [1.0], range(3, 4), range(3, 4),
                alpha=0.0, g=g, u=0.0, x=10, h_weights={1: 2.0},
            )
        with pytest.raises(ValueError):
            ex.bilinear_sum("TypeX", [1.0], [1.0], range(3, 4), range(3, 4), **common)

    @pytest.mark.parametrize("a, b, delta", [([math.nan], [1.0], 1.0),
                                             ([1.0], [math.nan], 1.0),
                                             ([1.0], [1.0], math.nan)],
                             ids=["a", "b", "delta"])
    def test_nan_coefficient_rejected(self, a, b, delta):
        g = GammaExponent.from_c(1.1)
        with pytest.raises(ValueError):  # m*n = 12 lies in (x, 2x]
            ex.bilinear_sum("TypeI", a, b, range(3, 4), range(4, 5), alpha=0.0, g=g,
                            u=0.0, x=10, h_weights={1: delta})


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
        ex.check_bilinear_size(range(8), range(8), 30, {1: 1.0})
        with pytest.raises(ex.ResourceGuardError):
            ex.vdc_bound_check(1.0, g, 0.0, 65)
        with pytest.raises(ex.ResourceGuardError):
            ex.b_process_compare(1.0, g, 65)
        with pytest.raises(ex.ResourceGuardError):
            ex.vaaler_coeffs(9)
        with pytest.raises(ex.ResourceGuardError):
            # rejected before the (misaligned) coefficients are read
            ex.bilinear_sum(
                "TypeII", [], [], range(8), range(9),
                alpha=0.0, g=g, u=0.0, x=30, h_weights={1: 1.0},
            )

    def test_bilinear_rows_limit(self, monkeypatch):
        # rows are the m whose m*n can reach (x, 2x], once per nonzero delta_h
        monkeypatch.setattr(ex, "_MAX_BILINEAR_ROWS", 8)
        g = GammaExponent.from_c(1.1)
        m_range, n_range = range(1, 101), range(10, 21)  # x = 500: m in (25, 100]
        ex.check_bilinear_size(range(1, 9), range(1, 2), 4, {1: 1.0, 2: 0.0, 3: 1.0})
        ex.check_bilinear_size(m_range, n_range, 40, {1: 1.0})  # m in (2, 8]
        for x, h_weights in ((500, {1: 1.0}), (40, {1: 1.0, 2: 1.0, 3: -1.0})):
            with pytest.raises(ex.ResourceGuardError, match="rows"):
                # rejected before the (misaligned) coefficients are read
                ex.bilinear_sum(
                    "TypeI", [], [], m_range, n_range,
                    alpha=0.0, g=g, u=0.0, x=x, h_weights=h_weights,
                )

    def test_bilinear_row_count_matches_the_loop(self):
        # the rows counted are the rows the loop visits: the others add nothing
        g = GammaExponent.from_c(1.3)
        m_range, n_range = range(3, 60), range(7, 19)
        a, b = np.linspace(-1, 1, len(m_range)), np.cos(np.arange(len(n_range)))
        kw = dict(alpha=0.3, g=g, u=0.5, h_weights={2: 0.5})
        for x in (10, 100, 500, 2000):
            rows = ex._bilinear_rows(m_range, n_range, x)
            visited = [i for i in range(len(m_range))
                       if any(x < m_range[i] * n <= 2 * x for n in n_range)]
            assert set(visited) <= set(rows)
            got = ex.bilinear_sum("TypeII", a, b, m_range, n_range, x=x, **kw)
            a_rows = np.where(np.isin(np.arange(len(m_range)), visited), a, 0.0)
            assert got == ex.bilinear_sum("TypeII", a_rows, b, m_range, n_range, x=x, **kw)

    def test_oversized_bilinear_rows_rejected_at_once(self):
        big = range(2 ** 24 + 1, 2 ** 25 + 1)
        with pytest.raises(ex.ResourceGuardError, match="rows = 16777216"):
            ex.check_bilinear_size(big, range(2, 3), 2 ** 25, {1: 1.0})
        ex.check_bilinear_size(big, range(2, 3), 2 ** 24, {1: 1.0})  # no m reaches (x, 2x]


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

    def test_scan_rows_are_pointwise_discrepancies(self):
        res = ex.alpha_scan(2 ** 12, 1.1, 16)
        for alpha, d in res.rows:
            assert d == ex.bf_discrepancy(2 ** 12, 1.1, alpha)


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
        member = pq._ps_member_at(ps, g)
        w = c * pf ** (1.0 - g.gamma) * np.log(pf) * member - np.log(pf)
        assert ps.size > nc._FSUM_CHUNK
        for alpha in (0.0, 0.3, math.sqrt(2) - 1):
            want = self.abs_sum(w, alpha * pf)
            assert ex.bf_discrepancy(nmax, c, alpha) == want
        rows = ex.alpha_scan(nmax, c, 4).rows
        assert rows == [(a, self.abs_sum(w, a * pf)) for a, _ in rows]

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
        mr, nr, x, u, alpha = range(1, 4), range(1, 60001), 30000, 0.5, 0.25
        a = np.array([1.0, -0.5, 0.75])
        b = np.log(np.arange(1, 60001, dtype=np.float64)) / math.log(120000)
        weights = {2: 1.0, 3: -0.5}
        ns = np.arange(1, 60001, dtype=np.int64)
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
            "TypeII", a, b, mr, nr, alpha=alpha, g=g, u=u, x=x, h_weights=weights
        )
        assert got == want
