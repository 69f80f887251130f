"""Acceptance suite: every exit criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one status line per
criterion. Tolerances are fixed here, not tuned at runtime; regression pins
come from the first oracle run of this artifact.
"""

import cmath
import math
from fractions import Fraction as F

import numpy as np

from psprimes import exppairs as ep
from psprimes import expsums as ex
from psprimes import pspseq as pq
from psprimes import sieve as sv
from psprimes.numeric import GammaExponent, _pow_parts_array


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {tag}: {detail}"


def test_criterion_01_exponent_pair_golden_values():
    thr_b = ep.gamma_threshold(ep.BOURGAIN_PAIR)
    thr_v = ep.gamma_threshold(ep.ExponentPair(F(1, 2), F(1, 2)))
    rejected = False
    try:
        ep.gamma_threshold(ep.TRIVIAL_PAIR)
    except ep.InfeasibleError:
        rejected = True
    ok = thr_b == F(498, 569) and thr_v == F(8, 9) and 1 / thr_v == F(9, 8) and rejected
    _report(
        "1",
        ok,
        f"thresholds {thr_b}, {thr_v} (c < {1 / thr_v}); trivial pair rejected: {rejected}",
    )


def test_criterion_02_delta_zero_reduction():
    pairs = [
        p
        for p in ep.enumerate_pairs([ep.TRIVIAL_PAIR, ep.BOURGAIN_PAIR], 12)
        if 4 * p.k - 2 * p.l + 1 > 0
    ][:200]
    assert len(pairs) == 200
    gammas = [F(13, 15) + F(i, 51) * F(2, 15) for i in range(1, 51)]
    mismatches = 0
    for p in pairs:
        thr = ep.gamma_threshold(p)
        for g in gammas:
            if ep.delta_feasible(p, g, F(0)) != (g > thr):
                mismatches += 1
    # the scaling inequality alone pins the floor at exactly 13/15
    low_ratio_pair = ep.ExponentPair(F(1, 8), F(5, 9))
    floor_exact = (
        ep.gamma_threshold(low_ratio_pair) == F(13, 15)
        and not ep.delta_feasible(low_ratio_pair, F(13, 15), F(0))
        and ep.delta_feasible(low_ratio_pair, F(13, 15) + F(1, 10 ** 12), F(0))
    )
    ok = mismatches == 0 and floor_exact
    _report(
        "2",
        ok,
        f"{len(pairs)} pairs x {len(gammas)} gammas, {mismatches} mismatches; "
        f"13/15 floor exact: {floor_exact}",
    )


def test_criterion_03_heath_brown_identity():
    lam = sv.lambda_array(2 * 10 ** 4)
    total_mismatch = 0
    for J in (2, 3):
        params = ex.HbParams(J=J, x=10 ** 4, Z=ex.min_valid_cutoff(10 ** 4, J))
        got = ex.hb_terms(params)[10 ** 4 + 1 : 2 * 10 ** 4 + 1]
        want = lam[10 ** 4 + 1 : 2 * 10 ** 4 + 1]
        total_mismatch += int(np.count_nonzero(np.abs(got - want) > 1e-9))
    _report("3", total_mismatch == 0, f"mismatches: {total_mismatch} on (10^4, 2*10^4], J in {{2,3}}")


def test_criterion_04_membership_oracle_equivalence():
    limit = 10 ** 6
    cs = (1.05, 1.1, 569 / 498 - 1e-6, 1.5)
    bad = 0
    for c in cs:
        g = GammaExponent.from_c(c)
        member = pq._ps_member_at(np.arange(1, limit + 1, dtype=np.int64), g)
        # independent generation oracle: mark floor(n^c) directly
        n_max = int(math.ceil((limit + 1) ** g.gamma)) + 2
        vals = _pow_parts_array(np.arange(1, n_max + 1, dtype=np.int64), c)[0]
        brute = np.zeros(limit + 1, dtype=bool)
        brute[vals[(vals >= 1) & (vals <= limit)]] = True
        bad += int(np.count_nonzero(member != brute[1:]))
    _report("4", bad == 0, f"membership vs generation: {bad} disagreements, m <= 10^6, 4 exponents")


def test_criterion_05_expansion_residual_bound():
    worst = 0.0
    for c in (1.05, 1.1):
        g = GammaExponent.from_c(c)
        ms = np.arange(10 ** 3, 10 ** 6 + 1, dtype=np.int64)
        res = pq.ps_expansion_residual_array(ms, g)
        bound = 10.0 * ms.astype(np.float64) ** (g.gamma - 2.0)
        worst = max(worst, float(np.max(np.abs(res) / bound)))
    _report("5", worst <= 1.0, f"max |residual| / (10 m^(gamma-2)) = {worst:.4f} over m in [10^3, 10^6]")


def test_criterion_06_progression_main_term_identity():
    worst = 0.0
    for (q, a) in ((3, 1), (4, 3), (7, 2)):
        for c in (1.05, 1.1):
            lhs = pq.ap_main_term(10 ** 6, c, q, a)
            rhs = pq.refined_main_term(10 ** 6, c, q, a)
            worst = max(worst, abs(lhs - rhs) / rhs)
    _report("6", worst <= 1e-9, f"max relative defect of the summation identity = {worst:.2e}")


def test_criterion_07a_prime_count_ratio():
    rep = pq.ps_prime_count(10 ** 6, 1.05)
    ok = 0.97 <= rep.ratio <= 1.03 and rep.count == 40489  # count pinned, first run
    _report("7a", ok, f"count {rep.count}, ratio {rep.ratio:.5f} in [0.97, 1.03]")


def test_criterion_07b_beatty_count_ratio():
    B = pq.BeattyParams.from_label("sqrt2", 0.3)
    rep = pq.ps_beatty_prime_count(10 ** 6, 1.1, B)
    ok = 0.85 <= rep.ratio <= 1.15 and rep.count == 16011  # count pinned, first run
    _report("7b", ok, f"count {rep.count}, ratio {rep.ratio:.5f} in [0.85, 1.15]")


# exact ordered-triple counts from the first oracle run (regression pins)
_GOLDBACH_PINS = {
    100001: 8367948, 100003: 8418930, 100005: 5184405, 100007: 8434209,
    100009: 8056548, 100011: 5595540, 100013: 8458017, 100015: 7755039,
    100017: 5601546, 100019: 8435352, 100021: 8400852, 100023: 5395926,
    100025: 7819629, 100027: 8336919, 100029: 5617930, 100031: 8461737,
    100033: 8457408, 100035: 5142975, 100037: 8139858, 100039: 8388324,
}


def test_criterion_07c_goldbach_ratio_window():
    ratios = []
    pin_ok = True
    for N, pinned in _GOLDBACH_PINS.items():
        r = pq.goldbach3_count(N, 1.01, 1.01, 1.01)
        pin_ok = pin_ok and r.exact == pinned
        ratios.append(r.exact / r.predicted)
    mean = sum(ratios) / len(ratios)
    ok = pin_ok and 0.5 <= mean <= 1.5
    _report(
        "7c",
        ok,
        f"mean exact/predicted = {mean:.4f} over 20 odd N near 10^5 "
        f"(window [0.5, 1.5]); regression pins hold: {pin_ok}",
    )


def test_criterion_08_singular_series():
    evens_ok = all(
        pq.singular_series(N, 10 ** 5).value == 0.0
        for N in range(10 ** 4, 10 ** 4 + 40, 2)
    )
    tail_ok = True
    worst = 0.0
    for N in (9, 105, 10 ** 5 + 3):
        a = pq.singular_series(N, 10 ** 5)
        b = pq.singular_series(N, 2 * 10 ** 5)
        diff = abs(a.value - b.value)
        worst = max(worst, diff)
        tail_ok = tail_ok and diff <= 2.0 / 10 ** 5
    _report(
        "8",
        evens_ok and tail_ok,
        f"20 even N vanish exactly: {evens_ok}; max |value(P)-value(2P)| = {worst:.2e} <= 2e-5",
    )


def test_criterion_09_sawtooth_inequality():
    worst = -1.0
    ts = np.arange(100_000) / 100_000.0
    saw = (ts - np.floor(ts)) - 0.5
    for H in (10, 100, 1000):
        va = ex.vaaler_coeffs(H)
        slack = np.abs(saw - va.psi_poly(ts)) - va.majorant(ts)
        worst = max(worst, float(slack.max()))
    _report("9", worst <= 1e-10, f"max pointwise excess over majorant = {worst:.2e} on 10^5 grid")


def test_criterion_10_stationary_phase_and_second_derivative():
    g11 = GammaExponent.from_c(1.1)
    worst_bp = 0.0
    for h in (4.0, 16.0, 64.0):
        for k in (12, 14):
            r = ex.b_process_compare(h, g11, 2 ** k)
            worst_bp = max(worst_bp, r.error / r.bound)
    worst_vdc = 0.0
    for c in (1.05, 1.1):
        g = GammaExponent.from_c(c)
        for h in range(1, 65):
            for k in range(10, 17):
                r = ex.vdc_bound_check(float(h), g, 0.0, 2 ** k)
                worst_vdc = max(worst_vdc, r.empirical_c)
    ok = worst_bp <= 10.0 and worst_vdc <= 10.0
    _report(
        "10",
        ok,
        f"stationary-phase worst error/bound = {worst_bp:.3f}; "
        f"second-derivative worst C = {worst_vdc:.3f} (both <= 10)",
    )


def test_criterion_11_central_sum_trend():
    g = GammaExponent.from_c(1.1)
    ratios = []
    for k in (14, 16, 18, 20):
        x = 2 ** k
        H = math.ceil(x ** (1 - g.gamma))
        spec = ex.ExpSumSpec(alpha=math.sqrt(2), g=g, u=0.0, x=x, H=H)
        ratios.append(ex.theorem_sum(spec) / x)
    trend_ok = all(ratios[i + 1] <= 1.10 * ratios[i] for i in range(len(ratios) - 1))

    x = 2 ** 14
    H = math.ceil(x ** (1 - g.gamma))
    spec = ex.ExpSumSpec(alpha=math.sqrt(2), g=g, u=0.0, x=x, H=H)
    fast = ex.theorem_sum(spec)
    lam = sv.lambda_array(2 * x)
    slow = 0.0
    for h in range(H + 1, 2 * H + 1):
        s = 0j
        for n in range(x + 1, 2 * x + 1):
            if lam[n] > 0:
                s += lam[n] * cmath.exp(
                    2j * math.pi * (math.sqrt(2) * n + h * (n + 0.0) ** g.gamma)
                )
        slow += abs(s)
    oracle_ok = abs(fast - slow) <= 1e-6 * slow
    _report(
        "11",
        trend_ok and oracle_ok,
        f"value/x over 2^14..2^20 = {[round(r, 5) for r in ratios]} (10% monotone: {trend_ok}); "
        f"naive-oracle relative gap at 2^14 = {abs(fast - slow) / slow:.2e}",
    )


def test_criterion_12_discrepancy_trend_and_scan():
    trend = []
    for k in (16, 18, 20):
        trend.append(ex.bf_discrepancy(2 ** k, 1.1, 0.0) / 2 ** k)
    trend_ok = all(trend[i + 1] <= 1.20 * trend[i] for i in range(len(trend) - 1))
    scan = ex.alpha_scan(2 ** 18, 1.1, 200)
    scan_ok = scan.max_discrepancy / 2 ** 18 <= 0.1
    _report(
        "12",
        trend_ok and scan_ok,
        f"discrepancy/N over 2^16..2^20 = {[round(t, 5) for t in trend]} (20% monotone: {trend_ok}); "
        f"scan max/N = {scan.max_discrepancy / 2 ** 18:.4f} <= 0.1",
    )
