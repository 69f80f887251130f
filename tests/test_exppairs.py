from fractions import Fraction as F

import pytest

from psprimes import exppairs as ep


class TestProcesses:
    def test_a_process_fixed_point(self):
        q = ep.a_process(ep.TRIVIAL_PAIR)
        assert (q.k, q.l) == (F(0), F(1))
        assert q.word == "A(trivial)"

    def test_a_process_exact_values(self):
        p = ep.ExponentPair(F(1, 2), F(1, 2), "(vdc)")
        q = ep.a_process(p)
        assert (q.k, q.l) == (F(1, 6), F(2, 3))
        r = ep.a_process(q)
        assert (r.k, r.l) == (F(1, 14), F(11, 14))

    def test_b_process_classical(self):
        q = ep.b_process(ep.TRIVIAL_PAIR)
        assert (q.k, q.l) == (F(1, 2), F(1, 2))
        back = ep.b_process(q)
        assert (back.k, back.l) == (F(0), F(1))

    def test_b_process_fixes_bourgain(self):
        q = ep.b_process(ep.BOURGAIN_PAIR)
        assert (q.k, q.l) == (ep.BOURGAIN_PAIR.k, ep.BOURGAIN_PAIR.l)

    def test_domain_preserved_to_depth_8(self):
        for p in ep.enumerate_pairs([ep.TRIVIAL_PAIR, ep.BOURGAIN_PAIR], 8):
            assert 0 <= p.k <= F(1, 2) <= p.l <= 1

    def test_validity_rejection(self):
        with pytest.raises(ValueError):
            ep.ExponentPair(F(3, 4), F(1, 2))
        with pytest.raises(ValueError):
            ep.ExponentPair(F(1, 4), F(5, 4))


# The functions that need 4k - 2l + 1 > 0, each called at a feasible gamma
GUARDED = (
    ep.gamma_threshold,
    lambda p: ep.type1_constraints(p, F(9, 10)),
    lambda p: ep.delta_feasible(p, F(9, 10), F(0)),
)


class TestGammaThreshold:
    def test_golden_values(self):
        assert ep.gamma_threshold(ep.BOURGAIN_PAIR) == F(498, 569)
        assert ep.gamma_threshold(ep.ExponentPair(F(1, 2), F(1, 2))) == F(8, 9)
        assert 1 / ep.gamma_threshold(ep.ExponentPair(F(1, 2), F(1, 2))) == F(9, 8)
        assert ep.gamma_threshold(ep.ExponentPair(F(1, 6), F(2, 3))) == F(36, 41)

    def test_trivial_pair_rejected(self):
        with pytest.raises(ep.InfeasibleError):
            ep.gamma_threshold(ep.TRIVIAL_PAIR)

    def test_floor_thirteen_fifteenths(self):
        # a pair whose ratio bound drops below 13/15, so the floor binds
        p = ep.ExponentPair(F(1, 8), F(5, 9))
        assert (12 * p.k + 10) / (12 * p.k - 2 * p.l + 13) < F(13, 15)
        assert ep.gamma_threshold(p) == F(13, 15)


class TestType1:
    def test_vdc_pair_at_nine_tenths(self):
        r = ep.type1_constraints(ep.ExponentPair(F(1, 2), F(1, 2)), F(9, 10))
        assert r.feasible
        assert r.gamma_lower == F(5, 6)

    def test_bourgain_at_threshold_gamma(self):
        r = ep.type1_constraints(ep.BOURGAIN_PAIR, F(498, 569))
        assert r.feasible
        assert r.gamma_lower == F(131, 152)
        assert F(131, 152) < F(498, 569)

    def test_infeasible_below_bound(self):
        r = ep.type1_constraints(ep.BOURGAIN_PAIR, F(131, 152))
        assert not r.feasible

    def test_division_guard(self):
        # 4k - 2l + 1 = 0 at (1/8, 3/4)
        for call in GUARDED:
            with pytest.raises(ep.InfeasibleError):
                call(ep.ExponentPair(F(1, 8), F(3, 4)))

    def test_delta_zero_matches_generalised_form(self):
        p = ep.ExponentPair(F(1, 2), F(1, 2))
        assert ep.type1_constraints(p, F(9, 10)).gamma_lower == (
            5 * p.k - p.l + 3
        ) / (6 * p.k - 2 * p.l + 4)


class TestType2:
    def test_window_nine_tenths(self):
        r = ep.type2_range(F(9, 10))
        assert r.feasible
        assert r.n_lower_exponents[0].value == F(1, 10)
        assert r.n_upper_exponent.value == F(1, 2)
        assert str(r.n_lower_exponents[0]) == "1/10+eps"
        assert str(r.n_upper_exponent) == "1/2-eps"

    def test_boundary_empty(self):
        assert not ep.type2_range(F(5, 6)).feasible

    def test_bourgain_gamma_window(self):
        r = ep.type2_range(F(498, 569))
        assert r.n_lower_exponents[0].value == F(71, 569)
        assert r.n_upper_exponent.value == F(214, 569)

    def test_delta_shifts(self):
        r = ep.type2_range(F(19, 20), F(1, 100))
        assert r.n_lower_exponents[0].value == F(1, 20) + F(2, 100)
        assert r.n_upper_exponent.value == 5 * F(19, 20) - 4 - F(6, 100)


@pytest.mark.parametrize("gamma", [F(-1), F(0), F(1), F(2), F(-1, 2)])
@pytest.mark.parametrize(
    "call",
    [lambda g: ep.type1_constraints(ep.ExponentPair(F(1, 2), F(1, 2)), g),
     lambda g: ep.type2_range(g),
     lambda g: ep.max_delta(ep.ExponentPair(F(1, 2), F(1, 2)), g)],
    ids=["type1", "type2", "max_delta"],
)
def test_gamma_outside_unit_interval_is_rejected(call, gamma):
    # checked before delta, so gamma = 2 no longer blames delta
    with pytest.raises(ValueError, match="gamma must lie in \\(0, 1\\)") as info:
        call(gamma)
    assert not isinstance(info.value, ep.InfeasibleError)


class TestDeltaFeasible:
    def test_examples(self):
        p = ep.ExponentPair(F(1, 2), F(1, 2))
        assert ep.delta_feasible(p, F(19, 20), F(1, 100)) is True
        # violates delta <= 1 - gamma = 1/20
        assert ep.delta_feasible(p, F(19, 20), F(1, 10)) is False

    def test_guard(self):
        # 4k - 2l + 1 = -1 at the trivial pair
        for call in GUARDED:
            with pytest.raises(ep.InfeasibleError):
                call(ep.TRIVIAL_PAIR)

    def test_reduction_to_threshold_on_grid(self):
        # delta=0 feasibility must coincide exactly with the threshold predicate
        pairs = [
            q
            for q in ep.enumerate_pairs([ep.TRIVIAL_PAIR, ep.BOURGAIN_PAIR], 9)
            if 4 * q.k - 2 * q.l + 1 > 0
        ]
        gammas = [F(13, 15) + F(i, 51) * F(2, 15) for i in range(1, 51)]
        for q in pairs[:100]:
            thr = ep.gamma_threshold(q)
            for g in gammas:
                assert ep.delta_feasible(q, g, F(0)) == (g > thr)

    def test_second_inequality_floor_is_exact(self):
        # with the ratio bound out of the way, the floor is exactly 13/15
        p = ep.ExponentPair(F(1, 8), F(5, 9))
        assert ep.delta_feasible(p, F(13, 15), F(0)) is False
        assert ep.delta_feasible(p, F(13, 15) + F(1, 10 ** 9), F(0)) is True


class TestMaxDelta:
    def test_exact_value(self):
        p = ep.ExponentPair(F(1, 2), F(1, 2))
        assert ep.max_delta(p, F(19, 20)) == F(11, 240)

    def test_strictness_at_supremum(self):
        p = ep.ExponentPair(F(1, 2), F(1, 2))
        d = ep.max_delta(p, F(19, 20))
        assert ep.delta_feasible(p, F(19, 20), d - F(1, 10 ** 9)) is True
        assert ep.delta_feasible(p, F(19, 20), d) is False

    def test_tends_to_zero_near_one(self):
        p = ep.ExponentPair(F(1, 2), F(1, 2))
        vals = [ep.max_delta(p, 1 - F(1, n)) for n in (100, 1000, 10000)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] <= F(1, 10000)

    def test_infeasible_raises(self):
        with pytest.raises(ep.InfeasibleError):
            ep.max_delta(ep.ExponentPair(F(1, 2), F(1, 2)), F(13, 15))


class TestSearch:
    def test_depth_one_from_trivial(self):
        res = ep.search_pairs([ep.TRIVIAL_PAIR], 1, "gamma_threshold")
        assert (res.best.k, res.best.l) == (F(1, 2), F(1, 2))
        assert res.best.word == "B(trivial)"
        assert res.value == F(8, 9)

    def test_bourgain_seed_dominates(self):
        res = ep.search_pairs(
            [ep.TRIVIAL_PAIR, ep.BOURGAIN_PAIR], 6, "gamma_threshold"
        )
        assert res.value <= F(498, 569)

    def test_depth_zero_trivial_infeasible(self):
        with pytest.raises(ep.InfeasibleError):
            ep.search_pairs([ep.TRIVIAL_PAIR], 0, "gamma_threshold")

    def test_max_delta_objective(self):
        res = ep.search_pairs(
            [ep.TRIVIAL_PAIR], 4, "max_delta", gamma=F(19, 20)
        )
        assert res.value >= F(11, 240)
        with pytest.raises(ValueError):
            ep.search_pairs([ep.TRIVIAL_PAIR], 2, "max_delta")

    @pytest.mark.parametrize(
        "objective, gamma",
        [("gamma_threshold", None), ("type1_gamma_bound", None), ("max_delta", F(19, 20))],
    )
    def test_best_is_least_of_trace(self, objective, gamma):
        # documented order: value first (largest for max_delta, else least),
        # then the shorter word, then the lexicographically smaller word
        res = ep.search_pairs(
            [ep.TRIVIAL_PAIR, ep.BOURGAIN_PAIR], 8, objective, gamma=gamma
        )
        sign = -1 if objective == "max_delta" else 1
        ranked = sorted(res.trace, key=lambda t: (sign * t[3], len(t[0]), t[0]))
        assert (res.best.word, res.value) == (ranked[0][0], ranked[0][3])
        tied = [t[0] for t in res.trace if t[3] == res.value]
        assert res.best.word == min(tied, key=lambda w: (len(w), w))
        if objective == "max_delta":
            assert len(tied) > 1  # the word order decides

    def test_type1_gamma_bound_is_the_closed_form(self):
        seeds = list(ep.SEED_PAIRS.values())
        res = ep.search_pairs(seeds, 10, "type1_gamma_bound")
        want = {
            p.word: (5 * p.k - p.l + 3) / (6 * p.k - 2 * p.l + 4)
            for p in ep.enumerate_pairs(seeds, 10)
            if 4 * p.k - 2 * p.l + 1 > 0
        }
        assert len(res.trace) == len(want) > 100
        for word, _, _, value in res.trace:
            assert value == want[word]

    def test_trace_is_deterministic(self):
        a = ep.search_pairs([ep.TRIVIAL_PAIR], 5, "gamma_threshold")
        b = ep.search_pairs([ep.TRIVIAL_PAIR], 5, "gamma_threshold")
        assert a.trace == b.trace

    @pytest.mark.parametrize(
        "length", [ep.MAX_WORD_LEN + 1, 10 ** 400], ids=["21", "400-digits"]
    )
    def test_word_length_cap(self, length):
        assert ep.MAX_WORD_LEN == 20
        with pytest.raises(ValueError, match="max_word_len"):
            ep.enumerate_pairs([ep.TRIVIAL_PAIR], length)
        with pytest.raises(ValueError, match="max_word_len"):
            ep.search_pairs([ep.TRIVIAL_PAIR], length, "gamma_threshold")

    def test_negative_word_length_rejected(self):
        # it returned the bare seeds as a search result
        with pytest.raises(ValueError, match="max_word_len must be >= 0, got -1"):
            ep.enumerate_pairs([ep.TRIVIAL_PAIR], -1)
        with pytest.raises(ValueError, match="max_word_len must be >= 0, got -1"):
            ep.search_pairs([ep.TRIVIAL_PAIR], -1, "gamma_threshold")

    def test_dedup_keeps_shortest_word(self):
        pairs = ep.enumerate_pairs([ep.TRIVIAL_PAIR], 4)
        by_key = {}
        for p in pairs:
            by_key.setdefault(p.key(), p)
        # (0,1) reachable as A(0,1), AA(0,1), ... must keep the bare seed
        assert by_key[(F(0), F(1))].word == "(trivial)"


class TestSerialisation:
    def test_rational_roundtrip(self):
        assert ep.format_rational(F(498, 569)) == "498/569"
        assert ep.format_rational(F(3)) == "3"
        assert ep.parse_rational("13/84") == F(13, 84)
        assert ep.parse_rational("7") == F(7)

    def test_eps_exponent_strings(self):
        assert str(ep.EpsExponent(F(1, 10), +1)) == "1/10+eps"
        assert str(ep.EpsExponent(F(1, 2), -1)) == "1/2-eps"
        assert str(ep.EpsExponent(F(1, 2), 0)) == "1/2"
