"""Exact-rational exponent-pair calculus.

Exponent pairs (k, l) quantify bounds |sum e(f(n))| << F^k N^l for
one-variable exponential sums. The A-process (Weyl differencing) and
B-process (Poisson summation / stationary phase) transform pairs, and
every admissibility region used by the counting theorems reduces to
strict inequalities in (k, l, gamma, delta) that this module evaluates
in exact rational arithmetic. No floating point enters anywhere here.

All thresholds are open ("up to epsilon"): range endpoints carry a
symbolic epsilon flag instead of a numeric fudge term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

F = Fraction  # local shorthand for literals


class InfeasibleError(ValueError):
    """A constraint region is empty or a structural guard fails."""


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or integer literals into an exact rational."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rational(x: Fraction) -> str:
    """Serialise as 'p/q', or plain 'p' for integers."""
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


@dataclass(frozen=True)
class ExponentPair:
    """A rational exponent pair with its A/B derivation word and seed name."""

    k: Fraction
    l: Fraction
    word: str = ""

    def __post_init__(self) -> None:
        if not (0 <= self.k <= F(1, 2) <= self.l <= 1):
            raise ValueError(
                f"({self.k}, {self.l}) violates the validity domain 0<=k<=1/2<=l<=1"
            )

    def key(self) -> tuple[Fraction, Fraction]:
        return (self.k, self.l)


TRIVIAL_PAIR = ExponentPair(F(0), F(1), "(trivial)")
BOURGAIN_PAIR = ExponentPair(F(13, 84), F(55, 84), "(bourgain)")
SEED_PAIRS = {"trivial": TRIVIAL_PAIR, "bourgain": BOURGAIN_PAIR}


def a_process(p: ExponentPair) -> ExponentPair:
    """Weyl-van der Corput differencing: (k,l) -> (k/(2k+2), (k+l+1)/(2k+2))."""
    d = 2 * p.k + 2
    return ExponentPair(p.k / d, (p.k + p.l + 1) / d, "A" + p.word)


def b_process(p: ExponentPair) -> ExponentPair:
    """Poisson-summation swap: (k,l) -> (l-1/2, k+1/2)."""
    k2, l2 = p.l - F(1, 2), p.k + F(1, 2)
    try:
        return ExponentPair(k2, l2, "B" + p.word)
    except ValueError as exc:
        raise ValueError(f"B-process left the validity domain from ({p.k}, {p.l}): {exc}")


def _guard(p: ExponentPair) -> Fraction:
    """4k - 2l + 1; InfeasibleError unless positive, as every region below needs."""
    guard = 4 * p.k - 2 * p.l + 1
    if guard <= 0:
        raise InfeasibleError(f"pair ({p.k}, {p.l}) rejected: 4k-2l+1 = {guard} is not positive")
    return guard


def gamma_threshold(p: ExponentPair) -> Fraction:
    """Feasibility floor for gamma: admissible c are exactly 1 < c < 1/threshold.

    Requires 4k - 2l + 1 > 0; the threshold is max(13/15, (12k+10)/(12k-2l+13)).
    """
    _guard(p)
    return max(F(13, 15), (12 * p.k + 10) / (12 * p.k - 2 * p.l + 13))


@dataclass(frozen=True)
class EpsExponent:
    """A rational exponent endpoint, open by a symbolic +eps or -eps."""

    value: Fraction
    eps: int = 0  # +1: endpoint is value+eps, -1: value-eps, 0: exact

    def __str__(self) -> str:
        tag = {1: "+eps", -1: "-eps", 0: ""}[self.eps]
        return format_rational(self.value) + tag


@dataclass
class ConstraintReport:
    feasible: bool
    gamma_lower: Fraction | None
    n_lower_exponents: list[EpsExponent] = field(default_factory=list)
    n_upper_exponent: EpsExponent | None = None


def _type1_gamma_floor(p: ExponentPair, delta: Fraction) -> Fraction:
    """Type I gamma floor; (5k-l+3)/(6k-2l+4) at delta = 0."""
    den = 12 * p.k - 4 * p.l + 8
    return 1 - ((2 * p.k - 2 * p.l + 2) - (14 * p.k - 4 * p.l + 9) * delta) / den


def _unit_gamma(gamma: Fraction) -> Fraction:
    """gamma as a Fraction; ValueError unless 0 < gamma < 1."""
    gamma = Fraction(gamma)
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must lie in (0, 1), got {format_rational(gamma)}")
    return gamma


def type1_constraints(
    p: ExponentPair, gamma: Fraction, delta: Fraction = F(0)
) -> ConstraintReport:
    """Admissible (gamma, N)-region for the smooth-coefficient bilinear sums.

    At delta = 0 the gamma floor is (5k-l+3)/(6k-2l+4) and the N lower bound is
    min( (1-gamma)+1/2 , max( ((4k+6)(1-gamma)+(2k-1))/(4k-2l+1) , 2(1-gamma) ) );
    positive delta shifts every exponent by its documented delta term.
    """
    gamma, delta = _unit_gamma(gamma), Fraction(delta)
    if not 0 <= delta <= 1 - gamma:
        raise ValueError(f"delta must lie in [0, 1-gamma], got {delta}")
    guard = _guard(p)
    gamma_lower = _type1_gamma_floor(p, delta)
    one_minus = 1 - gamma
    simple = one_minus + F(1, 2) + F(3, 2) * delta
    pair_route = (
        (4 * p.k + 6) * one_minus + (2 * p.k - 1) + (6 * p.k + 7) * delta
    ) / guard
    shift_route = 2 * one_minus + 3 * delta
    n_lower = min(simple, max(pair_route, shift_route))
    return ConstraintReport(
        feasible=gamma_lower < gamma < 1,
        gamma_lower=gamma_lower,
        n_lower_exponents=[EpsExponent(n_lower, +1)],
    )


def type2_range(gamma: Fraction, delta: Fraction = F(0)) -> ConstraintReport:
    """Admissible N-window for the rough-coefficient bilinear sums.

    Requires 6(1-gamma) + 8*delta < 1 (at delta=0: gamma > 5/6); the window is
    [1-gamma+2*delta (+eps), 5*gamma-4-6*delta (-eps)], empty when the
    endpoints meet.
    """
    gamma, delta = _unit_gamma(gamma), Fraction(delta)
    if not 0 <= delta <= 1 - gamma:
        raise ValueError(f"delta must lie in [0, 1-gamma], got {delta}")
    lo = 1 - gamma + 2 * delta
    hi = 5 * gamma - 4 - 6 * delta
    feasible = 6 * (1 - gamma) + 8 * delta < 1  # equivalent to lo < hi
    assert feasible == (lo < hi)
    return ConstraintReport(
        feasible=feasible,
        gamma_lower=F(5, 6) if delta == 0 else None,
        n_lower_exponents=[EpsExponent(lo, +1)],
        n_upper_exponent=EpsExponent(hi, -1),
    )


def delta_feasible(p: ExponentPair, gamma: Fraction, delta: Fraction) -> bool:
    """Whether (gamma, delta) satisfies both scaled-sum inequalities, exactly.

    Outside the domain 0 <= delta <= 1-gamma the answer is False (not an
    error); a pair failing the structural guard 4k-2l+1 > 0 is rejected.
    """
    gamma, delta = Fraction(gamma), Fraction(delta)
    _guard(p)
    if not 0 <= delta <= 1 - gamma or not gamma < 1:
        return False
    den = 3 - 2 * p.l
    assert den > 0, "validity domain guarantees l <= 1 < 3/2"
    first = (12 * p.k - 2 * p.l + 13) / den * (1 - gamma) + (
        20 * p.k - 4 * p.l + 16
    ) / den * delta < 1
    second = F(15, 2) * (1 - gamma) + 9 * delta < 1
    return first and second


def max_delta(p: ExponentPair, gamma: Fraction) -> Fraction:
    """Supremum of feasible delta at this gamma; feasible deltas are [0, result).

    When the domain cap 1-gamma is the minimiser the supremum itself remains
    feasible (the inequalities are strict but the domain is closed); the
    half-open description is exact whenever one of the two inequalities binds.
    """
    gamma = _unit_gamma(gamma)
    if not delta_feasible(p, gamma, F(0)):
        raise InfeasibleError(
            f"delta=0 infeasible for ({p.k}, {p.l}) at gamma={gamma}"
        )
    from_first = ((3 - 2 * p.l) - (12 * p.k - 2 * p.l + 13) * (1 - gamma)) / (
        20 * p.k - 4 * p.l + 16
    )
    from_second = (1 - F(15, 2) * (1 - gamma)) / 9
    return min(from_first, from_second, 1 - gamma)


# Longest A/B word enumerate_pairs accepts. The breadth-first search is
# exponential in the word length: from the standard seeds, length 12 took
# 0.39 s, 16 took 0.66 s, 20 took 3.05 s (20,914 pairs) and 24 took 20.5 s
# (x86-64, Python 3.11).
MAX_WORD_LEN = 20


def enumerate_pairs(seeds: list[ExponentPair], max_word_len: int) -> list[ExponentPair]:
    """All distinct pairs reachable by A/B words of length <= max_word_len.

    Breadth-first, so the first derivation of a (k, l) value has the shortest
    word; collisions keep that first word. Order is deterministic. Raises
    ValueError if max_word_len is negative or exceeds MAX_WORD_LEN.
    """
    if max_word_len < 0:
        raise ValueError(f"max_word_len must be >= 0, got {max_word_len}")
    if max_word_len > MAX_WORD_LEN:
        raise ValueError(f"max_word_len must be <= {MAX_WORD_LEN}, got {max_word_len}")
    seen: dict[tuple[Fraction, Fraction], ExponentPair] = {}
    level = []
    for s in seeds:
        if s.key() not in seen:
            seen[s.key()] = s
            level.append(s)
    for _ in range(max_word_len):
        nxt = []
        for p in level:
            for q in (a_process(p), b_process(p)):
                if q.key() not in seen:
                    seen[q.key()] = q
                    nxt.append(q)
        level = nxt
    return list(seen.values())


OBJECTIVES = ("gamma_threshold", "type1_gamma_bound", "max_delta")


@dataclass
class SearchResult:
    best: ExponentPair
    value: Fraction
    trace: list[tuple[str, Fraction, Fraction, Fraction]]


def search_pairs(
    seeds: list[ExponentPair],
    max_word_len: int,
    objective: str,
    gamma: Fraction | None = None,
) -> SearchResult:
    """Optimise an objective over all A/B words up to max_word_len from the seeds.

    gamma_threshold and type1_gamma_bound are minimised; max_delta (which
    requires gamma) is maximised. Infeasible pairs are skipped; ties break by
    shortest word then lexicographic word, so the result is deterministic.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    if objective == "max_delta" and gamma is None:
        raise ValueError("objective max_delta requires gamma")
    trace: list[tuple[str, Fraction, Fraction, Fraction]] = []
    best = None  # (key, pair, value); the least key wins
    for p in enumerate_pairs(seeds, max_word_len):
        try:
            if objective == "gamma_threshold":
                value = gamma_threshold(p)
            elif objective == "type1_gamma_bound":
                _guard(p)
                value = _type1_gamma_floor(p, F(0))
            else:
                value = max_delta(p, gamma)
        except InfeasibleError:
            continue
        trace.append((p.word, p.k, p.l, value))
        key = (-value if objective == "max_delta" else value, len(p.word), p.word)
        if best is None or key < best[0]:
            best = (key, p, value)
    if best is None:
        raise InfeasibleError("no feasible pair among the enumerated candidates")
    return SearchResult(best=best[1], value=best[2], trace=trace)
