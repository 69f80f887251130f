"""Desk-scale toolkit for Piatetski-Shapiro primes.

Library layers:

- numeric: certified floors/powers, unit exponential, exactly rounded
  array sums.
- sieve: a streaming prime sieve for the prime counts, one cached sorted
  prime list (limit <= 2^24) and bulk Lambda/mu arrays.
- pspseq: floor-power membership, prime counting (plain, progressions,
  Beatty intersections), ternary Goldbach counts, singular series.
- exppairs: exact-rational exponent-pair calculus and admissibility regions.
- expsums: direct evaluation of the exponential sums and their checks.
- cli: subcommand front end emitting CSV/JSON.
"""

__version__ = "0.1.0"

from .numeric import (
    GammaExponent,
    PrecisionError,
    floor_neg_pow,
    floor_pow,
    unit_exp,
)
from .sieve import (
    SieveTable,
    lambda_array,
    mobius_array,
    shared_table,
)
from .pspseq import (
    BeattyParams,
    Goldbach3Result,
    PsCountReport,
    SingularSeriesResult,
    ap_main_term,
    beatty_member,
    goldbach3_count,
    ps_beatty_prime_count,
    ps_expansion_residual,
    ps_indicator,
    ps_member_array,
    ps_prime_count,
    ps_prime_count_ap,
    refined_main_term,
    singular_series,
)
from .exppairs import (
    BOURGAIN_PAIR,
    TRIVIAL_PAIR,
    ConstraintReport,
    ExponentPair,
    InfeasibleError,
    a_process,
    b_process,
    delta_feasible,
    enumerate_pairs,
    gamma_threshold,
    max_delta,
    search_pairs,
    type1_constraints,
    type2_range,
)
from .expsums import (
    AlphaScanResult,
    ExpSumSpec,
    HbParams,
    ResourceGuardError,
    VaalerApprox,
    alpha_scan,
    b_process_compare,
    bf_discrepancy,
    bilinear_sum,
    hb_terms,
    min_valid_cutoff,
    theorem_sum,
    vaaler_coeffs,
    vdc_bound_check,
)
