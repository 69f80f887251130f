"""Subcommand CLI: config-driven experiments with CSV/JSON output.

Exit codes: 0 success, 2 infeasible or precondition failure, 1 internal
error, 64 malformed usage/config.

Output is deterministic: a provenance header (artifact version + config
echo, no timestamps) followed by a fixed column order per subcommand.
Exact rationals serialise as "p/q"; floats as shortest round-trip
decimals. Frozen CSV columns:

  exppair eval     word,k,l,threshold,c_upper[,gamma,delta,type1_gamma_lower,
                   type1_n_lower,type2_n_lower,type2_n_upper,max_delta]
  exppair search   word,k,l,value,is_best
  ps count|ap      x,c,q,a,count,main_term,ratio
  ps beatty        x,c,q,a,count,main_term,ratio
  goldbach3        N,c1,c2,c3,exact,predicted,ratio,singular,degenerate
  singular-series  N,P,value,tail_bound
  expsum theorem   x,H,alpha,u,c,value,value_over_x
  expsum bilinear  kind,x,c,alpha,u,M,N,h,delta,value
  expsum vdc       h,c,alpha,N,lhs,rhs_unit,empirical_C
  expsum bprocess  h,c,N,a,b,direct_re,direct_im,stationary_re,stationary_im,
                   error,bound,degenerate
  expsum vaaler    h,a_re,a_im,b
  hb verify        x,J,Z,checked,mismatches,max_abs_diff
  bf scan          N,c,alpha,discrepancy,discrepancy_over_N

Inputs beyond a work limit (README "Work limits") exit 2 before any work.
A --config file holds flat key=value lines (flag names without dashes,
'-' spelled '_'); its values override command-line flags; unknown keys
are rejected.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .exppairs import (
    ExponentPair,
    OBJECTIVES,
    SEED_PAIRS,
    delta_feasible,
    format_rational,
    gamma_threshold,
    max_delta,
    parse_rational,
    search_pairs,
    type1_constraints,
    type2_range,
)
from .expsums import (
    ExpSumSpec,
    HbParams,
    alpha_scan,
    b_process_compare,
    bilinear_sum,
    check_bilinear_size,
    hb_terms,
    min_valid_cutoff,
    theorem_sum,
    vaaler_coeffs,
    vdc_bound_check,
)
from .numeric import GammaExponent
from .pspseq import (
    LABELLED_ALPHAS,
    BeattyParams,
    goldbach3_count,
    ps_beatty_prime_count,
    ps_prime_count,
    ps_prime_count_ap,
    singular_series,
)
from .sieve import lambda_array

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INFEASIBLE = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that raises UsageError and records its long flags.

    ``flags`` maps each long flag, spelled as a config key, to its
    (dest, type, choices) so config lines are converted and checked exactly
    like the flag would be.
    """

    def __init__(self, *args, **kwargs):
        self.flags: dict[str, tuple[str, object, object]] = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.default is not argparse.SUPPRESS:
            for opt in action.option_strings:
                if opt.startswith("--"):
                    key = opt[2:].replace("-", "_")
                    self.flags[key] = (action.dest, action.type, action.choices)
        return action

    def error(self, message):  # argparse would call sys.exit(2)
        raise UsageError(message)


def parse_real(text: str) -> float:
    """A finite float from a decimal, 'p/q', 'sqrt2' or 'phi'; ValueError otherwise."""
    t = text.strip().lower()
    if t in LABELLED_ALPHAS:
        return LABELLED_ALPHAS[t]
    try:
        val = float(parse_rational(t)) if "/" in t else float(t)
    except OverflowError:
        val = math.inf
    if not math.isfinite(val):
        raise ValueError(f"{text!r} is not a finite real")
    return val


def _fmt(v) -> str:
    if isinstance(v, Fraction):
        return format_rational(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if v is None:
        return ""
    return str(v)


def _write(args, columns, rows, extra_meta=None):
    meta = {"artifact": f"psprimes {__version__}", "command": f"{args.group} {args.cmd}".strip()}
    for k in sorted(vars(args)):
        if k in ("group", "cmd", "output", "config", "func"):
            continue
        meta[k] = _fmt(getattr(args, k))
    if extra_meta:
        for k, v in extra_meta.items():
            meta[k] = _fmt(v)
    if args.format == "json":
        payload = {
            "provenance": meta,
            "columns": columns,
            "rows": [[_fmt(v) for v in row] for row in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [f"# {k}={v}" for k, v in meta.items()]
        lines.append(",".join(columns))
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc}") from None
    else:
        sys.stdout.write(text)


def _seed_pair(name: str) -> ExponentPair:
    if name not in SEED_PAIRS:
        raise UsageError(f"unknown seed {name!r}; choose from {sorted(SEED_PAIRS)}")
    return SEED_PAIRS[name]


def _pair_from_args(args) -> ExponentPair:
    if args.seed:
        return _seed_pair(args.seed)
    if args.k is None or args.l is None:
        raise UsageError("provide either --seed or both --k and --l")
    return ExponentPair(args.k, args.l, f"({args.k},{args.l})")


def _cmd_exppair_eval(args):
    p = _pair_from_args(args)
    thr = gamma_threshold(p)
    row = [p.word, p.k, p.l, thr, 1 / thr]
    cols = ["word", "k", "l", "threshold", "c_upper"]
    if args.gamma is not None:
        t1 = type1_constraints(p, args.gamma, args.delta)
        t2 = type2_range(args.gamma, args.delta)
        md = (
            max_delta(p, args.gamma)
            if delta_feasible(p, args.gamma, Fraction(0))
            else None
        )
        cols += [
            "gamma",
            "delta",
            "type1_gamma_lower",
            "type1_n_lower",
            "type2_n_lower",
            "type2_n_upper",
            "max_delta",
        ]
        row += [
            args.gamma,
            args.delta,
            t1.gamma_lower,
            str(t1.n_lower_exponents[0]),
            str(t2.n_lower_exponents[0]),
            str(t2.n_upper_exponent),
            md,
        ]
    return cols, [row], None


def _cmd_exppair_search(args):
    seeds = [_seed_pair(name.strip()) for name in args.seeds.split(",")]
    res = search_pairs(seeds, args.max_word_len, args.objective, gamma=args.gamma)
    rows = [
        [word, k, l, value, word == res.best.word]
        for word, k, l, value in res.trace
    ]
    return (
        ["word", "k", "l", "value", "is_best"],
        rows,
        {"best_word": res.best.word, "best_value": res.value},
    )


def _count_row(rep):
    return [rep.x, rep.c, rep.q, rep.a, rep.count, rep.main_term, rep.ratio]


_COUNT_COLS = ["x", "c", "q", "a", "count", "main_term", "ratio"]


def _cmd_ps_count(args):
    rep = ps_prime_count(args.x, args.c)
    return _COUNT_COLS, [_count_row(rep)], {"headline_term": rep.headline_term}


def _cmd_ps_ap(args):
    rep = ps_prime_count_ap(args.x, args.c, args.q, args.a)
    return _COUNT_COLS, [_count_row(rep)], None


def _cmd_ps_beatty(args):
    label = args.alpha_raw.strip().lower()
    B = (
        BeattyParams.from_label(label, args.beta)
        if label in LABELLED_ALPHAS
        else BeattyParams(alpha=args.alpha, beta=args.beta)
    )
    rep = ps_beatty_prime_count(args.x, args.c, B)
    return _COUNT_COLS, [_count_row(rep)], {"alpha": B.alpha, "beta": B.beta}


def _cmd_goldbach3(args):
    r = goldbach3_count(args.N, args.c1, args.c2, args.c3)
    ratio = r.exact / r.predicted if r.predicted > 0 else None
    row = [r.N, *r.c, r.exact, r.predicted, ratio, r.singular_value, r.degenerate]
    return (
        ["N", "c1", "c2", "c3", "exact", "predicted", "ratio", "singular", "degenerate"],
        [row],
        None,
    )


def _cmd_singular(args):
    r = singular_series(args.N, args.P)
    return (
        ["N", "P", "value", "tail_bound"],
        [[r.N, r.truncation_P, r.value, r.tail_bound]],
        None,
    )


def _cmd_expsum_theorem(args):
    spec = ExpSumSpec(alpha=args.alpha, g=GammaExponent.from_c(args.c), u=args.u, x=args.x, H=args.H)
    val = theorem_sum(spec, scaled=args.scaled)
    return (
        ["x", "H", "alpha", "u", "c", "value", "value_over_x"],
        [[args.x, args.H, args.alpha, args.u, args.c, val, val / args.x]],
        None,
    )


def _cmd_expsum_bilinear(args):
    g = GammaExponent.from_c(args.c)
    m_range = range(args.M + 1, 2 * args.M + 1)
    n_range = range(args.N + 1, 2 * args.N + 1)
    h_weights = {args.h: args.delta}
    # before the coefficient lists exist
    check_bilinear_size(m_range, n_range, args.x, h_weights)
    a = [1.0] * len(m_range)
    b = [math.log(n) if args.bn == "log" else 1.0 for n in n_range]
    val = bilinear_sum(
        args.kind,
        a,
        b,
        m_range,
        n_range,
        alpha=args.alpha,
        g=g,
        u=args.u,
        x=args.x,
        h_weights=h_weights,
    )
    return (
        ["kind", "x", "c", "alpha", "u", "M", "N", "h", "delta", "value"],
        [[args.kind, args.x, args.c, args.alpha, args.u, args.M, args.N, args.h, args.delta, val]],
        None,
    )


def _cmd_expsum_vdc(args):
    r = vdc_bound_check(args.h, GammaExponent.from_c(args.c), args.alpha, args.N)
    return (
        ["h", "c", "alpha", "N", "lhs", "rhs_unit", "empirical_C"],
        [[args.h, args.c, args.alpha, args.N, r.lhs, r.rhs_unit, r.empirical_c]],
        None,
    )


def _cmd_expsum_bprocess(args):
    interval = None
    if args.a is not None or args.b is not None:
        if args.a is None or args.b is None:
            raise UsageError("provide both --a and --b or neither")
        interval = (args.a, args.b)
    r = b_process_compare(args.h, GammaExponent.from_c(args.c), args.N, interval)
    a_val, b_val = interval if interval else (args.N + 1, 2 * args.N)
    row = [
        args.h,
        args.c,
        args.N,
        a_val,
        b_val,
        r.direct.real,
        r.direct.imag,
        r.stationary.real,
        r.stationary.imag,
        r.error,
        r.bound,
        r.degenerate,
    ]
    return (
        [
            "h",
            "c",
            "N",
            "a",
            "b",
            "direct_re",
            "direct_im",
            "stationary_re",
            "stationary_im",
            "error",
            "bound",
            "degenerate",
        ],
        [row],
        None,
    )


def _cmd_expsum_vaaler(args):
    va = vaaler_coeffs(args.H)
    rows = [[0, None, None, va.b_coeff(0)]]
    for h in range(1, args.H + 1):
        a = va.a_coeff(h)
        rows.append([h, a.real, a.imag, va.b_coeff(h)])
    return ["h", "a_re", "a_im", "b"], rows, None


def _cmd_hb_verify(args):
    Z = args.Z if args.Z is not None else min_valid_cutoff(args.x, args.J)
    params = HbParams(J=args.J, x=args.x, Z=Z)
    # Lambda on (x, 2x]; hb_terms runs first, so its peak holds no Lambda table
    rec = hb_terms(params)[args.x + 1 :]
    ref = lambda_array(2 * args.x)[args.x + 1 :]
    diff = np.abs(rec - ref)
    mismatches = int(np.count_nonzero(diff > 1e-9))
    row = [args.x, args.J, Z, rec.size, mismatches, float(diff.max())]
    return ["x", "J", "Z", "checked", "mismatches", "max_abs_diff"], [row], None


def _cmd_bf_scan(args):
    res = alpha_scan(args.N, args.c, args.grid_size)
    rows = [[args.N, args.c, a, d, d / args.N] for a, d in res.rows]
    return (
        ["N", "c", "alpha", "discrepancy", "discrepancy_over_N"],
        rows,
        {"max_discrepancy": res.max_discrepancy, "argmax_alpha": res.argmax_alpha},
    )


def build_parser() -> _Parser:
    top = _Parser(prog="psprimes", description=__doc__.splitlines()[0])
    top.add_argument("--version", action="version", version=f"psprimes {__version__}")
    sub = top.add_subparsers(dest="group", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--output", default=None, help="write to a file instead of stdout")
        sp.add_argument("--config", default=None, help="flat key=value file overriding flags")
        sp.set_defaults(config_flags=sp.flags)

    exppair = sub.add_parser("exppair").add_subparsers(dest="cmd", required=True)
    ev = exppair.add_parser("eval")
    ev.add_argument("--k", type=parse_rational, default=None)
    ev.add_argument("--l", type=parse_rational, default=None)
    ev.add_argument("--seed", default=None, help="named seed: trivial or bourgain")
    ev.add_argument("--gamma", type=parse_rational, default=None)
    ev.add_argument("--delta", type=parse_rational, default=Fraction(0))
    common(ev)
    ev.set_defaults(func=_cmd_exppair_eval)

    se = exppair.add_parser("search")
    se.add_argument("--seeds", default="trivial,bourgain")
    se.add_argument("--max-word-len", dest="max_word_len", type=int, default=6)
    se.add_argument("--objective", choices=OBJECTIVES, default="gamma_threshold")
    se.add_argument("--gamma", type=parse_rational, default=None)
    common(se)
    se.set_defaults(func=_cmd_exppair_search)

    ps = sub.add_parser("ps").add_subparsers(dest="cmd", required=True)
    for name, fn in (("count", _cmd_ps_count), ("ap", _cmd_ps_ap), ("beatty", _cmd_ps_beatty)):
        spx = ps.add_parser(name)
        spx.add_argument("--x", type=int, required=True)
        spx.add_argument("--c", type=parse_real, required=True)
        if name == "ap":
            spx.add_argument("--q", type=int, required=True)
            spx.add_argument("--a", type=int, required=True)
        if name == "beatty":
            spx.add_argument("--alpha", dest="alpha_raw", required=True)
            spx.add_argument("--beta", type=parse_real, default=0.0)
        common(spx)
        spx.set_defaults(func=fn)

    gb = sub.add_parser("goldbach3")
    gb.add_argument("--N", type=int, required=True)
    gb.add_argument("--c1", type=parse_real, required=True)
    gb.add_argument("--c2", type=parse_real, default=None)
    gb.add_argument("--c3", type=parse_real, default=None)
    common(gb)
    gb.set_defaults(func=_cmd_goldbach3, cmd="")

    ss = sub.add_parser("singular-series")
    ss.add_argument("--N", type=int, required=True)
    ss.add_argument("--P", type=int, default=10 ** 6)
    common(ss)
    ss.set_defaults(func=_cmd_singular, cmd="")

    exps = sub.add_parser("expsum").add_subparsers(dest="cmd", required=True)
    th = exps.add_parser("theorem")
    th.add_argument("--x", type=int, required=True)
    th.add_argument("--c", type=parse_real, required=True)
    th.add_argument("--alpha", type=parse_real, default=0.0)
    th.add_argument("--u", type=parse_real, default=0.0)
    th.add_argument("--H", type=int, required=True)
    th.add_argument("--scaled", action="store_true")
    common(th)
    th.set_defaults(func=_cmd_expsum_theorem)

    bi = exps.add_parser("bilinear")
    bi.add_argument("--kind", choices=("TypeI", "TypeII"), required=True)
    bi.add_argument("--x", type=int, required=True)
    bi.add_argument("--c", type=parse_real, required=True)
    bi.add_argument("--alpha", type=parse_real, default=0.0)
    bi.add_argument("--u", type=parse_real, default=0.0)
    bi.add_argument("--M", type=int, required=True)
    bi.add_argument("--N", type=int, required=True)
    bi.add_argument("--h", type=int, required=True)
    bi.add_argument("--delta", type=parse_real, default=1.0)
    bi.add_argument("--bn", choices=("one", "log"), default="one")
    common(bi)
    bi.set_defaults(func=_cmd_expsum_bilinear)

    vd = exps.add_parser("vdc")
    vd.add_argument("--h", type=parse_real, required=True)
    vd.add_argument("--c", type=parse_real, required=True)
    vd.add_argument("--alpha", type=parse_real, default=0.0)
    vd.add_argument("--N", type=int, required=True)
    common(vd)
    vd.set_defaults(func=_cmd_expsum_vdc)

    bp = exps.add_parser("bprocess")
    bp.add_argument("--h", type=parse_real, required=True)
    bp.add_argument("--c", type=parse_real, required=True)
    bp.add_argument("--N", type=int, required=True)
    bp.add_argument("--a", type=parse_real, default=None)
    bp.add_argument("--b", type=parse_real, default=None)
    common(bp)
    bp.set_defaults(func=_cmd_expsum_bprocess)

    vl = exps.add_parser("vaaler")
    vl.add_argument("--H", type=int, required=True)
    common(vl)
    vl.set_defaults(func=_cmd_expsum_vaaler)

    hb = sub.add_parser("hb").add_subparsers(dest="cmd", required=True)
    hv = hb.add_parser("verify")
    hv.add_argument("--x", type=int, required=True)
    hv.add_argument("--J", type=int, required=True)
    hv.add_argument("--Z", type=int, default=None)
    common(hv)
    hv.set_defaults(func=_cmd_hb_verify)

    bf = sub.add_parser("bf").add_subparsers(dest="cmd", required=True)
    bs = bf.add_parser("scan")
    bs.add_argument("--N", type=int, required=True)
    bs.add_argument("--c", type=parse_real, required=True)
    bs.add_argument("--grid-size", dest="grid_size", type=int, default=200)
    common(bs)
    bs.set_defaults(func=_cmd_bf_scan)

    return top


def _parse_bool(text: str) -> bool:
    return text.lower() in ("1", "true", "yes")


def _apply_config(args, flags: dict[str, tuple[str, object, object]]) -> None:
    try:
        with open(args.config) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {args.config}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{args.config}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in flags or key == "config":
            raise UsageError(f"{args.config}:{lineno}: unknown key {key!r}")
        dest, conv, choices = flags[key]
        if conv is None:
            conv = _parse_bool if isinstance(getattr(args, dest), bool) else str
        try:
            val = conv(value)
        except ValueError as exc:
            raise UsageError(f"{args.config}:{lineno}: bad value for {key}: {exc}")
        if choices is not None and val not in choices:
            raise UsageError(f"{args.config}:{lineno}: {key} must be one of {', '.join(choices)}")
        setattr(args, dest, val)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        flags = vars(args).pop("config_flags")
        if args.config:
            _apply_config(args, flags)
        if hasattr(args, "alpha_raw"):
            try:
                args.alpha = parse_real(args.alpha_raw)
            except ValueError as exc:
                raise UsageError(f"bad value for --alpha: {exc}") from None
        if getattr(args, "func", None) is _cmd_goldbach3:
            if args.c2 is None:
                args.c2 = args.c1
            if args.c3 is None:
                args.c3 = args.c1
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        columns, rows, extra = args.func(args)
        _write(args, columns, rows, extra)
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ArithmeticError) as exc:
        # InfeasibleError and ResourceGuardError are ValueError subclasses;
        # an input too large for a float overflows
        print(f"infeasible or precondition failure: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
