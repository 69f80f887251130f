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
import csv
import io
import json
import math
import re
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
from .sieve import _prime_powers

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INFEASIBLE = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that raises UsageError instead of exiting.

    A token of a dash and then a digit or a dot is a value (-1e-3, -3/7,
    -.5), never a flag: no flag here starts with a digit.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-[\d.]")

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
        buf = io.StringIO()
        buf.writelines(f"# {k}={v}\n" for k, v in meta.items())
        out = csv.writer(buf, lineterminator="\n")  # quotes a field only if it holds a comma
        out.writerow(columns)
        out.writerows([_fmt(v) for v in row] for row in rows)
        text = buf.getvalue()
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc}") from None
    else:
        sys.stdout.write(text)


def _one(row: dict, extra=None):
    """A single named row as the (columns, rows, extra) a handler returns."""
    return list(row), [list(row.values())], extra


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
    row = {"word": p.word, "k": p.k, "l": p.l, "threshold": thr, "c_upper": 1 / thr}
    if args.gamma is not None:
        t1 = type1_constraints(p, args.gamma, args.delta)
        t2 = type2_range(args.gamma, args.delta)
        row.update(
            gamma=args.gamma,
            delta=args.delta,
            type1_gamma_lower=t1.gamma_lower,
            type1_n_lower=str(t1.n_lower_exponents[0]),
            type2_n_lower=str(t2.n_lower_exponents[0]),
            type2_n_upper=str(t2.n_upper_exponent),
            max_delta=(
                max_delta(p, args.gamma) if delta_feasible(p, args.gamma, Fraction(0)) else None
            ),
        )
    return _one(row)


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


def _count_row(rep, extra=None):
    cols = ("x", "c", "q", "a", "count", "main_term", "ratio")
    return _one({k: getattr(rep, k) for k in cols}, extra)


def _cmd_ps_count(args):
    rep = ps_prime_count(args.x, args.c)
    return _count_row(rep, {"headline_term": rep.headline_term})


def _cmd_ps_ap(args):
    return _count_row(ps_prime_count_ap(args.x, args.c, args.q, args.a))


def _cmd_ps_beatty(args):
    try:
        alpha = parse_real(args.alpha_raw)
    except ValueError as exc:
        raise UsageError(f"bad value for --alpha: {exc}") from None
    label = args.alpha_raw.strip().lower()
    B = BeattyParams(alpha=alpha, beta=args.beta,
                     alpha_label=label if label in LABELLED_ALPHAS else None)
    args.alpha = B.alpha  # echoed in the provenance header, in its sorted place
    rep = ps_beatty_prime_count(args.x, args.c, B)
    return _count_row(rep)


def _cmd_goldbach3(args):
    args.c2 = args.c1 if args.c2 is None else args.c2
    args.c3 = args.c1 if args.c3 is None else args.c3
    r = goldbach3_count(args.N, args.c1, args.c2, args.c3)
    return _one({
        "N": r.N, "c1": r.c[0], "c2": r.c[1], "c3": r.c[2], "exact": r.exact,
        "predicted": r.predicted, "ratio": r.ratio,
        "singular": r.singular_value, "degenerate": r.degenerate,
    })


def _cmd_singular(args):
    r = singular_series(args.N, args.P)
    return _one({"N": r.N, "P": r.truncation_P, "value": r.value, "tail_bound": r.tail_bound})


def _cmd_expsum_theorem(args):
    spec = ExpSumSpec(alpha=args.alpha, g=GammaExponent.from_c(args.c), u=args.u, x=args.x, H=args.H)
    val = theorem_sum(spec, scaled=args.scaled)
    return _one({
        "x": args.x, "H": args.H, "alpha": args.alpha, "u": args.u, "c": args.c,
        "value": val, "value_over_x": val / args.x,
    })


def _cmd_expsum_bilinear(args):
    g = GammaExponent.from_c(args.c)
    h_weights = {args.h: args.delta}
    # before the coefficient arrays exist
    check_bilinear_size(args.M, args.N, args.x, h_weights)
    a = np.broadcast_to(1.0, args.M)  # ones without an array
    if args.bn == "log":
        ns = range(args.N + 1, 2 * args.N + 1)
        b = np.fromiter(map(math.log, ns), dtype=np.float64, count=args.N)
    else:
        b = np.broadcast_to(1.0, args.N)
    val = bilinear_sum(
        args.kind, a, b, args.M, args.N, alpha=args.alpha, g=g, u=args.u, x=args.x,
        h_weights=h_weights,
    )
    return _one({
        "kind": args.kind, "x": args.x, "c": args.c, "alpha": args.alpha, "u": args.u,
        "M": args.M, "N": args.N, "h": args.h, "delta": args.delta, "value": val,
    })


def _cmd_expsum_vdc(args):
    r = vdc_bound_check(args.h, GammaExponent.from_c(args.c), args.alpha, args.N)
    return _one({
        "h": args.h, "c": args.c, "alpha": args.alpha, "N": args.N,
        "lhs": r.lhs, "rhs_unit": r.rhs_unit, "empirical_C": r.empirical_c,
    })


def _cmd_expsum_bprocess(args):
    interval = None
    if args.a is not None or args.b is not None:
        if args.a is None or args.b is None:
            raise UsageError("provide both --a and --b or neither")
        interval = (args.a, args.b)
    r = b_process_compare(args.h, GammaExponent.from_c(args.c), args.N, interval)
    a_val, b_val = interval if interval else (args.N + 1, 2 * args.N)
    return _one({
        "h": args.h, "c": args.c, "N": args.N, "a": a_val, "b": b_val,
        "direct_re": r.direct.real, "direct_im": r.direct.imag,
        "stationary_re": r.stationary.real, "stationary_im": r.stationary.imag,
        "error": r.error, "bound": r.bound, "degenerate": r.degenerate,
    })


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
    # |rec - Lambda| on (x, 2x], in place; hb_terms runs first, so its peak holds no prime table
    diff = hb_terms(params)[args.x + 1 :]
    ns, lam = _prime_powers(args.x, 2 * args.x)
    diff[ns - (args.x + 1)] -= lam
    np.abs(diff, out=diff)
    return _one({
        "x": args.x, "J": args.J, "Z": Z, "checked": diff.size,
        "mismatches": int(np.count_nonzero(diff > 1e-9)), "max_abs_diff": float(diff.max()),
    })


def _cmd_bf_scan(args):
    res = alpha_scan(args.N, args.c, args.grid_size)
    rows = [[args.N, args.c, a, d, d / args.N] for a, d in res.rows]
    return (
        ["N", "c", "alpha", "discrepancy", "discrepancy_over_N"],
        rows,
        {"max_discrepancy": res.max_discrepancy, "argmax_alpha": res.argmax_alpha},
    )


# Flag specs (argparse keyword arguments), shared where commands share a flag.
_INT = {"type": int, "required": True}
_REAL = {"type": parse_real, "required": True}
_REAL_0 = {"type": parse_real, "default": 0.0}
_REAL_OPT = {"type": parse_real, "default": None}
_RATIONAL = {"type": parse_rational, "default": None}
_XC = {"--x": _INT, "--c": _REAL}
_PHASE = {"--alpha": _REAL_0, "--u": _REAL_0}
_COMMON = {
    "--format": {"choices": ("csv", "json"), "default": "csv"},
    "--output": {"default": None, "help": "write to a file instead of stdout"},
    "--config": {"default": None, "help": "flat key=value file overriding flags"},
}

# One entry per subcommand, in --help order: name, handler, flags before _COMMON.
_COMMANDS = (
    ("exppair eval", _cmd_exppair_eval, {
        "--k": _RATIONAL, "--l": _RATIONAL,
        "--seed": {"default": None, "help": "named seed: trivial or bourgain"},
        "--gamma": _RATIONAL, "--delta": {"type": parse_rational, "default": Fraction(0)},
    }),
    ("exppair search", _cmd_exppair_search, {
        "--seeds": {"default": "trivial,bourgain"},
        "--max-word-len": {"type": int, "default": 6},
        "--objective": {"choices": OBJECTIVES, "default": "gamma_threshold"},
        "--gamma": _RATIONAL,
    }),
    ("ps count", _cmd_ps_count, _XC),
    ("ps ap", _cmd_ps_ap, {**_XC, "--q": _INT, "--a": _INT}),
    ("ps beatty", _cmd_ps_beatty, {
        **_XC, "--alpha": {"dest": "alpha_raw", "required": True}, "--beta": _REAL_0,
    }),
    ("goldbach3", _cmd_goldbach3, {
        "--N": _INT, "--c1": _REAL, "--c2": _REAL_OPT, "--c3": _REAL_OPT,
    }),
    ("singular-series", _cmd_singular, {"--N": _INT, "--P": {"type": int, "default": 10 ** 6}}),
    ("expsum theorem", _cmd_expsum_theorem, {
        **_XC, **_PHASE, "--H": _INT, "--scaled": {"action": "store_true"},
    }),
    ("expsum bilinear", _cmd_expsum_bilinear, {
        "--kind": {"choices": ("TypeI", "TypeII"), "required": True}, **_XC, **_PHASE,
        "--M": _INT, "--N": _INT, "--h": _INT, "--delta": {"type": parse_real, "default": 1.0},
        "--bn": {"choices": ("one", "log"), "default": "one"},
    }),
    ("expsum vdc", _cmd_expsum_vdc, {"--h": _REAL, "--c": _REAL, "--alpha": _REAL_0, "--N": _INT}),
    ("expsum bprocess", _cmd_expsum_bprocess, {
        "--h": _REAL, "--c": _REAL, "--N": _INT, "--a": _REAL_OPT, "--b": _REAL_OPT,
    }),
    ("expsum vaaler", _cmd_expsum_vaaler, {"--H": _INT}),
    ("hb verify", _cmd_hb_verify, {
        "--x": _INT, "--J": _INT, "--Z": {"type": int, "default": None},
    }),
    ("bf scan", _cmd_bf_scan, {
        "--N": _INT, "--c": _REAL, "--grid-size": {"type": int, "default": 200},
    }),
)


def build_parser() -> _Parser:
    top = _Parser(prog="psprimes", description=__doc__.splitlines()[0])
    top.add_argument("--version", action="version", version=f"psprimes {__version__}")
    sub = top.add_subparsers(dest="group", required=True)
    groups = {}
    for name, func, flags in _COMMANDS:
        group, _, cmd = name.partition(" ")
        if cmd and group not in groups:
            groups[group] = sub.add_parser(group).add_subparsers(dest="cmd", required=True)
        sp = groups[group].add_parser(cmd) if cmd else sub.add_parser(group)
        # each flag spelled as a config key, so a config line is checked like the flag
        config_flags = {
            flag[2:].replace("-", "_"): sp.add_argument(flag, **spec)
            for flag, spec in {**flags, **_COMMON}.items()
        }
        sp.set_defaults(func=func, cmd=cmd, config_flags=config_flags)
    return top


_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_bool(text: str) -> bool:
    if text.lower() not in _BOOLS:
        raise ValueError(f"{text!r} is not true/false, yes/no or 1/0")
    return _BOOLS[text.lower()]


def _apply_config(args, flags: dict[str, argparse.Action]) -> None:
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
        action = flags[key]
        conv = action.type or (_parse_bool if isinstance(action.default, bool) else str)
        try:
            val = conv(value)
        except ValueError as exc:
            raise UsageError(f"{args.config}:{lineno}: bad value for {key}: {exc}")
        if action.choices is not None and val not in action.choices:
            raise UsageError(
                f"{args.config}:{lineno}: {key} must be one of {', '.join(action.choices)}"
            )
        setattr(args, action.dest, val)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        flags = vars(args).pop("config_flags")
        if args.config:
            _apply_config(args, flags)
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
