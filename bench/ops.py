"""Seeded op lists for the three workloads, and the checks every op must pass.

A CLI op is a dict {"cmd", "argv", "file", "expect"}: ``argv`` follows
``python -m psprimes.cli``; ``file`` routes the output through ``--output``
into the run's temp directory; ``expect`` pins column values of the first row.
A session op is a dict {"fn", "args", "expect"} naming a function exported
by ``psprimes``.

Sizes are drawn by stratified sampling (one draw per equal-width stratum,
then shuffled), so every seed gives different inputs but nearly the same
total work; that keeps wall time comparable across seeds.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from fractions import Fraction

WORKLOADS = ("count", "expsum", "session")

# Frozen CLI columns (documented in psprimes/cli.py); a change is a failure.
COUNT_COLS = ["x", "c", "q", "a", "count", "main_term", "ratio"]
COLUMNS = {
    "ps count": COUNT_COLS,
    "ps ap": COUNT_COLS,
    "ps beatty": COUNT_COLS,
    "exppair eval": ["word", "k", "l", "threshold", "c_upper"],
    "exppair eval gamma": ["word", "k", "l", "threshold", "c_upper", "gamma", "delta",
                           "type1_gamma_lower", "type1_n_lower", "type2_n_lower",
                           "type2_n_upper", "max_delta"],
    "exppair search": ["word", "k", "l", "value", "is_best"],
    "expsum theorem": ["x", "H", "alpha", "u", "c", "value", "value_over_x"],
    "expsum bilinear": ["kind", "x", "c", "alpha", "u", "M", "N", "h", "delta", "value"],
    "expsum vdc": ["h", "c", "alpha", "N", "lhs", "rhs_unit", "empirical_C"],
    "expsum bprocess": ["h", "c", "N", "a", "b", "direct_re", "direct_im", "stationary_re",
                        "stationary_im", "error", "bound", "degenerate"],
    "hb verify": ["x", "J", "Z", "checked", "mismatches", "max_abs_diff"],
    "bf scan": ["N", "c", "alpha", "discrepancy", "discrepancy_over_N"],
}

# Exponent pairs and gammas for which `exppair eval` is feasible.
EVAL_PAIRS = [("1/2", "1/2"), ("1/6", "2/3"), ("2/7", "4/7"), ("11/82", "57/82"),
              ("2/9", "11/18"), ("89/570", "187/285"), ("13/84", "55/84")]
EVAL_GAMMAS = ["19/20", "9/10", "7/8", "11/12"]
# Gammas at which some searched pair has a feasible delta (7/8 has none).
SEARCH_GAMMAS = ["19/20", "9/10", "11/12"]

# Ternary Goldbach counts pinned by the acceptance suite (c1 = c2 = c3 = 1.01).
GOLDBACH_PINS = {100001: 8367948, 100003: 8418930}


def strata(rng: random.Random, n: int, lo: float, hi: float, log: bool = False) -> list[float]:
    """One uniform draw from each of n equal strata of [lo, hi), shuffled."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    w = (b - a) / n
    vals = [a + (i + rng.random()) * w for i in range(n)]
    rng.shuffle(vals)
    return [math.exp(v) for v in vals] if log else vals


def log_strata_cut(rng: random.Random, n: int, lo: float, hi: float, cut: float) -> list[float]:
    """Log-uniform strata of [lo, hi) with ``cut`` on a stratum boundary.

    shared_table rounds its limit up to a power of two, so a size just above
    one costs a table twice as large; with the boundary at that power every
    seed puts the same number of sizes on each side.
    """
    below = round(n * math.log(cut / lo) / math.log(hi / lo))
    return strata(rng, below, lo, cut, log=True) + strata(rng, n - below, cut, hi, log=True)


def _dec(v: float, digits: int = 4) -> str:
    return f"{v:.{digits}f}"


def _coprime(rng: random.Random, q: int) -> int:
    while True:
        a = rng.randrange(1, q)
        if math.gcd(a, q) == 1:
            return a


def _irrational(rng: random.Random) -> str:
    """A decimal alpha in (1.1, 3) that BeattyParams accepts as irrational."""
    while True:
        text = _dec(rng.uniform(1.1, 3.0), 12)
        alpha = float(text)
        if abs(alpha - Fraction(alpha).limit_denominator(10 ** 4)) > 1e-9:
            return text


def _cli(cmd: str, argv: list[str], expect: dict | None = None) -> dict:
    return {"cmd": cmd, "argv": argv, "file": False, "expect": expect or {}}


def _count_ops(rng: random.Random) -> list[dict]:
    # count and ap share one stratification of x over [1e6, 3e7); the last
    # op always sits at the 3e7 ceiling so the peak table (and peak RSS) is
    # the same for every seed.
    kinds = ["count"] * 10 + ["ap"] * 10
    rng.shuffle(kinds)
    xs = [round(x) for x in log_strata_cut(rng, len(kinds) - 1, 1e6, 3e7, 2 ** 24)]
    xs.append(30_000_000)
    cs = strata(rng, len(kinds), 1.01, 1.9)
    ops = []
    for kind, x, c in zip(kinds, xs, cs):
        argv = ["ps", kind, "--x", str(x), "--c", _dec(c)]
        if kind == "ap":
            q = round(math.exp(rng.uniform(math.log(3), math.log(10 ** 4))))
            argv += ["--q", str(q), "--a", str(_coprime(rng, q))]
        ops.append(_cli(f"ps {kind}", argv))
    # Labelled alphas take the exact mpmath rechecks and cost about twice a
    # decimal one, so each alpha kind gets a small, a middle and a large x.
    kinds = ["sqrt2", "phi", "decimal"]
    rng.shuffle(kinds)
    alphas = [_irrational(rng) if k == "decimal" else k for k in kinds * 3]
    bxs = sorted(log_strata_cut(rng, len(alphas), 1e6, 4e6, 2 ** 21))
    bcs = strata(rng, len(alphas), 1.01, 1.9)
    for alpha, x, c in zip(alphas, bxs, bcs):
        argv = ["ps", "beatty", "--x", str(round(x)), "--c", _dec(c), "--alpha", alpha,
                "--beta", _dec(rng.random())]
        ops.append(_cli("ps beatty", argv))
    return ops + [
        _cli("ps count", ["ps", "count", "--x", "1000000", "--c", "1.05"], {"count": "40489"}),
        _cli("ps beatty", ["ps", "beatty", "--x", "1000000", "--c", "1.1", "--alpha", "sqrt2",
                           "--beta", "0.3"], {"count": "16011"}),
    ]


def _pow2(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    return [round(2 ** v) for v in strata(rng, n, lo, hi)]


def _ceiled(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """n sizes in [2^lo, 2^hi], ascending, the largest exactly 2^hi."""
    return sorted(_pow2(rng, n - 1, lo, hi)) + [2 ** hi]


def _expsum_ops(rng: random.Random) -> list[dict]:
    ops = []
    # Sum cost grows with the product of the two sizes, so large x meets small
    # H (and large N a small grid): op costs then vary less from seed to seed.
    # The largest x and N sit at the 2^18 ceiling, which fixes peak RSS.
    n = 12
    for x, H, c in zip(_ceiled(rng, n, 15, 18), sorted(_pow2(rng, n, 3, 6), reverse=True),
                       strata(rng, n, 1.01, 1.9)):
        alpha = rng.choice(["sqrt2", "phi", _dec(rng.random(), 6)])
        argv = ["expsum", "theorem", "--x", str(x), "--c", _dec(c), "--alpha", alpha,
                "--H", str(H), "--u", _dec(rng.random(), 3)]
        if rng.random() < 0.5:
            argv.append("--scaled")
        ops.append(_cli("expsum theorem", argv))
    n = 10
    for N, grid, c in zip(_ceiled(rng, n, 15, 18), sorted(strata(rng, n, 100, 400), reverse=True),
                          strata(rng, n, 1.01, 1.9)):
        argv = ["bf", "scan", "--N", str(N), "--c", _dec(c), "--grid-size", str(round(grid))]
        ops.append(_cli("bf scan", argv))
    for x, J in zip(sorted(strata(rng, n, 1e4, 1e5, log=True)), [2, 3] * (n // 2)):
        ops.append(_cli("hb verify", ["hb", "verify", "--x", str(round(x)), "--J", str(J)],
                        {"mismatches": "0"}))
    n = 7
    for N, c in zip(_pow2(rng, n, 12, 18), strata(rng, n, 1.01, 1.9)):
        argv = ["expsum", "vdc", "--h", str(rng.randint(1, 64)), "--c", _dec(c),
                "--alpha", _dec(rng.random(), 6), "--N", str(N)]
        ops.append(_cli("expsum vdc", argv))
    for N, h, c in zip(_pow2(rng, n, 12, 16), strata(rng, n, 1, 1000, log=True),
                       strata(rng, n, 1.01, 1.9)):
        argv = ["expsum", "bprocess", "--h", _dec(h, 3), "--c", _dec(c), "--N", str(N)]
        ops.append(_cli("expsum bprocess", argv))
    for i, (M, N) in enumerate(zip(strata(rng, n, 5, 300, log=True),
                                   strata(rng, n, 5, 300, log=True))):
        M, N = round(M), round(N)
        kind = "TypeI" if i % 2 else "TypeII"
        argv = ["expsum", "bilinear", "--kind", kind,
                "--x", str(round(M * N * rng.uniform(1.0, 2.0))), "--c", _dec(rng.uniform(1.01, 1.9)),
                "--alpha", _dec(rng.random(), 6), "--M", str(M), "--N", str(N),
                "--h", str(rng.randint(1, 16)),
                "--bn", rng.choice(["one", "log"]) if kind == "TypeI" else "one"]
        ops.append(_cli("expsum bilinear", argv))
    for _ in range(n):
        k, l = rng.choice(EVAL_PAIRS)
        argv = ["exppair", "eval", "--k", k, "--l", l]
        cmd = "exppair eval"
        if rng.random() < 0.5:
            argv += ["--gamma", rng.choice(EVAL_GAMMAS)]
            cmd = "exppair eval gamma"
        ops.append(_cli(cmd, argv))
    for length in strata(rng, n, 6, 13):
        objective = rng.choice(["gamma_threshold", "type1_gamma_bound", "max_delta"])
        argv = ["exppair", "search", "--seeds", rng.choice(["trivial,bourgain", "bourgain"]),
                "--max-word-len", str(int(length)), "--objective", objective]
        if objective == "max_delta":
            argv += ["--gamma", rng.choice(SEARCH_GAMMAS)]
        ops.append(_cli("exppair search", argv))
    return ops + [
        _cli("exppair eval", ["exppair", "eval", "--k", "13/84", "--l", "55/84"],
             {"threshold": "498/569", "c_upper": "569/498"}),
        _cli("hb verify", ["hb", "verify", "--x", "10000", "--J", "3"], {"mismatches": "0"}),
    ]


def _session_ops(rng: random.Random) -> list[dict]:
    x = 10 ** 7
    ops = []
    for c in strata(rng, 8, 1.01, 1.9):
        ops.append({"fn": "ps_prime_count", "args": [x, float(_dec(c))], "expect": {}})
    for c in strata(rng, 8, 1.01, 1.9):
        q = round(math.exp(rng.uniform(math.log(3), math.log(10 ** 4))))
        ops.append({"fn": "ps_prime_count_ap", "args": [x, float(_dec(c)), q, _coprime(rng, q)],
                    "expect": {}})
    # The pair convolution costs about |P(c1)|*|P(c2)| ~ N^(1/c1 + 1/c2), so
    # the largest N gets the largest exponents: every op then costs about the
    # same, and the total hardly depends on the seed.
    n = 12
    Ns = sorted(round(N) | 1 for N in strata(rng, n, 1e5, 2.5e5, log=True))
    cs = list(zip(*(strata(rng, n, 1.001, 1.099) for _ in range(3))))
    cs.sort(key=lambda c: -(1 / c[0] + 1 / c[1]))
    for N, c in zip(Ns, cs):
        ops.append({"fn": "goldbach3_count", "args": [N, *(float(_dec(v)) for v in c)],
                    "expect": {}})
    for P in strata(rng, 8, 1e3, 1e6, log=True):
        ops.append({"fn": "singular_series", "args": [rng.randrange(3, 10 ** 7), round(P)],
                    "expect": {}})
    ops.append({"fn": "ps_prime_count", "args": [1000000, 1.05], "expect": {"count": 40489}})
    ops += [{"fn": "goldbach3_count", "args": [N, 1.01, 1.01, 1.01], "expect": {"exact": v}}
            for N, v in GOLDBACH_PINS.items()]
    return ops


def make_ops(workload: str, seed: int) -> list[dict]:
    """The seeded op list of one workload, in execution order."""
    rng = random.Random(f"psprimes-bench:{workload}:{seed}")
    ops = {"count": _count_ops, "expsum": _expsum_ops, "session": _session_ops}[workload](rng)
    rng.shuffle(ops)
    if workload != "session":
        for op in ops:
            op["argv"] += ["--format", rng.choice(["csv", "json"])]
            op["file"] = rng.random() < 0.25
    return ops


def session_table_limit(ops: list[dict]) -> int:
    """Sieve limit that covers every session op, so no op rebuilds the table."""
    need = [10 ** 6]  # goldbach3_count's default singular-series truncation
    for op in ops:
        fn, args = op["fn"], op["args"]
        need.append(args[1] if fn == "singular_series" else args[0])
    return max(need)


def _parse(text: str, fmt: str) -> tuple[list[str], list[list[str]]]:
    if fmt == "json":
        payload = json.loads(text)
        if set(payload) != {"provenance", "columns", "rows"}:
            raise ValueError(f"JSON keys {sorted(payload)}")
        return payload["columns"], payload["rows"]
    body = [line for line in text.splitlines() if not line.startswith("# ")]
    cols, *rows = csv.reader(io.StringIO("\n".join(body) + "\n"))
    # An exponent-pair word such as "(2/9,11/18)" is written unquoted, so
    # its comma splits the leading column; join the surplus back into it.
    extra = [len(r) - len(cols) for r in rows]
    return cols, [[",".join(r[: e + 1]), *r[e + 1 :]] if e > 0 else r
                  for r, e in zip(rows, extra)]


def check_cli(op: dict, rc: int, text: str) -> str | None:
    """None if the op's output is right, else the reason it is not."""
    if rc != 0:
        return f"exit code {rc}"
    argv = op["argv"]
    try:
        cols, rows = _parse(text, argv[argv.index("--format") + 1])
    except (ValueError, IndexError, KeyError) as exc:
        return f"unparseable output: {exc}"
    if cols != COLUMNS[op["cmd"]]:
        return f"columns {cols}"
    if not rows or any(len(r) != len(cols) for r in rows):
        return "missing or ragged rows"
    first = dict(zip(cols, rows[0]))
    for key, want in op["expect"].items():
        if first[key] != want:
            return f"{key}={first[key]}, pinned {want}"
    cmd = op["cmd"]
    if cmd.startswith("ps "):
        if first["x"] != argv[argv.index("--x") + 1] or int(first["count"]) < 0:
            return f"bad count row {rows[0]}"
    elif cmd == "bf scan":
        grid = int(argv[argv.index("--grid-size") + 1])
        alphas = {i / grid for i in range(grid)} | {a / q for q in range(1, 21) for a in range(q)}
        if len(rows) != len(alphas):
            return f"{len(rows)} scan rows, expected {len(alphas)}"
    elif cmd == "exppair search":
        if sum(r[4] == "true" for r in rows) != 1:
            return "search must mark exactly one best row"
    return None


def check_session(op: dict, result: dict) -> str | None:
    """None if a session op's result is right, else the reason it is not."""
    for key, want in op["expect"].items():
        if result[key] != want:
            return f"{key}={result[key]}, pinned {want}"
    fn, args = op["fn"], op["args"]
    if fn.startswith("ps_prime_count"):
        if result["x"] != args[0] or result["count"] < 0 or not result["main_term"] > 0:
            return f"bad count report {result}"
    elif fn == "goldbach3_count":
        if result["exact"] < 0 or result["degenerate"] or not result["predicted"] > 0:
            return f"bad Goldbach result {result}"
    elif fn == "singular_series":
        if (result["value"] > 0) != (args[0] % 2 == 1):
            return f"singular series {result['value']} at N={args[0]}"
    return None
