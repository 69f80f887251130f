"""Layer spans recorded from outside the program.

``Tracer.install`` replaces, in every psprimes module namespace, each
function bound there from another psprimes module (the bindings a caller
looks up at call time), plus the module-internal functions the per-layer
metrics name, ``SieveTable.primes`` and ``math.fsum``, with a wrapper that times
the call. ``uninstall`` puts every original back. Spans are aggregated in
memory per name as (calls, total seconds, self seconds), self time being
total minus the time of child spans; counters record work done.

Run as a script, this file is the traced stand-in for
``python -m psprimes.cli``: ``python bench/layertrace.py STATS_JSON ARGV...``.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from pathlib import Path

LIBRARY = ("numeric", "sieve", "pspseq", "exppairs", "expsums")
# Functions that a per-layer metric names but no other module binds.
NAMED = {
    "numeric": ("_pow_parts_array", "_pow_parts"),
    "pspseq": ("beatty_member_array", "_beatty_member_exact", "_pair_sum_counts"),
    "expsums": ("_weighted_abs_sum", "_bf_weight_vector", "_dirichlet"),
}
# Value serialisers: their time counts as CLI formatting, not as a layer.
NOT_SPANNED = {"format_rational", "parse_rational"}
ALIASES = {"refined_main_term": "main_term", "ap_main_term": "main_term",
           "_beatty_member_exact": "beatty_exact"}

# Counters taken at span exit: (counter name, amount from (args, result)).
COUNTERS = {
    "numeric.pow_parts_array": ("numeric.pow_parts_array.entries", lambda a, r: r[0].size),
    "numeric.unit_exp_parts": ("numeric.unit_exp_parts.entries", lambda a, r: r[0].size),
    "sieve.build_table": ("sieve.build_table.entries", lambda a, r: r.limit + 1),
    "pspseq.pair_sum_counts": ("pspseq.pair_sum_counts.pairs", lambda a, r: a[0].size * a[1].size),
    "expsums.weighted_abs_sum": ("expsums.weighted_abs_sum.terms", lambda a, r: a[0].size),
    "exppairs.enumerate_pairs": ("exppairs.enumerate_pairs.pairs", lambda a, r: len(r)),
    "fsum": ("fsum.terms", lambda a, r: len(a[0]) if hasattr(a[0], "__len__") else 0),
}


def _span_name(fn) -> str:
    module = fn.__module__.rsplit(".", 1)[-1]
    return f"{module}.{ALIASES.get(fn.__name__, fn.__name__.lstrip('_'))}"


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self._restore: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        counter = COUNTERS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
            self._on_exit(name, parent[0] if parent else "", dt, args, result, counter)
            return result

        return span

    def _on_exit(self, name, parent, dt, args, result, counter) -> None:
        if counter:
            self.count(counter[0], counter[1](args, result))
        if name == "fsum":
            self.count(f"{parent.split('.')[0] or 'top'}.fsum.s", dt)
        elif name == "numeric.pow_parts" and parent == "numeric.pow_parts_array":
            self.count("numeric.pow_parts.rechecks", 1)
        elif name == "sieve.build_table":
            self.count("sieve.table_bytes",
                       result.least_prime_factor.nbytes + result.primality.nbytes)
            if parent == "sieve.shared_table":
                self.count("sieve.shared_table.builds", 1)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer binding of the already imported psprimes modules."""
        import psprimes
        from psprimes.sieve import SieveTable

        mods = {name: sys.modules[f"psprimes.{name}"] for name in LIBRARY}
        lib_names = {m.__name__ for m in mods.values()}
        spaces = [*mods.values(), psprimes]
        if "psprimes.cli" in sys.modules:
            spaces.append(sys.modules["psprimes.cli"])
        targets = [getattr(mods[m], attr) for m, attrs in NAMED.items() for attr in attrs]
        for ns in spaces:
            for attr, val in vars(ns).items():
                if (inspect.isfunction(val) and val.__module__ in lib_names
                        and val.__module__ != ns.__name__ and attr not in NOT_SPANNED):
                    targets.append(val)
        wrappers = {fn: self.wrap(_span_name(fn), fn) for fn in targets}
        for ns in spaces:
            for attr, val in list(vars(ns).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patch(ns, attr, wrappers[val])
        self._patch(SieveTable, "primes", self.wrap("sieve.primes", SieveTable.primes))
        self._patch(math, "fsum", self.wrap("fsum", math.fsum))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def stats(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def merge(stats: list[dict]) -> dict:
    """Sum the stats of several traced processes."""
    spans: dict[str, list] = {}
    counts: dict[str, float] = {}
    for st in stats:
        for name, vals in st["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(vals):
                acc[i] += v
        for key, v in st["counts"].items():
            counts[key] = counts.get(key, 0) + v
    return {"spans": spans, "counts": counts}


# Per-layer metric -> unit; BENCHMARK.json lists the same names.
LAYER_UNITS = {
    "sieve.build_table.s": "s", "sieve.build_table.calls": "count",
    "sieve.build_table.entries": "count", "sieve.table_mb": "MB",
    "sieve.shared_table.calls": "count", "sieve.shared_table.hit_frac": "frac",
    "sieve.primes.s": "s", "sieve.lambda_array.s": "s", "sieve.mobius_array.s": "s",
    "numeric.pow_parts_array.s": "s", "numeric.pow_parts_array.entries": "count",
    "numeric.pow_parts.calls": "count", "numeric.recheck_frac": "frac",
    "numeric.unit_exp_parts.s": "s", "numeric.unit_exp_parts.entries": "count",
    "pspseq.ps_member_array.s": "s", "pspseq.main_term.s": "s",
    "pspseq.beatty_member_array.s": "s", "pspseq.beatty_exact.calls": "count",
    "pspseq.beatty_exact.s": "s", "pspseq.pair_sum_counts.s": "s",
    "pspseq.pair_sum_counts.pairs": "count", "pspseq.singular_series.s": "s",
    "expsums.theorem_sum.s": "s", "expsums.weighted_abs_sum.calls": "count",
    "expsums.weighted_abs_sum.terms": "count", "expsums.alpha_scan.s": "s",
    "expsums.bf_weight_vector.s": "s", "expsums.hb_terms.s": "s",
    "expsums.dirichlet.s": "s", "expsums.dirichlet.calls": "count",
    "fsum.s": "s", "fsum.calls": "count", "fsum.terms": "count",
    "expsums.fsum.s": "s", "pspseq.fsum.s": "s",
    "exppairs.search_pairs.s": "s", "exppairs.enumerate_pairs.pairs": "count",
    "cli.import_s": "s", "cli.self_s": "s", "cli.output_bytes": "bytes",
    "trace_overhead_frac": "frac",
}


def layer_metrics(stats: dict, overhead: float) -> dict[str, float]:
    """Per-layer metric values from merged stats; ``.s`` metrics are self times."""
    spans, counts = stats["spans"], stats["counts"]

    def span(name: str, field: int) -> float:
        return spans.get(name, [0, 0.0, 0.0])[field]

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {}
    for name in LAYER_UNITS:
        base, _, kind = name.rpartition(".")
        if name in counts:
            out[name] = counts[name]
        elif kind == "s" and base in spans:
            out[name] = span(base, 2)
        elif kind == "calls":
            out[name] = span(base, 0)
        else:
            out[name] = 0
    shared = span("sieve.shared_table", 0)
    out["sieve.table_mb"] = counts.get("sieve.table_bytes", 0) / 2 ** 20
    out["sieve.shared_table.hit_frac"] = frac(
        shared - counts.get("sieve.shared_table.builds", 0), shared)
    out["numeric.recheck_frac"] = frac(counts.get("numeric.pow_parts.rechecks", 0),
                                       counts.get("numeric.pow_parts_array.entries", 0))
    out["cli.self_s"] = span("cli", 2)
    out["trace_overhead_frac"] = overhead
    return out


def _main(argv: list[str]) -> int:
    stats_path, cli_argv = argv[0], argv[1:]
    t0 = time.perf_counter()
    import psprimes.cli
    import_s = time.perf_counter() - t0
    src = Path(__file__).resolve().parent.parent / "src" / "psprimes"
    if Path(psprimes.__file__).resolve().parent != src:
        raise SystemExit(f"psprimes imported from {psprimes.__file__}, not {src}")
    tracer = Tracer()
    tracer.install()
    try:
        rc = tracer.wrap("cli", psprimes.cli.main)(cli_argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    tracer.count("cli.import_s", import_s)
    Path(stats_path).write_text(json.dumps(tracer.stats()))
    return rc


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
