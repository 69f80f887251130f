"""psprimes benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

    python3 bench/run.py --workload count|expsum|session --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program under test is the
checkout's ``src/psprimes``, imported with PYTHONPATH (it need not be
installed). Each workload is a closed loop with one caller: the seeded op
list (see ops.py) runs in rounds, one op at a time, until another round
would not fit in ``--seconds`` (at least one round runs).

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` it runs one untraced and one traced round and reports the
per-layer metrics (layertrace.py) plus the tracing overhead. Every op's
output is checked (ops.py); a failed check counts in ``failed``. A record
of the run, with machine details and the output digest, goes to
``bench/.out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import mpmath

from layertrace import LAYER_UNITS, layer_metrics, merge
from ops import WORKLOADS, check_cli, check_session, make_ops, session_table_limit

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"
PY = sys.executable
CHILD_TIMEOUT = 150.0  # seconds; a child still running then is killed and fails
SETUP_REPEATS = 9
PROBE = "import psprimes.cli, sys; sys.stdout.write(psprimes.__file__)"


def child_env() -> dict:
    """Environment of every child: the checkout's src first, one thread, no budget override."""
    env = {k: v for k, v in os.environ.items() if k != "PSPRIMES_MAX_XH"}
    env.update(PYTHONPATH=str(SRC), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def spawn(argv: list[str], out, err, ready: bool = False) -> tuple[float, float | None, int, float]:
    """Run argv to its end: (seconds, seconds until it printed 'ready', exit code, peak RSS MB).

    With ``ready`` the child's stdout is a pipe that must start with a 'ready'
    line; otherwise stdout goes to the open file ``out``.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE if ready else out, stderr=err)
    killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
    killer.start()
    status = None
    try:
        ready_s = None
        if ready:
            if proc.stdout.readline().strip() == b"ready":
                ready_s = time.perf_counter() - t0
            proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
    finally:
        killer.cancel()
        if ready:
            proc.stdout.close()
        if status is None:
            proc.kill()
            proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, ready_s, proc.returncode, usage.ru_maxrss / 1024


class Pass:
    """Results of running an op list in one or more rounds."""

    def __init__(self, n_ops: int) -> None:
        self.walls: list[float] = []
        self.times: list[list[float]] = []  # per round, per op
        self.outputs: list[bytes] = [b""] * n_ops  # first round
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.rss_mb = 0.0
        self.setups: list[float] = []
        self.stats: list[dict] = []

    def fail(self, i: int, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"op {i}: {reason}")

    def record(self, i: int, text: bytes, reason: str | None) -> None:
        """Count one op execution; later rounds must repeat the first round's bytes."""
        self.attempted += 1
        if len(self.times) == 1:
            self.outputs[i] = text
        elif reason is None and text != self.outputs[i]:
            reason = "output differs from the first round"
        if reason is not None:
            self.fail(i, reason)

    def digest(self) -> str:
        h = hashlib.sha256()
        for i, text in enumerate(self.outputs):
            h.update(f"{i}:{len(text)}\n".encode())
            h.update(text)
        return h.hexdigest()


def cli_op(op: dict, i: int, tmp: Path, stats: Path | None) -> tuple[float, int, float, bytes, str]:
    """One CLI op in its own process: (seconds, exit code, RSS MB, output bytes, stderr)."""
    argv = list(op["argv"])
    target = tmp / f"op{i}.out"
    if op["file"]:
        argv += ["--output", str(target)]
    else:
        target = tmp / "stdout"
    head = [PY, "-m", "psprimes.cli"] if stats is None else [PY, str(BENCH / "layertrace.py"), str(stats)]
    with open(tmp / "stdout", "wb") as out, open(tmp / "stderr", "wb") as err:
        elapsed, _, rc, rss = spawn(head + argv, out, err)
    text = target.read_bytes() if target.exists() else b""
    target.unlink(missing_ok=True)
    return elapsed, rc, rss, text, (tmp / "stderr").read_text(errors="replace")[-300:]


def cli_setup(p: Pass, tmp: Path, repeats: int) -> None:
    """Time spawn-until-imported of psprimes.cli and check where it came from."""
    for _ in range(repeats):
        with open(tmp / "probe", "wb") as out, open(tmp / "stderr", "wb") as err:
            elapsed, _, rc, rss = spawn([PY, "-c", PROBE], out, err)
        where = Path((tmp / "probe").read_text() or ".").resolve()
        if rc != 0 or where.parent != SRC / "psprimes":
            raise SystemExit(f"psprimes.cli not importable from {SRC} (got {where}, exit {rc})")
        p.setups.append(elapsed)
        p.rss_mb = max(p.rss_mb, rss)


def cli_rounds(p: Pass, ops: list[dict], tmp: Path, seconds: float, traced: bool) -> None:
    start = time.perf_counter()
    while True:
        times = []
        p.times.append(times)
        r0 = time.perf_counter()
        for i, op in enumerate(ops):
            stats = tmp / f"trace{i}.json" if traced else None
            elapsed, rc, rss, text, err = cli_op(op, i, tmp, stats)
            times.append(elapsed)
            p.rss_mb = max(p.rss_mb, rss)
            reason = check_cli(op, rc, text.decode(errors="replace"))
            p.record(i, text, reason if rc == 0 else f"{reason}: {err}")
            if traced and stats.exists():
                st = json.loads(stats.read_text())
                st["counts"]["cli.output_bytes"] = len(text)
                p.stats.append(st)
                stats.unlink()
        p.walls.append(time.perf_counter() - r0)
        if time.perf_counter() - start + p.walls[-1] > seconds:
            return


def session_worker(p: Pass, ops: list[dict], tmp: Path, seconds: float, traced: bool,
                   setup_only: bool) -> dict:
    """Run one session process; its spawn-until-ready time is a set-up sample."""
    cfg = {"ops": ops, "table_limit": session_table_limit(ops), "seconds": seconds,
           "trace": traced, "setup_only": setup_only}
    (tmp / "in.json").write_text(json.dumps(cfg))
    (tmp / "out.json").unlink(missing_ok=True)
    with open(tmp / "stderr", "wb") as err:
        _, ready_s, rc, rss = spawn([PY, str(BENCH / "session.py"), str(tmp / "in.json"),
                                     str(tmp / "out.json")], None, err, ready=True)
    if rc != 0 or ready_s is None:
        tail = (tmp / "stderr").read_text(errors="replace")[-500:]
        raise SystemExit(f"session worker failed (exit {rc}): {tail}")
    p.setups.append(ready_s)
    p.rss_mb = max(p.rss_mb, rss)
    return json.loads((tmp / "out.json").read_text())


def session_rounds(p: Pass, ops: list[dict], tmp: Path, seconds: float, traced: bool) -> None:
    res = session_worker(p, ops, tmp, seconds, traced, False)
    for rnd in res["rounds"]:
        p.times.append(rnd["times"])
        p.walls.append(rnd["wall"])
        for i, op in enumerate(ops):
            reason = rnd["errors"][i]
            if len(p.times) == 1:
                text = (res["outputs"][i] or "").encode()
                reason = reason or check_session(op, json.loads(text))
            elif rnd["digests"][i] == hashlib.sha256(p.outputs[i]).hexdigest():
                text = p.outputs[i]
            else:
                text = b""
            p.record(i, text, reason)
    if traced:
        p.stats.append(res["trace"])


def run_pass(workload: str, ops: list[dict], tmp: Path, seconds: float, traced: bool,
             setups: int) -> Pass:
    """Take ``setups`` set-up samples, then run the op list in rounds."""
    p = Pass(len(ops))
    if workload == "session":
        for _ in range(setups - 1):  # the measured session adds the last sample
            session_worker(p, ops, tmp, 0, False, True)
        session_rounds(p, ops, tmp, seconds, traced)
    else:
        cli_setup(p, tmp, setups)
        cli_rounds(p, ops, tmp, seconds, traced)
    return p


def quantile(sorted_vals: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of the order statistics.

    Its run-to-run spread is well below that of a single order statistic,
    which follows the noise of whichever one op lands at that rank.
    """
    n = len(sorted_vals)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(sorted_vals))


def end_to_end(p: Pass) -> tuple[dict, str]:
    per_op = sorted(statistics.median(ts) for ts in zip(*p.times))
    n = len(per_op)
    tail = max(n - 10, 1) / n  # the highest percentile with at least 10 ops beyond it
    label = f"p{100 * tail:.0f} of {n} ops (per-op median over {len(p.times)} round(s))"
    values = {
        "wall_s": (statistics.median(p.walls), "s"),
        "op_p50_s": (quantile(per_op, 0.5), "s"),
        "op_tail_s": (quantile(per_op, tail), "s"),
        "peak_rss_mb": (p.rss_mb, "MB"),
        "setup_s": (statistics.median(p.setups), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, label


def machine() -> dict:
    def version(mod: str) -> str:
        try:
            return __import__(mod).__version__
        except ImportError:
            return "missing"

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "python": platform.python_version(), "numpy": version("numpy"),
            "mpmath": version("mpmath"), "nproc": os.cpu_count(), "cpu": cpu}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "psprimes" / "__init__.py").is_file():
        print(f"no psprimes sources under {SRC}; run inside a source checkout", file=sys.stderr)
        return 2

    ops = make_ops(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=OUT, prefix=f"{args.workload}-"))
    try:
        if args.trace:
            base = run_pass(args.workload, ops, tmp, 0, False, 1)
            traced = run_pass(args.workload, ops, tmp, 0, True, 1)
            for i, (a, b) in enumerate(zip(base.outputs, traced.outputs)):
                if a != b:
                    traced.fail(i, "traced output differs from untraced output")
            overhead = traced.walls[0] / base.walls[0] - 1.0
            values = layer_metrics(merge(traced.stats), overhead)
            metrics = {k: {"value": values[k], "unit": u} for k, u in LAYER_UNITS.items()}
            label = f"{len(ops)} ops, one untraced and one traced round"
            passes = (base, traced)
        else:
            p = run_pass(args.workload, ops, tmp, args.seconds, False, SETUP_REPEATS)
            metrics, label = end_to_end(p)
            passes = (p,)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": len(ops), "timing": label,
        "output_sha256": passes[0].digest(), "failed_frac": failed / attempted,
        "errors": [e for p in passes for e in p.errors], "machine": machine(),
        "metrics": metrics,
        "ops_run": [{"op": op, "seconds": ts} for op, ts in zip(ops, zip(*passes[-1].times))],
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2))
    for key in ("workload", "seed", "ops", "timing", "output_sha256", "failed_frac"):
        print(f"# {key}: {record[key]}")
    print(f"# machine: {json.dumps(record['machine'])}")
    for err in record["errors"]:
        print(f"# FAILED {err}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
