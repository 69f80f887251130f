"""The long-lived library session: ``python bench/session.py IN_JSON OUT_JSON``.

IN_JSON holds {"ops", "table_limit", "seconds", "trace", "setup_only"}.
Set-up imports psprimes and warms ``shared_table`` to ``table_limit``, then
prints ``ready`` so the parent can time it. The op list then runs in rounds
until another round would not fit in ``seconds`` (always at least one).
OUT_JSON receives per-round op times, each op's serialised result from the
first round, per-round output digests and, when traced, the layer stats.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "psprimes"


def serialise(result) -> str:
    """Deterministic text of an op's result (floats as shortest round-trip)."""
    return json.dumps(dataclasses.asdict(result), sort_keys=True)


def run_op(ps, op: dict) -> tuple[str | None, str | None]:
    """(serialised result, error) of one session op."""
    try:
        return serialise(getattr(ps, op["fn"])(*op["args"])), None
    except Exception as exc:  # a failed op is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"


def main(in_path: str, out_path: str) -> int:
    cfg = json.loads(Path(in_path).read_text())
    import psprimes as ps

    if Path(ps.__file__).resolve().parent != SRC:
        raise SystemExit(f"psprimes imported from {ps.__file__}, not {SRC}")
    tracer = None
    if cfg["trace"]:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    ps.shared_table(cfg["table_limit"])
    print("ready", flush=True)
    out = {"rounds": [], "outputs": None}
    if not cfg["setup_only"]:
        start = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            times, digests, texts, errors = [], [], [], []
            for op in cfg["ops"]:
                t = time.perf_counter()
                text, err = run_op(ps, op)
                times.append(time.perf_counter() - t)
                texts.append(text)
                errors.append(err)
                digests.append(hashlib.sha256((text or "").encode()).hexdigest())
            wall = time.perf_counter() - r0
            out["rounds"].append({"wall": wall, "times": times, "digests": digests,
                                  "errors": errors})
            if out["outputs"] is None:
                out["outputs"] = texts
            if time.perf_counter() - start + wall > cfg["seconds"]:
                break
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.stats()
    Path(out_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
