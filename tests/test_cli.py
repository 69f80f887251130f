import contextlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psprimes import cli


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def _child_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_process(*argv, timeout):
    """Run the CLI in a child process; a run past timeout seconds fails the test."""
    return subprocess.run(
        [sys.executable, "-m", "psprimes.cli", *argv],
        env=_child_env(), capture_output=True, text=True, timeout=timeout,
    )


def run_process_hwm(*argv, timeout):
    """run_process, plus the child's own peak RSS (VmHWM) in kilobytes.

    ru_maxrss from wait4 would also count the memory of this process, which
    the child shares until it execs; the child reads VmHWM itself instead.
    """
    code = (
        "import sys; from psprimes.cli import main; rc = main(sys.argv[1:]); "
        "hwm = [l for l in open('/proc/self/status') if l.startswith('VmHWM')]; "
        "print(hwm[0].split()[1], file=sys.stderr); sys.exit(rc)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=_child_env(),
        capture_output=True, text=True, timeout=timeout,
    )
    return proc, int(proc.stderr.split()[-1])


class TestExppairCli:
    def test_bourgain_golden(self, capsys):
        rc, out, _ = run(capsys, "exppair", "eval", "--k", "13/84", "--l", "55/84")
        assert rc == 0
        data = out.strip().splitlines()[-1]
        assert "498/569" in data and "569/498" in data

    def test_vdc_golden(self, capsys):
        rc, out, _ = run(capsys, "exppair", "eval", "--k", "1/2", "--l", "1/2")
        assert rc == 0
        assert "8/9" in out and "9/8" in out

    def test_trivial_rejected_exit_2(self, capsys):
        rc, _, err = run(capsys, "exppair", "eval", "--k", "0", "--l", "1")
        assert rc == 2
        assert "4k-2l+1" in err

    def test_search(self, capsys):
        rc, out, _ = run(
            capsys, "exppair", "search", "--seeds", "trivial", "--max-word-len", "1"
        )
        assert rc == 0
        assert "# best_value=8/9" in out
        assert "B(trivial),1/2,1/2,8/9,true" in out

    @pytest.mark.parametrize("length", ["21", "9" * 400], ids=["21", "400-digits"])
    def test_search_word_length_cap_exit_2(self, length):
        proc = run_process("exppair", "search", "--max-word-len", length, timeout=10)
        assert proc.returncode == 2
        assert "max_word_len must be <= 20" in proc.stderr

    def test_gamma_analysis_columns(self, capsys):
        rc, out, _ = run(
            capsys, "exppair", "eval", "--k", "1/2", "--l", "1/2", "--gamma", "19/20"
        )
        assert rc == 0
        assert "11/240" in out  # max_delta at gamma = 19/20


class TestPsCli:
    def test_count_row_layout(self, capsys):
        rc, out, _ = run(capsys, "ps", "count", "--x", "1000", "--c", "1.5")
        assert rc == 0
        lines = out.strip().splitlines()
        header = [l for l in lines if l.startswith("x,")]
        assert header == ["x,c,q,a,count,main_term,ratio"]

    def test_ap_requires_coprime(self, capsys):
        rc, _, err = run(
            capsys, "ps", "ap", "--x", "1000", "--c", "1.1", "--q", "4", "--a", "2"
        )
        assert rc == 2
        assert "gcd" in err

    def test_beatty_literals(self, capsys):
        rc, out, _ = run(
            capsys, "ps", "beatty", "--x", "1000", "--c", "1.2",
            "--alpha", "sqrt2", "--beta", "0.3",
        )
        assert rc == 0
        rc2, _, err = run(
            capsys, "ps", "beatty", "--x", "1000", "--c", "1.2", "--alpha", "1.5"
        )
        assert rc2 == 2

    @pytest.mark.parametrize("alpha, count", [("sqrt2", 143), ("phi", 130)])
    def test_beatty_huge_beta_counts_exactly(self, capsys, alpha, count):
        # beta = -1e70 puts every boundary inside the float guard radius, and
        # (m - beta)/alpha needs over 70 digits; the counts are those of an
        # integer bisection oracle (tests/test_pspseq.py, beatty_oracle)
        rc, out, _ = run(
            capsys, "ps", "beatty", "--x", "3000", "--c", "1.1", "--alpha", alpha, "--beta=-1e70"
        )
        assert rc == 0
        assert int(out.strip().splitlines()[-1].split(",")[4]) == count


class TestImportCost:
    def test_cli_import_loads_no_fft_or_scipy(self):
        # numpy.fft is imported inside the Goldbach pair count only, and scipy
        # never: both would add to the start-up of every CLI command
        code = (
            "import sys, psprimes.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'numpy.fft' or m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=_child_env(), capture_output=True,
            text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cli_import_loads_no_mpmath(self):
        # mpmath serves only the float-guard escalations of numeric, which
        # import it when they are reached
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, psprimes.cli; print('mpmath' in sys.modules)"],
            env=_child_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize(
        "argv",
        [
            ["ps", "count", "--x", "1000000", "--c", "1.05"],
            ["expsum", "theorem", "--x", "1024", "--c", "1.1", "--alpha", "sqrt2", "--H", "2"],
        ],
    )
    def test_commands_load_no_mpmath(self, argv):
        code = (
            "import sys; from psprimes.cli import main; rc = main(sys.argv[1:]); "
            "print('mpmath' in sys.modules, file=sys.stderr); sys.exit(rc)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv], env=_child_env(),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.split()[-1] == "False"

    def test_exact_paths_import_mpmath_when_reached(self):
        # the Beatty pin loads no mpmath, nor does a count whose exact Beatty
        # recheck reaches the guard-band prime 999983 (it decides in
        # integers); a floor that only mpmath decides (sqrt(2^52 - 1), within
        # 2^-27 of an integer) then loads it and still comes out. The name is
        # kept from when the Beatty recheck used mpmath too; "exact paths"
        # now means only the numeric floor escalation.
        code = (
            "import math, sys; from psprimes.cli import main; "
            "rc = main(['ps', 'beatty', '--x', '1000000', '--c', '1.1', "
            "'--alpha', 'sqrt2', '--beta', '0.3']); "
            "before = 'mpmath' in sys.modules; "
            "from psprimes import numeric, pspseq; p = 999983; calls = []; "
            "exact = pspseq._beatty_member_exact; "
            "pspseq._beatty_member_exact = lambda m, B: calls.append(m) or exact(m, B); "
            "B = pspseq.BeattyParams.from_label('sqrt2', p - (p // math.sqrt(2)) * math.sqrt(2)); "
            "pspseq.ps_beatty_prime_count(p + 50, 1.0 + 1e-9, B); "
            "print(before, p in calls, exact(p, B), 'mpmath' in sys.modules, "
            "numeric.floor_pow(2 ** 52 - 1, 0.5), 'mpmath' in sys.modules, file=sys.stderr); "
            "sys.exit(rc)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=_child_env(),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1].split(",")[4] == "16011"
        from psprimes import pspseq

        p = 999983
        B = pspseq.BeattyParams.from_label("sqrt2", p - (p // math.sqrt(2)) * math.sqrt(2))
        member = str(pspseq._beatty_member_exact(p, B))
        assert proc.stderr.split() == ["False", "True", member, "False", str(2 ** 26 - 1), "True"]


def _load_bench(name):
    """bench/<name>.py, loaded from its file without running or changing it."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"{name}_contract", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestBenchContract:
    """The names the benchmark reads from the library must keep existing."""

    @pytest.mark.parametrize("seed", [1, 7, 31])
    def test_session_ops_name_exports(self, seed):
        import psprimes

        fns = {op["fn"] for op in _load_bench("ops").make_ops("session", seed)}
        assert fns and [f for f in fns if not callable(getattr(psprimes, f, None))] == []

    def test_session_and_tracer_attributes_exist(self):
        import psprimes
        from psprimes.sieve import SieveTable

        assert callable(psprimes.shared_table)  # bench/session.py warms it
        assert callable(SieveTable.primes)  # layertrace.install() patches it

    def test_aliases_name_library_functions(self):
        lt = _load_bench("layertrace")
        mods = [importlib.import_module(f"psprimes.{m}") for m in lt.LIBRARY]
        missing = [
            a for a in lt.ALIASES if not any(callable(getattr(m, a, None)) for m in mods)
        ]
        assert missing == []

    def test_named_functions_exist(self):
        lt = _load_bench("layertrace")
        missing = [
            f"{m}.{attr}" for m, attrs in lt.NAMED.items() for attr in attrs
            if not callable(getattr(importlib.import_module(f"psprimes.{m}"), attr, None))
        ]
        assert missing == []

    def test_cli_import_loads_every_traced_module(self):
        lt = _load_bench("layertrace")
        code = (
            "import sys, psprimes.cli; "
            "print(' '.join(m for m in sys.argv[1:] if 'psprimes.' + m not in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, *lt.LIBRARY], env=_child_env(),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""


class TestDeskScale:
    def test_count_at_1e8_pinned_under_500mb(self, tmp_path):
        out = tmp_path / "count.csv"
        argv = [sys.executable, "-m", "psprimes.cli", "ps", "count"]
        argv += ["--x", "100000000", "--c", "1.05"]
        with open(out, "w") as fh:
            proc = subprocess.Popen(argv, stdout=fh, env=_child_env())
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0
        row = out.read_text().strip().splitlines()[-1].split(",")
        # pinned; matches scalar ps_indicator over every prime <= 10^8 from a
        # plain Eratosthenes sieve
        assert row[4] == "2402521"
        assert usage.ru_maxrss < 500 * 1024  # kilobytes on Linux


class TestOtherSubcommands:
    def test_goldbach3_defaults_remaining_exponents(self, capsys):
        rc, out, _ = run(capsys, "goldbach3", "--N", "10001", "--c1", "1.01")
        assert rc == 0
        row = out.strip().splitlines()[-1]
        assert row.startswith("10001,1.01,1.01,1.01,")

    def test_goldbach3_top_of_range(self, capsys):
        rc, out, _ = run(capsys, "goldbach3", "--N", "999999", "--c1", "1.01")
        assert rc == 0
        assert out.strip().splitlines()[-1].startswith("999999,1.01,1.01,1.01,268313994,")

    def test_singular_series_even_zero(self, capsys):
        rc, out, _ = run(capsys, "singular-series", "--N", "10", "--P", "1000")
        assert rc == 0
        assert ",0.0," in out.strip().splitlines()[-1]

    def test_singular_series_beyond_int64(self, capsys):
        # 11 is the only prime <= 1000 dividing 10^19 + 1, so the truncated
        # product is the one at N = 11
        rows = []
        for N in ("10000000000000000001", "11"):
            rc, out, _ = run(capsys, "singular-series", "--N", N, "--P", "1000")
            assert rc == 0
            rows.append(out.strip().splitlines()[-1].split(","))
        assert rows[0][0] == "10000000000000000001"
        assert rows[0][1:] == rows[1][1:]

    def test_hb_verify_golden(self, capsys):
        rc, out, _ = run(capsys, "hb", "verify", "--x", "2000", "--J", "3")
        assert rc == 0
        header = [l for l in out.splitlines() if l.startswith("x,")][0]
        row = out.strip().splitlines()[-1]
        cols = dict(zip(header.split(","), row.split(",")))
        assert cols["mismatches"] == "0"

    def test_hb_verify_huge_cutoff_sieves_only_what_it_reads(self):
        # mu is read on [1, min(Z, 2x)] = [1, 2000]: a cutoff of 2^25 must not
        # size the sieve table (a 2^25-entry table alone is 32 MB)
        proc, hwm = run_process_hwm(
            "hb", "verify", "--x", "1000", "--J", "2", "--Z", "33554432", timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        header, row = proc.stdout.strip().splitlines()[-2:]
        assert dict(zip(header.split(","), row.split(",")))["mismatches"] == "0"
        assert hwm < 60 * 1024  # kilobytes on Linux

    def test_hb_verify_exact_at_j4(self, capsys):
        # the identity holds; a float chain of 3J - 2 convolutions missed the
        # 1e-9 tolerance at 52 n here (max_abs_diff 3.7e-9)
        rc, out, _ = run(capsys, "hb", "verify", "--x", "1000000", "--J", "4")
        assert rc == 0
        header, row = out.strip().splitlines()[-2:]
        cols = dict(zip(header.split(","), row.split(",")))
        assert cols["mismatches"] == "0"
        assert float(cols["max_abs_diff"]) < 1e-12

    def test_hb_verify_peak_memory(self):
        # hb_terms builds its coefficients in integers and ends with one float
        # convolution: 92 MB on x86-64 Linux with Python 3.11, against 122 MB
        # for a float chain with one running total and 168 MB with every term
        proc, hwm = run_process_hwm("hb", "verify", "--x", "1000000", "--J", "3", timeout=60)
        assert proc.returncode == 0, proc.stderr
        header, row = proc.stdout.strip().splitlines()[-2:]
        assert dict(zip(header.split(","), row.split(",")))["mismatches"] == "0"
        assert hwm <= 150 * 1024  # kilobytes on Linux

    def test_hb_verify_builds_one_table(self, capsys, monkeypatch):
        from psprimes import sieve

        calls = []
        stream = sieve.prime_stream
        monkeypatch.setattr(sieve, "_table", None)
        monkeypatch.setattr(
            sieve, "prime_stream", lambda limit: calls.append(limit) or stream(limit)
        )
        rc, _, _ = run(capsys, "hb", "verify", "--x", "1000", "--J", "2")
        assert rc == 0
        assert calls == [2000]

    @pytest.mark.parametrize("x, J", [("-3", "2"), ("5", "0"), ("2", "-1")])
    def test_hb_verify_bad_shape_exit_2(self, capsys, x, J):
        # a negative x once reached exit 1 through a complex float root
        rc, out, err = run(capsys, "hb", "verify", "--x", x, "--J", J)
        assert rc == 2
        assert out == "" and err.startswith("infeasible or precondition failure:")

    def test_hb_verify_beyond_work_limit_exit_2(self):
        proc = run_process("hb", "verify", "--x", str(2 ** 22 + 1), "--J", "2", timeout=10)
        assert proc.returncode == 2
        assert "exceeds the Heath-Brown limit 2^22" in proc.stderr

    def test_expsum_theorem_columns(self, capsys):
        rc, out, _ = run(
            capsys, "expsum", "theorem", "--x", "1024", "--c", "1.1",
            "--alpha", "sqrt2", "--H", "2",
        )
        assert rc == 0
        assert "x,H,alpha,u,c,value,value_over_x" in out

    def test_expsum_vdc_h_zero_exit_2(self, capsys):
        rc, _, err = run(
            capsys, "expsum", "vdc", "--h", "0", "--c", "1.1", "--N", "1024"
        )
        assert rc == 2

    def test_expsum_vaaler_rows(self, capsys):
        rc, out, _ = run(capsys, "expsum", "vaaler", "--H", "4")
        assert rc == 0
        rows = [l for l in out.strip().splitlines() if not l.startswith("#")]
        assert len(rows) == 1 + 5  # header + h = 0..4

    def test_expsum_bilinear(self, capsys):
        rc, out, _ = run(
            capsys, "expsum", "bilinear", "--kind", "TypeI", "--x", "30",
            "--c", "1.1", "--M", "5", "--N", "5", "--h", "2", "--bn", "log",
        )
        assert rc == 0

    def test_expsum_bprocess(self, capsys):
        rc, out, _ = run(
            capsys, "expsum", "bprocess", "--h", "8", "--c", "1.1", "--N", "2048"
        )
        assert rc == 0
        assert "direct_re" in out

    def test_expsum_bprocess_huge_h_exit_2(self):
        # ~10^300 stationary points: rejected before any is solved
        proc = run_process(
            "expsum", "bprocess", "--h", "1e300", "--c", "1.1", "--N", "1024", timeout=10
        )
        assert proc.returncode == 2
        assert "stationary points exceed the budget" in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["singular-series", "--N", "9", "--P", "16777217"],
            ["bf", "scan", "--N", "16777217", "--c", "1.1", "--grid-size", "1"],
            ["expsum", "theorem", "--x", "8388609", "--c", "1.1", "--H", "1"],
        ],
        ids=["singular-series", "bf-scan", "expsum-theorem"],
    )
    def test_beyond_table_cap_exit_2(self, argv):
        # each needs a primality table past 2^24: rejected before it is built
        proc, hwm = run_process_hwm(*argv, timeout=10)
        assert proc.returncode == 2
        assert "sieve table limit must lie in [2, 2^24]" in proc.stderr
        assert hwm < 100 * 1024  # kilobytes on Linux

    @pytest.mark.parametrize(
        "argv",
        [
            ["expsum", "vdc", "--h", "4", "--c", "1.1", "--N", "10000000000"],
            ["expsum", "bprocess", "--h", "8", "--c", "1.1", "--N", "10000000000"],
            ["expsum", "vaaler", "--H", "10000000000"],
            ["expsum", "bilinear", "--kind", "TypeI", "--x", "30", "--c", "1.1",
             "--M", "10000000000", "--N", "5", "--h", "2"],
            ["expsum", "bilinear", "--kind", "TypeI", "--c", "1.1", "--h", "1",
             "--M", "16777216", "--N", "1", "--x", "33554432"],
        ],
        ids=["vdc", "bprocess", "vaaler", "bilinear", "bilinear-rows"],
    )
    def test_oversized_direct_sum_exit_2(self, argv):
        # 10^10 terms would need 75 GiB per float64 array, and 2^24 rows of the
        # bilinear loop about 6 minutes: rejected before any array or
        # coefficient list of that size exists
        proc = run_process(*argv, timeout=10)
        assert proc.returncode == 2
        assert "exceeds the limit" in proc.stderr

    def test_bf_scan_provenance_max(self, capsys):
        rc, out, _ = run(
            capsys, "bf", "scan", "--N", "4096", "--c", "1.1", "--grid-size", "8"
        )
        assert rc == 0
        assert "# max_discrepancy=" in out


def readme_commands():
    """The psprimes lines of README's CLI block, each with and without its [optional] flags."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [l.split("#", 1)[0].split() for l in block.splitlines() if l.startswith("psprimes ")]
    out = []
    for words in lines:
        plain = [w for w in words[1:] if not w.startswith("[")]
        out.append(plain)
        if len(plain) < len(words) - 1:
            out.append([w.strip("[]") for w in words[1:]])
    return out


class TestCliPlumbing:
    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_readme_commands_run(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (0, "")
        if argv[:2] == ["hb", "verify"]:
            header, row = out.splitlines()[-2:]
            assert dict(zip(header.split(","), row.split(",")))["mismatches"] == "0"

    def test_unknown_subcommand_exit_64(self, capsys):
        rc, _, _ = run(capsys, "nonsense")
        assert rc == 64

    def test_missing_required_flag_exit_64(self, capsys):
        rc, _, _ = run(capsys, "ps", "count", "--c", "1.1")
        assert rc == 64

    def test_config_overrides_flags(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("x=200\nc=1.5\n")
        rc, out, _ = run(
            capsys, "ps", "count", "--x", "50", "--c", "1.9", "--config", str(cfg)
        )
        assert rc == 0
        assert out.strip().splitlines()[-1].startswith("200,1.5,")

    def test_config_unknown_key_exit_64(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("bogus=1\n")
        rc, _, err = run(
            capsys, "ps", "count", "--x", "50", "--c", "1.5", "--config", str(cfg)
        )
        assert rc == 64
        assert "unknown key" in err

    def test_config_malformed_line_exit_64(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("just-some-words\n")
        rc, _, _ = run(
            capsys, "ps", "count", "--x", "50", "--c", "1.5", "--config", str(cfg)
        )
        assert rc == 64

    @pytest.mark.parametrize(
        "argv, config, flags",
        [
            (["goldbach3", "--N", "10001", "--c1", "1.01"], "c2=1.05\n", ["--c2", "1.05"]),
            (["goldbach3", "--N", "10001", "--c1", "1.01"], "c3=1.05\n", ["--c3", "1.05"]),
            (["expsum", "bprocess", "--h", "8", "--c", "1.1", "--N", "2048"],
             "a=2049\nb=4000\n", ["--a", "2049", "--b", "4000"]),
            (["ps", "beatty", "--x", "1000", "--c", "1.2", "--alpha", "1.7"],
             "alpha=sqrt2\n", ["--alpha", "sqrt2"]),
        ],
        ids=["goldbach3-c2", "goldbach3-c3", "bprocess-a-b", "beatty-alpha"],
    )
    def test_config_key_matches_flag(self, capsys, tmp_path, argv, config, flags):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(config)
        rc, via_config, _ = run(capsys, *argv, "--config", str(cfg))
        assert rc == 0
        rc2, via_flags, _ = run(capsys, *argv, *flags)
        assert rc2 == 0
        assert via_config == via_flags

    def test_identical_config_byte_identical_output(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for path in (out1, out2):
            rc = cli.main(
                ["exppair", "eval", "--k", "13/84", "--l", "55/84",
                 "--output", str(path)]
            )
            assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format(self, capsys):
        rc, out, _ = run(
            capsys, "ps", "count", "--x", "1000", "--c", "1.5", "--format", "json"
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["columns"] == ["x", "c", "q", "a", "count", "main_term", "ratio"]
        assert payload["provenance"]["command"] == "ps count"
        assert payload["provenance"]["artifact"].startswith("psprimes ")

    def test_rational_strings_not_decimals(self, capsys):
        rc, out, _ = run(capsys, "exppair", "eval", "--k", "13/84", "--l", "55/84")
        data_rows = [l for l in out.splitlines() if not l.startswith(("#", "word"))]
        assert "0.8752" not in data_rows[0]  # thresholds stay exact

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["exppair", "eval", "--k", "1/0", "--l", "1/2"],
            ["exppair", "eval", "--k", "1/2", "--l", "1/2", "--gamma", "3/0"],
            ["ps", "count", "--x", "100", "--c", "1/0"],
            ["ps", "count", "--x", "100", "--c", "1" + "0" * 400 + "/1"],
            ["ps", "beatty", "--x", "100", "--c", "1.1", "--alpha", "1/0"],
            ["ps", "beatty", "--x", "100", "--c", "1.1", "--alpha", "inf"],
            ["ps", "beatty", "--x", "100", "--c", "1.1", "--alpha", "1e400"],
            ["expsum", "theorem", "--x", "1024", "--c", "1.1", "--H", "2",
             "--alpha", "nan"],
            ["ps", "count", "--x", "100", "--c", "1.1", "--threads", "2"],
            ["ps", "count", "--x", "100", "--c", "1.1", "--config", "/nonexistent/cfg"],
            ["ps", "count", "--x", "100", "--c", "1.1", "--output", "/nonexistent/out"],
        ],
        ids=["k-zero-denominator", "gamma-zero-denominator", "c-zero-denominator",
             "c-overflow", "alpha-zero-denominator", "alpha-inf", "alpha-1e400",
             "alpha-nan", "threads-flag", "missing-config", "unwritable-output"],
    )
    def test_exit_64(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert rc == 64
        assert out == "" and err.startswith("usage error:")

    # The last six give phases past 2^52 (inf or nan for |alpha|, |h| = 1e308),
    # where float64 spacing is a whole turn: they once printed nan, or lhs = N.
    # They once also printed numpy's overflow warning, an error here.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [["hb", "verify", "--x", "1" + "0" * 400, "--J", "2"],
         ["singular-series", "--N", "1" + "0" * 400, "--P", "1000"],
         ["expsum", "theorem", "--x", "1000", "--c", "1.1", "--H", "2", "--alpha", "1e308"],
         ["expsum", "bilinear", "--kind", "TypeI", "--x", "100", "--c", "1.1", "--M", "10",
          "--N", "10", "--h", "1", "--alpha", "1e308"],
         ["expsum", "vdc", "--h", "1e308", "--c", "1.1", "--N", "1000"],
         ["expsum", "vdc", "--h=-1e308", "--alpha", "1e308", "--c", "1.1", "--N", "1000"],
         ["expsum", "vdc", "--h", "1e300", "--c", "1.1", "--N", "100000"],
         ["expsum", "vdc", "--h", str(2 ** 52), "--c", "1.1", "--N", "1"]],
        ids=["hb-x", "singular-N", "theorem-phase", "bilinear-phase", "vdc-phase-inf",
             "vdc-phase-nan", "vdc-phase-1e300", "vdc-phase-2^52"],
    )
    def test_integer_beyond_float_range_exit_2(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == "" and err.startswith("infeasible or precondition failure:")

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["ps", "count", "--x", "100", "--c", "1.1"], "format=xml\n"),
            (["expsum", "bilinear", "--kind", "TypeI", "--x", "30", "--c", "1.1",
              "--M", "5", "--N", "5", "--h", "2"], "bn=foo\n"),
            (["expsum", "bilinear", "--kind", "TypeI", "--x", "30", "--c", "1.1",
              "--M", "5", "--N", "5", "--h", "2"], "kind=TypeIII\n"),
            (["exppair", "search", "--max-word-len", "1"], "objective=fastest\n"),
            (["ps", "count", "--x", "100", "--c", "1.1"], "threads=2\n"),
            (["ps", "count", "--x", "100", "--c", "1.1"], "c=nan\n"),
            (["expsum", "theorem", "--x", "1024", "--c", "1.1", "--H", "2", "--scaled"],
             "scaled=ture\n"),
        ],
        ids=["format", "bn", "kind", "objective", "threads", "nan", "bool"],
    )
    def test_config_value_rejected(self, capsys, tmp_path, argv, config):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(config)
        rc, out, err = run(capsys, *argv, "--config", str(cfg))
        assert rc == 64
        assert out == "" and err.startswith("usage error:")

    def test_config_choice_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("format=json\n")
        rc, out, _ = run(capsys, "ps", "count", "--x", "100", "--c", "1.1",
                         "--config", str(cfg))
        assert rc == 0
        assert json.loads(out)["provenance"]["format"] == "json"


# Small in-range values per subcommand; the fuzz test swaps some for the
# adversarial literals and moves some into a config file.
_FUZZ_COMMANDS = {
    ("exppair", "eval"): {"k": "13/84", "l": "55/84", "gamma": "19/20",
                          "delta": "1/100", "seed": "bourgain"},
    ("exppair", "search"): {"seeds": "trivial,bourgain", "max_word_len": "2",
                            "objective": "max_delta", "gamma": "19/20"},
    ("ps", "count"): {"x": "1000", "c": "1.1"},
    ("ps", "ap"): {"x": "1000", "c": "1.2", "q": "7", "a": "3"},
    ("ps", "beatty"): {"x": "1000", "c": "1.2", "alpha": "sqrt2", "beta": "0.3"},
    ("goldbach3",): {"N": "10001", "c1": "1.01", "c2": "1.02", "c3": "1.03"},
    ("singular-series",): {"N": "9", "P": "1000"},
    ("expsum", "theorem"): {"x": "1024", "c": "1.1", "alpha": "sqrt2", "u": "0.25",
                            "H": "2", "scaled": "true"},
    ("expsum", "bilinear"): {"kind": "TypeI", "x": "30", "c": "1.1", "alpha": "0.2",
                             "u": "0.1", "M": "5", "N": "5", "h": "2",
                             "delta": "1", "bn": "log"},
    ("expsum", "vdc"): {"h": "4", "c": "1.1", "alpha": "0.3", "N": "1024"},
    ("expsum", "bprocess"): {"h": "8", "c": "1.1", "N": "1024", "a": "1025",
                             "b": "2000"},
    ("expsum", "vaaler"): {"H": "8"},
    ("hb", "verify"): {"x": "1000", "J": "2", "Z": "50"},
    ("bf", "scan"): {"N": "4096", "c": "1.1", "grid_size": "8"},
}
_ADVERSARIAL = ["1/0", "nan", "inf", "-0", "", "1e400"]


@st.composite
def _fuzz_case(draw):
    cmd = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    argv, config = list(cmd), []
    for key, good in _FUZZ_COMMANDS[cmd].items():
        value = draw(st.sampled_from([good, good, *_ADVERSARIAL]))
        place = draw(st.sampled_from(["argv", "config", "omit"]))
        if place == "config":
            config.append(f"{key}={value}")
        elif place == "argv" and key == "scaled":
            argv.append("--scaled")
        elif place == "argv":
            argv += [f"--{key.replace('_', '-')}", value]
    if draw(st.booleans()):
        config.append(f"format={draw(st.sampled_from(['json', 'csv', *_ADVERSARIAL]))}")
    return argv, config


class TestCliFuzz:
    @settings(max_examples=300, deadline=None)
    @given(case=_fuzz_case())
    def test_no_input_reaches_exit_1(self, tmp_path_factory, case):
        argv, config = case
        if config:
            cfg = tmp_path_factory.mktemp("fuzz") / "cfg.txt"
            cfg.write_text("\n".join(config) + "\n")
            argv = [*argv, "--config", str(cfg)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        assert rc in (0, 2, 64), (argv, config, err.getvalue())


def _frozen_headers():
    """{command: CSV header} from the table of frozen columns in the cli docstring."""
    block = cli.__doc__.split("Frozen CSV columns:\n\n", 1)[1].split("\n\n", 1)[0]
    entries = []
    for line in block.splitlines():
        if line[:19].strip():  # a continuation line is indented past the names
            entries.append([line[:19].split(), ""])
        entries[-1][1] += line[19:]
    out = {}
    for (group, *cmd), header in entries:
        for name in cmd[0].split("|") if cmd else [None]:
            out[(group, name) if name else (group,)] = header
    return out


class TestOutputColumns:
    @pytest.mark.parametrize("cmd", sorted(_FUZZ_COMMANDS), ids=" ".join)
    def test_csv_header_and_json_agree(self, capsys, cmd):
        argv = list(cmd)
        for key, value in _FUZZ_COMMANDS[cmd].items():
            argv += ["--scaled"] if key == "scaled" else [f"--{key.replace('_', '-')}", value]
        rc, csv_out, _ = run(capsys, *argv)
        rc_json, json_out, _ = run(capsys, *argv, "--format", "json")
        assert rc == rc_json == 0
        meta = [l[2:] for l in csv_out.splitlines() if l.startswith("# ")]
        header, *rows = [l for l in csv_out.splitlines() if not l.startswith("# ")]
        # the inputs ask for every optional [...] column (exppair eval --gamma)
        assert header == _frozen_headers()[cmd].replace("[", "").replace("]", "")
        payload = json.loads(json_out)
        assert ",".join(payload["columns"]) == header
        assert [",".join(row) for row in payload["rows"]] == rows
        provenance = {**payload["provenance"], "format": "csv"}
        assert [f"{k}={v}" for k, v in provenance.items()] == meta
