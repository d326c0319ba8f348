import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import ROOT, build_package, empty_graph, matching_graph
from franklbip import bounds, cli, mss, verify
from franklbip.graphs import Seed, parse_graph, sample_bipartite, serialize_graph


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


GRID_TEXT = "m,n,p,delta\n3,3,0.5,0.0\n4,2,0.5,0.1\n2,4,0.8,0.0\n"


class TestSample:
    def test_same_seed_twice_identical(self, capsys, tmp_path):
        a = tmp_path / "a.graph"
        b = tmp_path / "b.graph"
        assert run(capsys, "sample", "-m", "6", "-n", "6", "-p", "0.5",
                   "--seed", "7", "-o", str(a))[0] == 0
        assert run(capsys, "sample", "-m", "6", "-n", "6", "-p", "0.5",
                   "--seed", "7", "-o", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_p_one_all_ones(self, capsys):
        rc, out, err = run(capsys, "sample", "-m", "2", "-n", "3", "-p", "1", "--seed", "0")
        assert rc == 0
        assert out == "2 3\n111\n111\n"
        assert err.startswith("config: ")

    def test_round_trip_against_library(self, capsys, tmp_path):
        path = tmp_path / "g.graph"
        rc, _, _ = run(capsys, "sample", "-m", "4", "-n", "4", "-p", "0.5",
                       "--seed", "1", "-o", str(path))
        assert rc == 0
        from franklbip.graphs import Seed, sample_bipartite

        assert parse_graph(path.read_text()) == sample_bipartite(4, 4, 0.5, Seed(1))

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV, "99")
        _, out1, _ = run(capsys, "sample", "-m", "3", "-n", "3", "-p", "0.5")
        monkeypatch.delenv(cli.SEED_ENV)
        _, out2, _ = run(capsys, "sample", "-m", "3", "-n", "3", "-p", "0.5", "--seed", "99")
        assert out1 == out2


class TestStats:
    def test_matching_three(self, capsys, tmp_path):
        path = tmp_path / "m3.graph"
        path.write_text(serialize_graph(matching_graph(3)))
        rc, out, _ = run(capsys, "stats", str(path))
        assert rc == 0
        assert "total: 8" in out
        assert "left_avg: 3/2" in out
        assert "satisfied" in out

    def test_complete_four_two(self, capsys, tmp_path):
        path = tmp_path / "k42.graph"
        path.write_text("4 2\n11\n11\n11\n11\n")
        rc, out, _ = run(capsys, "stats", str(path))
        assert rc == 0
        assert "total: 2" in out
        assert "left_avg: 2" in out

    def test_empty_graph_vacuous(self, capsys, tmp_path):
        path = tmp_path / "e.graph"
        path.write_text("3 2\n00\n00\n00\n")
        rc, out, _ = run(capsys, "stats", str(path))
        assert rc == 0
        assert "left_avg: 3" in out
        assert "vacuous" in out

    def test_json_format(self, capsys, tmp_path):
        path = tmp_path / "m2.graph"
        path.write_text(serialize_graph(matching_graph(2)))
        rc, out, _ = run(capsys, "stats", str(path), "--format", "json")
        payload = json.loads(out)
        assert payload["stats"]["total"] == "4"
        assert payload["left_avg"] == "1/1"
        assert payload["config"]["subcommand"] == "stats"

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_enumerates_once(self, capsys, tmp_path, monkeypatch, fmt):
        calls = []
        real = mss._impl

        class CountingKernel:
            def scan_stats(self, *args):
                calls.append(args)
                return real.scan_stats(*args)

        monkeypatch.setattr(mss, "_impl", CountingKernel())
        path = tmp_path / "m3.graph"
        path.write_text(serialize_graph(matching_graph(3)))
        rc, _, _ = run(capsys, "stats", str(path), "--format", fmt)
        assert rc == 0
        assert len(calls) == 1

    def test_parse_error_is_io_exit(self, capsys, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("2 2\n1x\n01\n")
        rc, _, err = run(capsys, "stats", str(path))
        assert rc == 1

    def test_missing_file_is_io_exit(self, capsys, tmp_path):
        rc, _, _ = run(capsys, "stats", str(tmp_path / "nothere.graph"))
        assert rc == 1

    def test_files_keep_the_digit_limit(self, capsys, tmp_path):
        # only arguments and the echo take ints past CPython's 4,300 digits;
        # a graph header or grid cell that long is refused as malformed
        huge = "1" + "0" * 5000
        graph = tmp_path / "huge.graph"
        graph.write_text(f"{huge} 2\n")
        rc, _, err = run(capsys, "stats", str(graph))
        assert rc == 1 and "expected two integers" in err
        grid = tmp_path / "huge.csv"
        grid.write_text(f"m,n,p,delta\n{huge},2,0.5,0.0\n")
        rc, _, err = run(capsys, "sweep", str(grid), "--trials", "1")
        assert rc == 1 and "grid line 2: malformed numbers" in err


class TestCap:
    """--cap is the largest scan side, min(m, n), in stats and sweep alike,
    and both kernels refuse the same graphs."""

    @staticmethod
    def empty(tmp_path, side):
        path = tmp_path / f"empty{side}.graph"
        path.write_text(serialize_graph(empty_graph(side, side)))
        return str(path)

    def test_stats_default_is_side_30(self, kernel, capsys, tmp_path):
        path = self.empty(tmp_path, 31)
        rc, out, err = run(capsys, "stats", path)
        assert rc == 3
        assert out == ""
        assert err == "refused: scan side 31 exceeds the cap of 30\n"
        rc, out, _ = run(capsys, "stats", path, "--cap", "31")
        assert rc == 0
        assert "\ntotal: 1\n" in out
        assert '"cap": 31' in out

    def test_stats_cap_stops_at_kernel_limit(self, kernel, capsys, tmp_path):
        rc, out, _ = run(capsys, "stats", self.empty(tmp_path, 62), "--cap", "70")
        assert rc == 0
        assert "\ntotal: 1\n" in out
        rc, out, err = run(capsys, "stats", self.empty(tmp_path, 63), "--cap", "70")
        assert rc == 3
        assert out == ""
        assert err == "refused: scan side 63 exceeds the cap of 62\n"

    def test_sweep_cap_admits_side_31(self, kernel, capsys, tmp_path):
        grid = tmp_path / "grid.csv"
        grid.write_text("m,n,p,delta\n31,31,0.5,0.0\n")
        rc, out, _ = run(capsys, "sweep", str(grid), "--trials", "2", "--seed", "3",
                         "--cap", "40")
        assert rc == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3
        assert lines[2].startswith("average,31,31,0.5,0.0,2,1.0,")
        assert ",informational,3," in lines[2]


class TestVerify:
    def test_mssproba_row(self, capsys):
        rc, out, _ = run(capsys, "verify", "mssproba", "-m", "6", "-n", "6",
                         "-p", "0.5", "--l", "2", "--r", "2",
                         "--trials", "3000", "--seed", "3")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# config: ")
        assert lines[1].startswith("lemma_id,")
        assert lines[2].startswith("mssproba,6,6,")
        assert ",consistent," in lines[2]

    def test_unknown_lemma_usage_exit(self, capsys):
        rc, _, err = run(capsys, "verify", "nosuch", "--trials", "5")
        assert rc == 2

    def test_hypothesis_refusal_exit(self, capsys):
        rc, _, err = run(capsys, "verify", "genupper", "-m", "4", "-n", "3",
                         "-p", "0.5", "--l-star", "1", "--r-star", "1", "--trials", "5")
        assert rc == 3
        assert "refused" in err

    def test_informational_override(self, capsys):
        rc, out, _ = run(capsys, "verify", "genupper", "-m", "4", "-n", "3",
                         "-p", "0.5", "--l-star", "1", "--r-star", "1",
                         "--trials", "5", "--informational", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["reports"][0]["outside_hypothesis"] is True

    def test_missing_parameter_usage_exit(self, capsys):
        rc, _, _ = run(capsys, "verify", "mssproba", "-m", "4", "-n", "4",
                       "-p", "0.5", "--trials", "5")
        assert rc == 2

    def test_missing_parameter_outside_hypothesis_usage_exit(self, capsys):
        rc, _, err = run(capsys, "verify", "genupper", "-m", "4", "-n", "3",
                         "-p", "0.5", "--l-star", "1", "--trials", "5")
        assert rc == 2
        assert "r_star" in err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_usage_exit(self, capsys, trials):
        rc, out, err = run(capsys, "verify", "mssproba", "-m", "4", "-n", "4", "-p", "0.5",
                           "--l", "1", "--r", "1", "--trials", trials)
        assert rc == 2
        assert out == ""
        assert err == "usage error: trials must be >= 1\n"

    def test_trials_over_two_to_the_32_usage_exit(self, capsys, monkeypatch):
        # refused before the first draw, so a sampler that fails the test is
        # never called
        monkeypatch.setattr(verify, "sample_bipartite", None)
        rc, out, err = run(capsys, "verify", "mssproba", "-m", "4", "-n", "4", "-p", "0.5",
                           "--l", "1", "--r", "1", "--trials", "4294967297")
        assert rc == 2
        assert out == ""
        assert err == "usage error: trials must be <= 2^32 = 4294967296\n"

    @pytest.mark.parametrize("lemma,args", [
        ("average", (7, 5, 0.4, 0.05)), ("conjecture", (3, 2, 0.3, 0.1))])
    def test_campaign_rows(self, capsys, lemma, args):
        # `verify average` and `verify conjecture` report what the campaigns report
        m, n, p, delta = map(str, args)
        rc, out, _ = run(capsys, "verify", lemma, "-m", m, "-n", n, "-p", p, "--delta", delta,
                         "--trials", "30", "--seed", "29", "--format", "json")
        assert rc == 0
        campaign = getattr(verify, f"run_{lemma}_campaign")
        want = verify.reports_to_json([campaign(*args, 30, Seed(29))])
        assert json.loads(out)["reports"] == json.loads(want)["reports"]

    def test_json_integer_mean_is_num_over_den(self, capsys):
        rc, out, _ = run(capsys, "verify", "average", "-m", "2", "-n", "4", "-p", "0.8",
                         "--trials", "5", "--seed", "42", "--format", "json")
        assert rc == 0
        assert json.loads(out)["reports"][0]["mean_left_avg"] == "1/1"

    def test_closed_form_overflow_refusal_exit(self, capsys):
        # the genupper bound, 2^2001 (5000 / 2^20)^3 or about e^1371, is past the
        # float range
        rc, out, err = run(capsys, "verify", "genupper", "-m", "2000", "-n", "5000",
                           "-p", "0.5", "--l-star", "20", "--r-star", "3",
                           "--trials", "2", "--informational")
        assert rc == 3
        assert out == ""
        assert err.startswith("refused: closed form out of floating-point range: ")
        assert err.count("\n") == 1


class TestSweep:
    def test_three_rows(self, capsys, tmp_path):
        grid = tmp_path / "grid.csv"
        grid.write_text(GRID_TEXT)
        rc, out, _ = run(capsys, "sweep", str(grid), "--trials", "4", "--seed", "5")
        assert rc == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5  # config + header + 3 rows
        assert lines[1].endswith(",regime")

    def test_json_integer_mean_is_num_over_den(self, capsys, tmp_path):
        grid = tmp_path / "grid.csv"
        grid.write_text(GRID_TEXT)
        rc, out, _ = run(capsys, "sweep", str(grid), "--trials", "5", "--seed", "42",
                         "--format", "json")
        assert rc == 0
        row = json.loads(out)["reports"][2]
        assert (row["m"], row["n"], row["p"], row["mean_left_avg"]) == (2, 4, 0.8, "1/1")

    def test_reruns_byte_identical(self, capsys, tmp_path):
        grid = tmp_path / "grid.csv"
        grid.write_text(GRID_TEXT)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        run(capsys, "sweep", str(grid), "--trials", "4", "--seed", "5", "-o", str(out_a))
        run(capsys, "sweep", str(grid), "--trials", "4", "--seed", "5", "-o", str(out_b))
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_usage_exit(self, capsys, tmp_path, trials):
        grid = tmp_path / "grid.csv"
        grid.write_text(GRID_TEXT)
        rc, out, err = run(capsys, "sweep", str(grid), "--trials", trials)
        assert rc == 2
        assert out == ""
        assert err == "usage error: trials must be >= 1\n"

    def test_bad_alpha_usage_exit(self, capsys, tmp_path):
        grid = tmp_path / "grid.csv"
        grid.write_text(GRID_TEXT)
        rc, out, err = run(capsys, "sweep", str(grid), "--trials", "3", "--alpha", "0.7")
        assert rc == 2
        assert out == ""
        assert err == "usage error: alpha must lie in [1/16, 1/2), got 0.7\n"

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_usage_exit(self, capsys, tmp_path, workers):
        grid = tmp_path / "grid.csv"
        grid.write_text(GRID_TEXT)
        rc, out, err = run(capsys, "sweep", str(grid), "--trials", "3", "--workers", workers)
        assert rc == 2
        assert out == ""
        assert err == f"usage error: workers must be >= 1, got {workers}\n"

    def test_malformed_grid(self, capsys, tmp_path):
        grid = tmp_path / "grid.csv"
        grid.write_text("m,n\n3,3\n")
        rc, _, _ = run(capsys, "sweep", str(grid), "--trials", "2")
        assert rc == 1

    @pytest.mark.parametrize("text,message", [
        ("# a comment alone\n\n", "grid file {grid} is empty"),
        ("m,n,p,delta\n3,3,0.5\n", "grid line 2: expected 4 cells, got 3"),
        ("m,n,p,delta\n3,three,0.5,0\n", "grid line 2: malformed numbers in '3,three,0.5,0'"),
    ], ids=["empty", "cell-count", "malformed-number"])
    def test_grid_refusals(self, capsys, tmp_path, text, message):
        grid = tmp_path / "grid.csv"
        grid.write_text(text)
        rc, out, err = run(capsys, "sweep", str(grid), "--trials", "2")
        assert (rc, out, err) == (1, "", f"error: {message.format(grid=grid)}\n")

    def test_fixture_grid_covers_regimes(self, capsys, tmp_path):
        import pathlib

        fixture = pathlib.Path(__file__).parent / "fixtures" / "regime_grid.csv"
        rc, out, _ = run(capsys, "sweep", str(fixture), "--trials", "2", "--seed", "9")
        assert rc == 0
        rows = out.strip().split("\n")[2:]
        regimes = {row.rsplit(",", 1)[1] for row in rows}
        assert regimes == {
            "ConstantRight", "LargeLeft", "Balanced", "HoeffdingBand",
            "EntropyBand", "GiganticRight", "MatchingSaturated",
        }


def test_verify_params_cover_every_check():
    needed = {name for spec in verify._CHECKS.values() for name in spec.needs}
    assert needed <= set(cli.VERIFY_PARAMS)


class TestRegime:
    def test_constant_right_example(self, capsys):
        rc, out, _ = run(capsys, "regime", "-m", "100", "-n", "10", "-p", "0.5")
        assert rc == 0
        assert "regime: ConstantRight" in out

    def test_gigantic_right_example(self, capsys):
        rc, out, _ = run(capsys, "regime", "-m", "20", "-n", str(2 ** 40), "-p", "0.5")
        assert rc == 0
        assert "regime: GiganticRight" in out

    def test_json_derived_quantities(self, capsys):
        rc, out, _ = run(capsys, "regime", "-m", "2", "-n", str(2 ** 30), "-p", "0.5",
                         "--format", "json")
        payload = json.loads(out)
        assert payload["regime"] == "MatchingSaturated"
        assert payload["a"] == 30
        assert payload["thresholds"]["m^3"] == 8.0

    def test_n_past_float_range(self, capsys):
        # n = 10^400 cannot be a float; a and a' come from the int n, and
        # 10^400 is (1/q)^400 exactly, so a is 400
        rc, out, err = run(capsys, "regime", "-m", "4", "-n", str(10 ** 400), "-p", "0.9")
        assert (rc, err) == (0, "")
        assert "regime: MatchingSaturated" in out
        assert "a: 400  b: 0  a_prime: 399  " in out

    def test_band_edge_on_a_power_of_one_over_q(self, capsys):
        # 1000 = (1/q)^3 exactly at p = .9, so log_{1/q}(n) reaches m/16 = 3
        rc, out, err = run(capsys, "regime", "-m", "48", "-n", "1000", "-p", "0.9")
        assert (rc, err) == (0, "")
        assert "regime: EntropyBand" in out
        assert "a: 3  " in out

    def test_logs_and_floors_read_one_q(self, capsys):
        # q is 10^-16 for the decimal p and 2^-53 for the float, so a log
        # taken with the float's q read 1.0028... beside a = 0
        rc, out, err = run(capsys, "regime", "-m", "1", "-n", "9999999999999999",
                           "-p", "0.9999999999999999")
        assert (rc, err) == (0, "")
        assert "log_1/q(n): 1.0  " in out
        assert "a: 0  b: 0  a_prime: 0  lambda: 1.0\n" in out

    def test_a_exact_just_below_a_power_of_two(self, capsys):
        # log_2(2^50 - 1) is 50 in floats; a is the exact floor
        rc, out, err = run(capsys, "regime", "-m", "4", "-n", str((1 << 50) - 1), "-p", "0.5")
        assert (rc, err) == (0, "")
        assert "a: 49  b: 2  a_prime: 45  " in out

    def test_balanced_with_n_past_float_range(self, capsys):
        # n^(1/5) decides the band here, and float(2^1100) would overflow
        rc, out, err = run(capsys, "regime", "-m", str(10 ** 16), "-n", str(1 << 1100),
                           "-p", "0.5")
        assert (rc, err) == (0, "")
        assert "regime: Balanced" in out
        assert "a: 1100  b: 53  a_prime: -  " in out

    def test_n_past_the_digit_limit(self, capsys):
        # CPython converts at most 4,300 digits between int and text by
        # default; the CLI parses and echoes n whole, and restores the limit
        limit = sys.get_int_max_str_digits()
        rc, out, err = run(capsys, "regime", "-m", "4", "-n", "1" + "0" * 5000, "-p", "0.9")
        assert (rc, err) == (0, "")
        assert "regime: MatchingSaturated" in out
        assert "a: 5000  b: 0  a_prime: 4999  " in out
        assert f'"n": 1{"0" * 5000}, "p": 0.9, ' in out
        rc, out, err = run(capsys, "regime", "-m", "4", "-n", "1" + "0" * 5000, "-p", "0.9",
                           "--format", "json")
        assert (rc, err) == (0, "")
        assert f'"n": 1{"0" * 5000},' in out and '"a": 5000,' in out
        assert sys.get_int_max_str_digits() == limit

    def test_range_error_usage_exit(self, capsys):
        rc, _, _ = run(capsys, "regime", "-m", "0", "-n", "3", "-p", "0.5")
        assert rc == 2

    def test_no_delta_flag(self, capsys):
        # the band edges depend on --alpha only
        rc, out, err = run(capsys, "regime", "-m", "20", "-n", "512", "-p", "0.5",
                           "--delta", "0.1")
        assert rc == 2
        assert out == ""
        assert "unrecognized arguments: --delta 0.1" in err


class TestFrankl:
    def test_closure_and_check(self, capsys, tmp_path):
        fam = tmp_path / "fam.txt"
        fam.write_text("0\n1\n")
        rc, out, _ = run(capsys, "frankl", str(fam), "--closure")
        assert rc == 0
        assert "members: 3" in out
        assert "frequency: 2/3" in out
        assert "satisfied: true" in out

    def test_not_closed_without_flag(self, capsys, tmp_path):
        fam = tmp_path / "fam.txt"
        fam.write_text("0\n1\n")
        rc, _, err = run(capsys, "frankl", str(fam))
        assert rc == 2
        assert "union-closed" in err

    def test_json(self, capsys, tmp_path):
        fam = tmp_path / "fam.txt"
        fam.write_text("\n".join(
            ",".join(str(v) for v in range(4) if mask >> v & 1) or "-"
            for mask in range(1, 16)
        ) + "\n")
        rc, out, _ = run(capsys, "frankl", str(fam), "--format", "json")
        payload = json.loads(out)
        assert payload["frequency"] == "8/15"
        assert payload["satisfied"] is True

    def test_parse_error(self, capsys, tmp_path):
        fam = tmp_path / "fam.txt"
        # an element past the ground cap is malformed input too, not a usage error
        for text, line in (("a,b\n", 1), ("1\n0,62\n", 2), ("-1\n", 1)):
            fam.write_text(text)
            rc, _, err = run(capsys, "frankl", str(fam))
            assert rc == 1, text
            assert err.startswith(f"error: line {line}: "), err


# Runs in a child: the subcommands given as JSON lists on its command line,
# one after the other, then their exit codes, which kernel ran and which of
# numpy, concurrent.futures, dataclasses and the franklbip modules were imported,
# as the last line of its stdout.
CHILD = """
import json, sys
from franklbip import cli, graphs
codes = [cli.main(argv) for argv in map(json.loads, sys.argv[1:])]
print(json.dumps({"codes": codes, "kernel": graphs.KERNEL, "modules": sorted(
    name for name in sys.modules
    if name in ("numpy", "concurrent.futures", "dataclasses")
    or name.startswith("franklbip."))}))
"""
# put before CHILD, it makes every import of numpy fail
WITHOUT_NUMPY = "import sys\nsys.modules['numpy'] = None\n"
# put before CHILD, it prints at exit, as the last line of stderr, the JSON
# list of the source files that imports compiled rather than loaded as bytecode
FROM_SOURCE = """
import atexit, importlib.machinery, json, sys
from_source, to_code = [], importlib.machinery.SourceFileLoader.source_to_code
def source_to_code(self, data, path, *args, **kwargs):
    from_source.append(path)
    return to_code(self, data, path, *args, **kwargs)
importlib.machinery.SourceFileLoader.source_to_code = source_to_code
atexit.register(lambda: print(json.dumps(from_source), file=sys.stderr))
"""
SAMPLE = ["sample", "-m", "9", "-n", "70", "-p", "0.4", "--seed", "5", "-o"]
# what `import franklbip.cli` loads from a compiled build; each subcommand adds
# only the modules it runs.  graphs, bounds and setfamily define no
# dataclass, so `sample`, `regime` and `frankl` run without the dataclasses
# module; mss and verify import it for MssStats and BoundReport.
CLI_MODULES = ["franklbip._kernels", "franklbip._pykernels", "franklbip.cli",
               "franklbip.graphs"]
CAMPAIGN_MODULES = ["dataclasses", "franklbip.bounds", "franklbip.mss", "franklbip.verify"]


class TestCompiledBuild:
    """The CLI run from a full build, as an installed package runs it, each
    time in a fresh interpreter, so only what a subcommand imports is loaded."""

    @staticmethod
    def env(compiled_build, pure=False):
        # no child writes bytecode, so each one sees the build as it was built
        env = {k: v for k, v in os.environ.items() if k != "FRANKLBIP_PURE_PYTHON"}
        env["PYTHONPATH"] = str(compiled_build)
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        if pure:
            env["FRANKLBIP_PURE_PYTHON"] = "1"
        return env

    @classmethod
    def child(cls, compiled_build, *argvs, pure=False, prelude=""):
        """CHILD's summary, with the subcommands' own stdout under "stdout"
        and the child's stderr under "stderr"."""
        proc = subprocess.run([sys.executable, "-c", prelude + CHILD, *map(json.dumps, argvs)],
                              env=cls.env(compiled_build, pure), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        *out, last = proc.stdout.splitlines(keepends=True)
        return {**json.loads(last), "stdout": "".join(out), "stderr": proc.stderr}

    def test_every_subcommand_runs_from_bytecode(self, compiled_build, tmp_path):
        package = compiled_build / "franklbip"
        sources = sorted(package.glob("*.py"))
        assert [path.name for path in sources
                if not Path(importlib.util.cache_from_source(path)).is_file()] == []
        graph, grid, family = tmp_path / "g.graph", tmp_path / "grid.csv", tmp_path / "fam.txt"
        grid.write_text(GRID_TEXT)
        family.write_text("0\n1,2\n")
        argvs = [SAMPLE + [str(graph)], ["stats", str(graph)],
                 ["regime", "-m", "20", "-n", "1048576", "-p", "0.5"],
                 ["verify", "mssproba", "-m", "4", "-n", "4", "-p", "0.5", "--l", "1", "--r", "1",
                  "--trials", "5"],
                 ["frankl", str(family), "--closure"], ["sweep", str(grid), "--trials", "2"]]
        res = self.child(compiled_build, *argvs, prelude=FROM_SOURCE)
        assert res["codes"] == [0] * len(argvs)
        assert {"franklbip." + path.stem for path in sources} - {"franklbip.__init__"} \
            <= set(res["modules"])
        from_source = json.loads(res["stderr"].splitlines()[-1])
        assert [path for path in from_source if path.startswith(str(package))] == []

    def test_build_ships_no_c_source(self, compiled_build):
        # the compiled extension stands in for _kernels.c, which stays in src/
        assert [path.name for path in compiled_build.rglob("*.c")] == []

    def test_edited_module_is_compiled_again(self, compiled_build, tmp_path):
        # the copy keeps graphs.py's mtime, so only the size tells its .pyc
        # that the source changed
        lib = tmp_path / "lib"
        shutil.copytree(compiled_build, lib)
        source = lib / "franklbip" / "graphs.py"
        assert Path(importlib.util.cache_from_source(source)).is_file()
        stat = source.stat()
        with source.open("a") as fh:
            fh.write('\nEDITED = "after the build"\n')
        os.utime(source, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        proc = subprocess.run([sys.executable, "-c", "from franklbip import graphs; "
                               "print(graphs.EDITED)"],
                              env=self.env(lib), capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "after the build\n"), proc.stderr

    def test_build_writes_nothing_into_src(self, tmp_path):
        # perfbench names its build by a digest of src/, which the build must
        # not change
        def files():
            return {path.relative_to(ROOT / "src"): path.is_file() and path.read_bytes()
                    for path in (ROOT / "src").rglob("*")}

        before = files()
        build_package(tmp_path)
        assert files() == before

    def test_numpy_stays_unimported(self, compiled_build, tmp_path):
        graph = tmp_path / "g.graph"
        res = self.child(compiled_build, SAMPLE + [str(graph)], ["stats", str(graph)],
                         ["stats", str(graph), "--format", "json"])
        assert res["codes"] == [0, 0, 0]
        assert res["kernel"] == "compiled"
        assert "numpy" not in res["modules"]

    def test_pure_python_sample_same_bytes(self, compiled_build, tmp_path):
        outputs = []
        for pure, kernel in ((False, "compiled"), (True, "python")):
            graph = tmp_path / f"pure-{pure}.graph"
            res = self.child(compiled_build, SAMPLE + [str(graph)], pure=pure)
            assert (res["codes"], res["kernel"]) == ([0], kernel)
            assert "numpy" not in res["modules"]
            outputs.append(graph.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith(b"9 70\n")

    def test_pure_python_runs_without_numpy(self, compiled_build, tmp_path):
        graph, grid, family = tmp_path / "g.graph", tmp_path / "grid.csv", tmp_path / "fam.txt"
        graph.write_text(serialize_graph(sample_bipartite(7, 9, 0.5, Seed(3))))
        grid.write_text(GRID_TEXT)
        family.write_text("0\n1,2\n3\n")
        argvs = [SAMPLE[:-1], ["stats", str(graph), "--format", "json"],
                 ["verify", "mssproba", "-m", "5", "-n", "6", "-p", "0.4", "--l", "2", "--r",
                  "2", "--trials", "30", "--seed", "8"],
                 ["verify", "average", "-m", "6", "-n", "70", "-p", "0.5", "--trials", "20"],
                 ["sweep", str(grid), "--trials", "4", "--workers", "2", "--seed", "9"],
                 ["frankl", str(family), "--closure", "--format", "json"]]
        compiled = self.child(compiled_build, *argvs)
        pure = self.child(compiled_build, *argvs, pure=True, prelude=WITHOUT_NUMPY)
        assert compiled["codes"] == pure["codes"] == [0] * len(argvs)
        assert (compiled["kernel"], pure["kernel"]) == ("compiled", "python")
        assert pure["stdout"] == compiled["stdout"]
        assert compiled["stdout"].startswith("9 70\n")

    @pytest.mark.parametrize("argv,added", [
        ([], []),
        (["sample", "-m", "4", "-n", "5", "-p", "0.5"], []),
        (["stats", "{graph}"], ["dataclasses", "franklbip.mss"]),
        (["stats", "{graph}", "--format", "json"], ["dataclasses", "franklbip.mss"]),
        (["frankl", "{family}", "--closure"], ["franklbip.setfamily"]),
        (["verify", "mssproba", "-m", "4", "-n", "4", "-p", "0.5", "--l", "1", "--r", "1",
          "--trials", "5"], CAMPAIGN_MODULES),
        (["regime", "-m", "20", "-n", "1048576", "-p", "0.5"], ["franklbip.bounds"]),
        (["sweep", "{grid}", "--trials", "2"], CAMPAIGN_MODULES),
        (["sweep", "{grid}", "--trials", "2", "--workers", "2"],
         ["concurrent.futures", *CAMPAIGN_MODULES]),
    ], ids=["import", "sample", "stats", "stats-json", "frankl", "verify", "regime", "sweep",
            "sweep-2-workers"])
    def test_subcommand_imports_only_what_it_runs(self, compiled_build, tmp_path, argv, added):
        files = {"graph": tmp_path / "g.graph", "family": tmp_path / "fam.txt",
                 "grid": tmp_path / "grid.csv"}
        files["graph"].write_text(serialize_graph(matching_graph(3)))
        files["family"].write_text("0\n1\n")
        files["grid"].write_text(GRID_TEXT)
        argv = [arg.format(**files) for arg in argv]
        res = self.child(compiled_build, *([argv] if argv else []))
        assert res["codes"] == ([0] if argv else [])
        assert res["modules"] == sorted(CLI_MODULES + added)

    @pytest.mark.parametrize("argv,code,message", [
        (["stats", "{empty31}"], 3, "refused: scan side 31 exceeds the cap of 30"),
        (["verify", "genupper", "-m", "4", "-n", "3", "-p", "0.5", "--l-star", "1",
          "--r-star", "1", "--trials", "5"], 3, "refused: n * q^ell_star = 1.5 > 1/2"),
        (["frankl", "{badfamily}"], 1, "error: "),
        (["sample", "-m", "0", "-n", "3", "-p", "0.5"], 2,
         "usage error: need m >= 1 and n >= 1, got m=0, n=3"),
        (["sweep", "{grid}", "--trials", "3", "--alpha", "0.7"], 2,
         "usage error: alpha must lie in [1/16, 1/2), got 0.7"),
        # the event needs a', so an undefined a' refuses even with --informational
        (["verify", "lem.hoeffding.exp", "-m", "4", "-n", "2", "-p", "0.9", "--trials", "5",
          "--informational"], 3, "refused: n is below m^log_{1/q}(m); a' undefined"),
        (["verify", "asymptotic.lower.bound", "-m", "4", "-n", "2", "-p", "0.9", "--phi",
          "0.5", "--trials", "5"], 3, "refused: n is below m^log_{1/q}(m); a' undefined"),
        # the event reads the histogram at a', so an a' past m refuses in either mode too
        (["verify", "lem.hoeffding.exp", "-m", "4", "-n", "100000", "-p", "0.5", "--trials", "2",
          "--informational"], 3, "refused: a' = 12 exceeds m = 4\n"),
        (["verify", "asymptotic.lower.bound", "-m", "4", "-n", "10000", "-p", "0.3", "--phi",
          "0.5", "--trials", "2", "--informational"], 3, "refused: a' = 10 exceeds m = 4\n"),
        (["verify", "lem.hoeffding.exp", "-m", "1", "-n", "5", "-p", "0.5", "--trials", "2",
          "--informational"], 3, "refused: a' = 2 exceeds m = 1\n"),
        # squpperbound's hypothesis reads alpha, so it refuses it in either mode
        (["verify", "squpperbound", "-m", "10", "-n", "16", "-p", "0.5", "--alpha", "5",
          "--trials", "3"], 2, "usage error: alpha must lie in [1/16, 1/2), got 5.0"),
        (["verify", "squpperbound", "-m", "10", "-n", "16", "-p", "0.5", "--alpha", "5",
          "--trials", "3", "--informational"], 2,
         "usage error: alpha must lie in [1/16, 1/2), got 5.0"),
        (["stats", "{matching}", "--delta=inf"], 2, "usage error: delta must be finite, got inf"),
        (["stats", "{matching}", "--delta=nan"], 2, "usage error: delta must be finite, got nan"),
        # a side past a C ssize_t is a bad value, not a closed form's overflow
        (["sample", "-m", "99999999999999999999", "-n", "2", "-p", "0.5"], 2,
         "usage error: need m <= 9223372036854775807"),
        (["verify", "constrightside", "-m", "99999999999999999999", "-n", "2", "-p", "0.5",
          "--trials", "2"], 2, "usage error: need m <= 9223372036854775807"),
        # each row refuses in its setup, before the value it refuses is built
        (["verify", "veryverylargeside", "-m", "4611686018427387904", "-n", "40", "-p", "0.5",
          "--trials", "1", "--informational"], 3, "refused: scan side 40 exceeds the cap of 30"),
        *((["verify", "mssproba", "-m", "4", "-n", "4", "-p", "0.5", "--r", "1", "--trials", "3",
            "--l", ell], 2, f"usage error: (ell, r)=({ell}, 1) out of range for (4, 4)\n")
          for ell in ("-1", "4611686018427387904", "1" + "0" * 30)),
        # a side under the cap whose 2^m cannot be built
        (["verify", "veryverylargeside", "-m", "4611686018427387904", "-n", "4", "-p", "0.5",
          "--trials", "1", "--informational"], 3, "refused: does not fit in memory: "),
    ], ids=["stats-cap", "verify-refused", "frankl-malformed", "sample-zero-side",
            "sweep-bad-alpha", "hoeffding-a-prime-informational", "asymptotic-a-prime",
            "hoeffding-a-prime-past-m", "asymptotic-a-prime-past-m", "hoeffding-a-prime-m-plus-one",
            "squpperbound-bad-alpha", "squpperbound-bad-alpha-informational",
            "stats-delta-inf", "stats-delta-nan", "sample-side-past-ssize-t",
            "verify-side-past-ssize-t", "veryverylargeside-cap-first", "mssproba-l-negative",
            "mssproba-l-huge", "mssproba-l-past-digits", "veryverylargeside-memory"])
    def test_exit_codes(self, compiled_build, tmp_path, argv, code, message):
        # the error class is raised by a module main() never imported itself
        files = {"empty31": tmp_path / "e31.graph", "badfamily": tmp_path / "bad.txt",
                 "grid": tmp_path / "grid.csv", "matching": tmp_path / "m3.graph"}
        files["empty31"].write_text(serialize_graph(empty_graph(31, 31)))
        files["matching"].write_text(serialize_graph(matching_graph(3)))
        files["badfamily"].write_text("a,b\n")
        files["grid"].write_text(GRID_TEXT)
        proc = subprocess.run(
            [sys.executable, "-m", "franklbip.cli", *(arg.format(**files) for arg in argv)],
            env=self.env(compiled_build), capture_output=True, text=True)
        assert proc.returncode == code
        assert proc.stdout == ""
        assert proc.stderr.startswith(message)
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("pure", [False, True], ids=["compiled", "python"])
    @pytest.mark.parametrize("argv", [
        ["average", "-m", "4611686018427387904", "-n", "4", "-p", "0.5", "--delta", "0.1"],
        # a row of 2^62 bits: the twin allocates its bytes before it draws
        ["average", "-m", "4", "-n", "4611686018427387904", "-p", "0.5", "--delta", "0.1"],
        # k! past the float range is taken in log space, and the k x k draw
        # then refuses
        ["indmatchings", "--k", "4611686018427387904", "-p", "0.5", "--informational"],
    ], ids=["average-rows", "average-row-width", "indmatchings-k"])
    def test_draws_past_memory_refuse_at_once(self, compiled_build, argv, pure):
        # both kernels size a draw's rows before drawing them; a hang is a
        # failure, through the timeout
        proc = subprocess.run([sys.executable, "-m", "franklbip.cli", "verify", *argv,
                               "--trials", "1"], env=self.env(compiled_build, pure),
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == "refused: does not fit in memory: MemoryError\n"


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert cli.main([]) == 2

    def test_defaults_are_the_module_constants(self):
        parse = cli.build_parser().parse_args
        stats = parse(["stats", "g.graph"])
        sweep = parse(["sweep", "grid.csv", "--trials", "1"])
        verify_ = parse(["verify", "average", "--trials", "1"])
        regime = parse(["regime", "-m", "2", "-n", "2", "-p", "0.5"])
        assert stats.cap is mss.DEFAULT_CAP and sweep.cap is mss.DEFAULT_CAP
        for args in (verify_, sweep, regime):
            assert args.alpha is bounds.DEFAULT_ALPHA

    def test_bad_flag(self, capsys):
        assert cli.main(["sample", "--bogus"]) == 2
