"""Golden outputs of every named check and of a sweep, on both kernels, and
of every `franklbip` subcommand.

tests/fixtures/verify_golden.json holds the CSV and JSON text of each check,
campaign and sweep case below; a refusal is recorded as its exception text.
tests/fixtures/regime_golden.json holds the table and JSON text of `regime`
for each point of tests/fixtures/regime_grid.csv (one per band) and for one
non-default alpha.  tests/fixtures/cli_golden.json holds the table and JSON
text of `stats` and `frankl` on the graph and family files beside it, and the
stdout and stderr of `sample`, `verify` and `sweep` calls.  To
record the three fixtures again after an intended output change, run

    PYTHONPATH=src python tests/test_golden.py

which prints the name of every case whose recorded bytes changed.
"""

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import pytest

from conftest import strict_json
from franklbip import cli, verify
from franklbip.graphs import Seed

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE = FIXTURES / "verify_golden.json"
REGIME_FIXTURE = FIXTURES / "regime_golden.json"
CLI_FIXTURE = FIXTURES / "cli_golden.json"

# name -> (check id, params, trials, seed, strict)
LEMMA_CASES = {
    "mssproba": ("mssproba", {"m": 6, "n": 6, "p": 0.5, "ell": 2, "r": 2}, 400, 11, True),
    "genupper": ("genupper", {"m": 8, "n": 2, "p": 0.5, "ell_star": 3, "r_star": 1},
                 200, 12, True),
    "indmatchings": ("indmatchings", {"k": 3, "p": 0.5, "delta": 0.1}, 500, 13, True),
    "constrightside": ("constrightside", {"m": 6, "n": 2, "p": 0.5}, 500, 14, True),
    "veryverylargeside": ("veryverylargeside", {"m": 3, "n": 24, "p": 0.5}, 40, 15, True),
    "largeleftupper": ("largeleftupper", {"m": 16, "n": 6, "p": 0.5}, 20, 16, True),
    "squpperbound": ("squpperbound", {"m": 10, "n": 16, "p": 0.5, "alpha": 0.45},
                     20, 17, True),
    "superpoly": ("superpoly.lower.bound", {"m": 12, "n": 12, "p": 0.9}, 60, 18, True),
    "hoeffding": ("lem.hoeffding.exp", {"m": 4, "n": 100, "p": 0.9}, 40, 19, True),
    "asymptotic": ("asymptotic.lower.bound", {"m": 4, "n": 100, "p": 0.9, "phi": 0.5},
                   40, 20, True),
    # outside the hypothesis, run with strict=False
    "genupper-outside": ("genupper", {"m": 4, "n": 3, "p": 0.5, "ell_star": 1, "r_star": 1},
                         50, 21, False),
    "largeleftupper-outside": ("largeleftupper", {"m": 3, "n": 40, "p": 0.5}, 20, 22, False),
    "squpperbound-outside": ("squpperbound", {"m": 4, "n": 3000, "p": 0.5}, 5, 23, False),
    "superpoly-outside": ("superpoly.lower.bound", {"m": 4, "n": 4, "p": 0.5}, 30, 24, False),
    "hoeffding-outside": ("lem.hoeffding.exp", {"m": 4, "n": 4, "p": 0.9}, 30, 25, False),
    "asymptotic-outside": ("asymptotic.lower.bound",
                           {"m": 4, "n": 1000, "p": 0.9, "phi": 0.5}, 30, 26, False),
    # a' undefined: refused even with strict=False
    "hoeffding-refused": ("lem.hoeffding.exp", {"m": 4, "n": 2, "p": 0.9}, 5, 27, False),
    "asymptotic-refused": ("asymptotic.lower.bound", {"m": 4, "n": 1, "p": 0.9, "phi": 0.5},
                           5, 28, False),
}

# name -> (campaign function, m, n, p, delta, trials, seed)
CAMPAIGN_CASES = {
    "average": ("run_average_campaign", 7, 5, 0.4, 0.05, 30, 29),
    "conjecture": ("run_conjecture_campaign", 3, 2, 0.3, 0.1, 40, 30),
}

# a cap refusal, a regime refusal (p = 1 is not interior) and mixed shapes
SWEEP_GRID = [(3, 3, 0.5, 0.0), (4, 2, 0.5, 0.1), (10, 8, 0.3, 0.05), (31, 31, 0.5, 0.0),
              (3, 3, 1.0, 0.0), (2, 4, 0.8, 0.0)]
SWEEP_TRIALS, SWEEP_SEED, SWEEP_WORKERS = 5, 42, 2


def render(name):
    if name == "sweep":
        reports = verify.sweep(SWEEP_GRID, SWEEP_TRIALS, Seed(SWEEP_SEED),
                               workers=SWEEP_WORKERS)
        return {"csv": verify.reports_to_csv(reports, with_regime=True),
                "json": verify.reports_to_json(reports)}
    if name in CAMPAIGN_CASES:
        campaign, *args, seed = CAMPAIGN_CASES[name]
        report = getattr(verify, campaign)(*args, Seed(seed))
        return {"csv": verify.reports_to_csv([report]),
                "json": verify.reports_to_json([report])}
    lemma, params, trials, seed, strict = LEMMA_CASES[name]
    try:
        report = verify.verify_lemma(lemma, dict(params), trials, Seed(seed), strict=strict)
    except verify.HypothesisViolation as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"csv": verify.reports_to_csv([report]), "json": verify.reports_to_json([report])}


CASE_NAMES = [*LEMMA_CASES, *CAMPAIGN_CASES, "sweep"]

# name -> `franklbip regime` arguments
REGIME_CASES = {
    f"{m}x{n}@{p}": ("-m", m, "-n", n, "-p", p)
    for m, n, p, _ in (line.split(",") for line in
                       (FIXTURES / "regime_grid.csv").read_text().split()[1:])
}
# alpha = 0.49 moves this point from EntropyBand to GiganticRight
REGIME_CASES["20x1024@0.5-alpha0.49"] = ("-m", "20", "-n", "1024", "-p", "0.5",
                                         "--alpha", "0.49")


# name -> `franklbip` arguments; the files are named relative to FIXTURES,
# so the echoed path is the same on every checkout
CLI_CASES = {
    "stats-sampled": ("stats", "sampled_6x5.graph", "--cap", "40", "--delta", "0.1"),
    # left averages 1 and 3; the edgeless graph is vacuous
    "stats-complete": ("stats", "complete_2x2.graph"),
    "stats-empty": ("stats", "empty_3x2.graph"),
    # element 0 lies in every member: frequency 1
    "frankl-chain": ("frankl", "chain.family"),
    "frankl-closure": ("frankl", "generators.family", "--closure"),
}


# name -> full `franklbip` arguments of a call recorded as its stdout and
# stderr; sweep_grid.csv holds SWEEP_GRID, so it has a cap refusal and a p = 1 row
CALL_CASES = {
    # the echo goes to stderr, so stdout stays a graph
    "sample": ("sample", "-m", "5", "-n", "4", "-p", "0.5", "--seed", "7"),
    "verify-csv": ("verify", "mssproba", "-m", "6", "-n", "6", "-p", "0.5", "--l", "2",
                   "--r", "2", "--trials", "100", "--seed", "11"),
    "verify-json": ("verify", "genupper", "-m", "8", "-n", "2", "-p", "0.5", "--l-star", "3",
                    "--r-star", "1", "--trials", "50", "--seed", "12", "--format", "json"),
    "verify-indmatchings": ("verify", "indmatchings", "--k", "3", "-p", "0.5", "--delta",
                            "0.1", "--trials", "100", "--seed", "13"),
    "verify-informational": ("verify", "asymptotic.lower.bound", "-m", "4", "-n", "1000",
                             "-p", "0.9", "--phi", "0.5", "--alpha", "0.3", "--trials", "30",
                             "--seed", "26", "--informational"),
    # p^n underflows to 0, so claimed and ci are 0.0
    "verify-constrightside-underflow": ("verify", "constrightside", "-m", "10", "-n", "2000",
                                        "-p", "0.5", "--trials", "3", "--seed", "14"),
    "sweep-csv-1": ("sweep", "sweep_grid.csv", "--trials", "5", "--seed", "42"),
    "sweep-csv-2": ("sweep", "sweep_grid.csv", "--trials", "5", "--seed", "42",
                    "--workers", "2"),
    "sweep-json": ("sweep", "sweep_grid.csv", "--trials", "5", "--seed", "42", "--cap", "9",
                   "--format", "json"),
}


def render_call(argv):
    with contextlib.chdir(FIXTURES), contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        assert cli.main(list(argv)) == 0
    return {"stdout": out.getvalue(), "stderr": err.getvalue()}


def render_cli(argv):
    out = {}
    for fmt in ("table", "json"):
        with contextlib.chdir(FIXTURES), contextlib.redirect_stdout(io.StringIO()) as buf:
            assert cli.main([*argv, "--seed", "0", "--format", fmt]) == 0
        out[fmt] = buf.getvalue()
    return out


def render_regime(name):
    return render_cli(("regime", *REGIME_CASES[name]))


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", CASE_NAMES)
def test_output_matches_golden(kernel, golden, name):
    assert render(name) == golden[name]


def test_cases_cover_every_check(golden):
    lemmas = {case[0] for case in LEMMA_CASES.values()} | set(CAMPAIGN_CASES)
    assert lemmas == set(verify.known_lemmas())
    assert sorted(golden) == sorted(CASE_NAMES)


def test_json_is_strict(golden):
    for case in golden.values():
        if "json" in case:
            strict_json(case["json"])


@pytest.fixture(scope="module")
def regime_golden():
    return json.loads(REGIME_FIXTURE.read_text())


@pytest.mark.parametrize("name", REGIME_CASES)
def test_regime_matches_golden(regime_golden, name):
    assert render_regime(name) == regime_golden[name]


def test_regime_cases_cover_every_band(regime_golden):
    tags = {json.loads(case["json"])["regime"] for case in regime_golden.values()}
    assert tags == {tag.value for tag in verify.Regime}
    assert sorted(regime_golden) == sorted(REGIME_CASES)


@pytest.fixture(scope="module")
def cli_golden():
    return json.loads(CLI_FIXTURE.read_text())


@pytest.mark.parametrize("name", CLI_CASES)
def test_cli_matches_golden(kernel, cli_golden, name):
    assert render_cli(CLI_CASES[name]) == cli_golden[name]


@pytest.mark.parametrize("name", CALL_CASES)
def test_cli_call_matches_golden(kernel, cli_golden, name):
    assert render_call(CALL_CASES[name]) == cli_golden[name]


def test_cli_cases_are_recorded(cli_golden):
    assert sorted(cli_golden) == sorted([*CLI_CASES, *CALL_CASES])
    for name in CLI_CASES:
        strict_json(cli_golden[name]["json"])
    for name, argv in CALL_CASES.items():
        if "json" in argv:
            strict_json(cli_golden[name]["stdout"])


def test_sweep_call_is_the_same_for_any_worker_count(cli_golden):
    assert cli_golden["sweep-csv-1"] == cli_golden["sweep-csv-2"]


def negative_zeros(text):
    """The negative zeros among the numbers of text read as JSON, or else
    among its cells read as CSV."""
    found = []

    def number(literal):
        if literal.startswith("-") and float(literal) == 0:
            found.append(literal)
        return literal

    try:
        json.loads(text, parse_int=number, parse_float=number)
    except ValueError:
        for row in csv.reader(io.StringIO(text)):
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                if value == 0 and math.copysign(1.0, value) < 0:
                    found.append(cell)
    return found


def test_no_negative_zero_is_recorded():
    assert negative_zeros("x,y\n-0.0,0.0\n") == negative_zeros('{"x": [-0.0, 0]}') == ["-0.0"]
    for path in sorted(FIXTURES.glob("*_golden.json")):
        for name, case in json.loads(path.read_text()).items():
            for key, text in case.items():
                assert not negative_zeros(text), (path.name, name, key)


def record(path, rendered):
    """Write the fixture and print the names of the cases whose bytes changed."""
    old = json.loads(path.read_text()) if path.exists() else {}
    for name in sorted(old.keys() | rendered.keys()):
        if old.get(name) != rendered.get(name):
            print(f"{path.name}: {name}")
    path.write_text(json.dumps(rendered, indent=1) + "\n")


if __name__ == "__main__":
    record(FIXTURE, {name: render(name) for name in CASE_NAMES})
    record(REGIME_FIXTURE, {name: render_regime(name) for name in REGIME_CASES})
    record(CLI_FIXTURE, {**{name: render_cli(argv) for name, argv in CLI_CASES.items()},
                         **{name: render_call(argv) for name, argv in CALL_CASES.items()}})
