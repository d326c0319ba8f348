"""Golden outputs of every named check and of a sweep, on both kernels, and
of `franklbip regime`.

tests/fixtures/verify_golden.json holds the CSV and JSON text of each check,
campaign and sweep case below; a refusal is recorded as its exception text.
tests/fixtures/regime_golden.json holds the table and JSON text of `regime`
for each point of tests/fixtures/regime_grid.csv (one per band) and for one
non-default alpha.  To record both fixtures again after an intended output
change, run

    PYTHONPATH=src python tests/test_golden.py

which prints the name of every case whose recorded bytes changed.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from conftest import strict_json
from franklbip import _pykernels, cli, graphs, mss, verify
from franklbip.graphs import Seed

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE = FIXTURES / "verify_golden.json"
REGIME_FIXTURE = FIXTURES / "regime_golden.json"

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


def render_regime(name):
    out = {}
    for fmt in ("table", "json"):
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            assert cli.main(["regime", *REGIME_CASES[name], "--seed", "0", "--format", fmt]) == 0
        out[fmt] = buf.getvalue()
    return out


@pytest.fixture(params=["compiled", "python"])
def kernel(request, monkeypatch):
    impl = request.getfixturevalue("compiled_kernels") if request.param == "compiled" \
        else _pykernels
    monkeypatch.setattr(mss, "_impl", impl)
    monkeypatch.setattr(graphs, "_impl", impl)


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
