"""The traced benchmark (perfbench/tracing.py) wraps franklbip functions by
name.  Installing its tracer on the source package here makes a renamed or
deleted entry point fail the test suite instead of the benchmark run."""

import importlib.util

import pytest

from conftest import ROOT
from franklbip import mss, verify
from franklbip.graphs import Seed


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = load_tracing()
    hooked = [(mss, name) for name in tracing.MSS_ENTRY_POINTS]
    hooked += [(verify, name) for name in tracing.VERIFY_ENTRY_POINTS]
    originals = [getattr(owner, name) for owner, name in hooked]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(getattr(owner, name) is not fn
                   for (owner, name), fn in zip(hooked, originals))
        report = tracer.run_op(0, lambda: verify.run_conjecture_campaign(
            3, 3, 0.5, 0.0, 2, Seed(1)))
        assert report.trials == 2
    finally:
        tracer.uninstall()
    assert all(getattr(owner, name) is fn for (owner, name), fn in zip(hooked, originals))
    names = {span[tracing.NAME]: span[tracing.COUNT] for span in tracer.spans}
    assert names["verify.run_conjecture_campaign"] == 2
    assert "mss.conjecture_check" in names


@pytest.mark.parametrize("lemma,params", [
    ("mssproba", {"m": 4, "n": 4, "p": 0.5, "ell": 1, "r": 1}),
    ("constrightside", {"m": 6, "n": 2, "p": 0.5}),
    ("genupper", {"m": 6, "n": 2, "p": 0.5, "ell_star": 2, "r_star": 1}),
])
def test_verify_lemma_draws_each_trial_through_module_name(monkeypatch, lemma, params):
    # the tracer times graphs.sample by patching verify.sample_bipartite, so
    # every trial must draw through that name, one graph per trial
    original = verify.sample_bipartite
    seeds = []

    def counting(m, n, prob, seed):
        seeds.append(seed)
        return original(m, n, prob, seed)

    monkeypatch.setattr(verify, "sample_bipartite", counting)
    report = verify.verify_lemma(lemma, params, 7, Seed(3))
    assert report.trials == 7
    assert seeds == [Seed(3).child(t) for t in range(7)]
