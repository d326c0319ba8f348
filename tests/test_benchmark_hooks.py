"""The traced benchmark (perfbench/tracing.py) wraps franklbip functions by
name, and its self-test (perfbench/selftest.py) corrupts real results with
dataclasses.replace.  Both are run on the source package here, so a renamed
entry point or a result type that is no longer a dataclass fails the test
suite instead of the benchmark run."""

import dataclasses
import importlib.util

import pytest

from conftest import ROOT
from franklbip import mss, setfamily, verify
from franklbip.graphs import Seed, sample_bipartite


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
    hooked += [(setfamily, name) for name in tracing.SETFAMILY_ENTRY_POINTS]
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


def test_selftest_can_replace_fields_of_real_results():
    # the three dataclasses.replace calls of perfbench/selftest.py
    stats = mss.mss_stats(sample_bipartite(9, 11, 0.3, Seed(7, 1)))
    bad = dataclasses.replace(stats, total=stats.total + 1)
    assert (bad.total, bad.left_hist) == (stats.total + 1, stats.left_hist)
    rep = verify.verify_lemma("mssproba", {"m": 6, "n": 6, "p": 0.5, "ell": 2, "r": 2}, 30,
                              Seed(99))
    wrong = dataclasses.replace(rep, measured=rep.measured + 1 / 30)
    assert wrong.measured == rep.measured + 1 / 30 and wrong.claimed == rep.claimed
    extra = dict(rep.extra, hits=1)
    assert dataclasses.replace(rep, extra=extra).extra == extra
