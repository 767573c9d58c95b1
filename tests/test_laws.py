import pytest

import clutterkit.laws
from clutterkit import ZERO, blocker, run_law_suite


def test_all_laws_hold_on_a_quick_run():
    results = run_law_suite(samples=120, seed=2024)
    failing = [r for r in results if not r.ok]
    assert not failing, failing


def test_suite_reports_every_law_once():
    results = run_law_suite(samples=5, seed=1)
    names = [r.name for r in results]
    assert len(names) == len(set(names)) == 8


def test_negative_sample_count_is_rejected():
    with pytest.raises(ValueError):
        run_law_suite(samples=-3)


def test_a_failing_law_is_reported_with_its_counterexample(monkeypatch):
    # a blocker that is always ZERO breaks only the involution, at the unit
    monkeypatch.setattr(clutterkit.laws, "blocker", lambda h: ZERO)
    failing = [r for r in run_law_suite(samples=20, seed=3) if not r.ok]
    assert [r.name for r in failing] == ["blocker is an involution"]
    assert "unit" in failing[0].detail
    # one that is wrong only off ZERO fails on a sample, which the detail carries
    monkeypatch.setattr(clutterkit.laws, "blocker", lambda h: blocker(h) if h.is_zero else ZERO)
    by_name = {r.name: r for r in run_law_suite(samples=20, seed=3)}
    involution = by_name["blocker is an involution"]
    assert not involution.ok
    detail = involution.detail
    assert detail.startswith("f=") and " g=" in detail and " h=" in detail, detail
