import pytest

from clutterkit import run_law_suite


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
