"""Run the packaged invariant suites end to end under pytest."""

from threshold_lab import verify


def test_all_invariant_suites_pass():
    results = verify.run_all(seed=0)
    failures = [(name, detail) for name, ok, detail in results if not ok]
    assert not failures, failures
    assert len(results) == 20


def test_suites_are_seed_stable():
    first = verify.run_all(seed=7)
    second = verify.run_all(seed=7)
    assert first == second
