"""Every randomized invariant suite runs clean at small sizes."""

import concurrent.futures
import multiprocessing
import os
import random

import pytest

from gl3weights import elimination
from gl3weights.sweeps import COUNT_LIMIT, SUITES, run_suite, sweep_elimination

SUITE_PRIMES = {
    "decompose": 7,
    "orbits": 7,
    "weights": 11,
    "tame": 11,
    "breuil": 17,
    "candidates": 17,
    "predicted": 11,
    "elimination": 29,
    "cycling": 29,
    "slopes": 7,
}


def test_every_suite_is_listed():
    assert set(SUITE_PRIMES) == set(SUITES)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_runs_clean(name):
    checks, failures = run_suite(name, SUITE_PRIMES[name], seed=2, count=12)
    assert failures == [], failures[:2]
    assert checks > 0


def test_suites_are_seed_deterministic():
    a = run_suite("weights", 11, seed=9, count=30)
    b = run_suite("weights", 11, seed=9, count=30)
    assert a == b


def test_parallel_matches_serial_totals():
    checks1, fails1 = run_suite("slopes", 7, 4, 24, jobs=1)
    checks2, fails2 = run_suite("slopes", 7, 4, 24, jobs=3)
    assert fails1 == fails2 == []
    assert checks1 == checks2 == 24


@pytest.mark.parametrize("name", sorted(n for n, (_, exh, _) in SUITES.items() if not exh))
def test_parallel_equals_serial(name):
    # instance i draws from (seed, i), so the split across processes is invisible
    serial = run_suite(name, SUITE_PRIMES[name], 5, 5)
    assert run_suite(name, SUITE_PRIMES[name], 5, 5, jobs=2) == serial
    assert serial[0] == 5


def _record_draw(rng, p, failures):
    failures.append({"draw": rng.random()})


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched suite reaches the workers only through fork")
def test_instance_draws_do_not_depend_on_jobs_or_count(monkeypatch):
    monkeypatch.setitem(SUITES, "weights", (_record_draw, False, 5))
    checks, draws = run_suite("weights", 11, 3, 5)
    assert checks == 5 and len({d["draw"] for d in draws}) == 5
    for jobs in (2, 3):
        assert run_suite("weights", 11, 3, 5, jobs=jobs) == (checks, draws)
    assert run_suite("weights", 11, 3, 2)[1] == draws[:2]


def test_exhaustive_suite_ignores_jobs():
    a = run_suite("decompose", 7, 0, 10, jobs=1)
    b = run_suite("decompose", 7, 0, 10, jobs=4)
    assert a == b


def test_parallel_rejects_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        run_suite("nope", 7, 0, 10, jobs=2)


def test_parallel_runs_exactly_count_checks():
    # two processes; the odd count splits into chunks of 3 and 2
    checks, failures = run_suite("slopes", 7, 4, 5, jobs=2)
    assert failures == []
    assert checks == 5


class _InlineExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, starts nothing."""

    made: list[int] = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("cpus,jobs,workers", [
    (2, 8, [2]), (4, 3, [3]), (3, 100, [3]), (1, 8, []), (None, 8, []),
])
def test_parallel_caps_jobs_at_cpu_count(monkeypatch, cpus, jobs, workers):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlineExecutor)
    monkeypatch.setattr(_InlineExecutor, "made", [])
    serial = run_suite("slopes", 7, 4, 24)
    assert run_suite("slopes", 7, 4, 24, jobs=jobs) == serial
    assert _InlineExecutor.made == workers


@pytest.mark.parametrize("jobs", [0, -5])
def test_parallel_rejects_jobs_below_one(jobs):
    for name in ("slopes", "decompose"):
        with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
            run_suite(name, 7, 0, 10, jobs=jobs)


def _prime_below(n):
    return max(q for q in range(2, n) if all(q % d for d in range(2, q)))


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_floor(name):
    floor = SUITES[name][2]
    below = _prime_below(floor)
    with pytest.raises(ValueError, match=f">= {floor}, got {below}"):
        run_suite(name, below, 0, 3)
    checks, failures = run_suite(name, floor, 0, 3)
    assert failures == [] and checks > 0


@pytest.mark.parametrize("name", sorted(n for n, (*_, floor) in SUITES.items() if floor > 5))
def test_suite_floor_is_the_smallest_prime(name, monkeypatch):
    # without the floor, the prime below it fails inside the suite's draws
    check, exhaustive, floor = SUITES[name]
    below = _prime_below(floor)
    monkeypatch.setitem(SUITES, name, (check, exhaustive, 5))
    with pytest.raises(ValueError, match="empty range"):
        run_suite(name, below, 0, 3)


@pytest.mark.parametrize("p, count, message", [
    (9, 3, "prime >= 5, got 9"),
    (100000, 3, "below 65536, got 100000"),
    (7, -5, "count must be at least 0, got -5"),
])
def test_sweeps_check_p_and_count_at_entry(p, count, message):
    with pytest.raises(ValueError, match=message):
        run_suite("slopes", p, 0, count)


@pytest.mark.parametrize("name, p, count, message", [
    ("decompose", 1031, 3, "suite 'decompose' needs p <= 1021, got 1031"),
    ("decompose", 7, COUNT_LIMIT + 1, f"count must be at most {COUNT_LIMIT}, got 100001"),
    ("cycling", 29, COUNT_LIMIT + 1, f"count must be at most {COUNT_LIMIT}, got 100001"),
])
def test_sweep_bounds_are_refused_before_any_work(monkeypatch, name, p, count, message):
    calls = []
    _check, largest, floor = SUITES[name]
    monkeypatch.setitem(SUITES, name, (lambda *args: calls.append(args), largest, floor))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlineExecutor)
    monkeypatch.setattr(_InlineExecutor, "made", [])
    with pytest.raises(ValueError, match=message):
        run_suite(name, p, 0, count, jobs=2)
    assert calls == [] and _InlineExecutor.made == []


def test_sweep_bounds_admit_their_value(monkeypatch):
    # decompose is exhaustive, so it ignores count and runs at the cap in ms
    assert run_suite("decompose", 7, 0, COUNT_LIMIT) == (7 * 7 + 7 + 2, [])
    # the largest prime itself is accepted; the 10 s walk is stubbed out
    monkeypatch.setitem(SUITES, "decompose", (lambda p: (p, []), 1021, 5))
    assert run_suite("decompose", 1021, 0, 3) == (1021, [])


def test_sweep_elimination_compares_orbit_sets_as_sets(monkeypatch):
    # orbit sets are sorted tuples, on which <= is lexicographic: an
    # intersection with a rep below every lift's least one compares <= each
    # lift's tuple, though no lift holds it
    real = elimination.intersection_sets

    def stray_rep(w):
        *lift_sets, inter = real(w)
        assert 0 not in set().union(*lift_sets)
        return (*lift_sets, (0, *inter))

    monkeypatch.setattr(elimination, "intersection_sets", stray_rep)
    failures = []
    sweep_elimination(random.Random(3), 29, failures)
    assert "intersection not minimal" in [f["reason"] for f in failures]
