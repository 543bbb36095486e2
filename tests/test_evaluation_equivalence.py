"""The positional measures of ``linedefects.evaluation`` against the dict-based oracle.

``reference_evaluation`` scores a ranking from a ``(path, line)`` truth dict;
``evaluate_ranking`` reads the release's label column by position. Both must
give the same :class:`MetricsReport`, field for field and type for type,
for every method's ranking, for truncated rankings (which recall@top-20%LOC
pads with unranked lines) and for shuffled ones.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from linedefects.config import RunConfig
from linedefects.evaluation import MetricsReport, evaluate_ranking
from linedefects.experiments import ALL_METHODS, run_methods
from linedefects.pipeline import train_file_model
from linedefects.synthetic import make_release_series

import reference_evaluation
from conftest import ranking_of, ranking_rows, release_of_files

CONFIG = RunConfig(lime_n=300, parallelism=1)


def assert_same_report(ranking, test, file_probs) -> None:
    actual = evaluate_ranking("m", "u", ranking, test, file_probs)
    keys = [(path, line) for path, line, *_ in ranking_rows(ranking, test)]
    expected = reference_evaluation.evaluate_ranking("m", "u", keys, test, file_probs)
    for field in fields(MetricsReport):
        a, e = getattr(actual, field.name), getattr(expected, field.name)
        assert type(a) is type(e) and a == e, (field.name, a, e)


@pytest.fixture(scope="module", params=range(4), ids=lambda seed: f"seed{seed}")
def method_runs(request):
    """(test release, every method's result) on the planted series of one seed."""
    train, test = make_release_series(seed=request.param)
    model = train_file_model(train)
    return test, run_methods(ALL_METHODS, train, test, model, CONFIG, CONFIG.entropy_threshold_cross, request.param)


@pytest.mark.parametrize("method", ALL_METHODS)
def test_every_method_ranking_matches_oracle(method_runs, method):
    test, results = method_runs
    (result,) = [r for r in results if r.method == method]
    assert len(result.ranked), "an empty ranking leaves the comparison untested"
    assert_same_report(result.ranked, test, result.file_probabilities)


@pytest.mark.parametrize("method", ALL_METHODS)
@pytest.mark.parametrize("length", [0, 1, 5, 20])
def test_truncated_ranking_matches_oracle(method_runs, method, length):
    test, results = method_runs
    (result,) = [r for r in results if r.method == method]
    truncated = result.ranked.take(slice(length))
    assert_same_report(truncated, test, result.file_probabilities)
    assert_same_report(truncated, test, None)


@pytest.mark.parametrize("method", ALL_METHODS)
def test_shuffled_ranking_matches_oracle(method_runs, method):
    test, results = method_runs
    (result,) = [r for r in results if r.method == method]
    order = np.random.default_rng(len(result.ranked)).permutation(len(result.ranked))
    assert_same_report(result.ranked.take(order), test, result.file_probabilities)


@st.composite
def ranked_releases(draw):
    """A release of a few short files, a ranking of its lines (repeats allowed), and file probabilities with ties."""
    sizes = draw(st.lists(st.integers(0, 6), min_size=1, max_size=5))
    assume(sum(sizes) > 0)
    release = release_of_files(
        "r", {f"F{j}.java": [("x", draw(st.booleans())) for _ in range(n)] for j, n in enumerate(sizes)}
    )
    keys = [(f.path, line.number) for f in release.files for line in f.lines]
    drawn = draw(st.lists(st.sampled_from(keys)))
    ranked = ranking_of(release, [(path, number, 1, 0.0, 0.5) for path, number in drawn])
    paths = [f.path for f in release.files]
    probs = draw(st.none() | st.dictionaries(st.sampled_from(paths), st.sampled_from([0.1, 0.5, 0.9])))
    return release, ranked, probs


@settings(max_examples=200, deadline=None)
@given(ranked_releases())
def test_random_rankings_match_oracle(case):
    release, ranked, probs = case
    assert_same_report(ranked, release, probs)
