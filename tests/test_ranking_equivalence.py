"""Every method's column ranking against the record-per-line oracle of ``reference_ranking``.

The oracle flags lines with ``reference_corpus.flag_lines`` (one
``RankedLine`` per line, from the regex tokenizer) and orders them with the
tuple keys that ranked lines before ``pipeline.Ranking``. The rankings of
``run_methods`` must hold the same rows in the same order, with exact float
equality, on the cross-release pair (with the test release's files in path
order and reversed) and on within-release CV splits of several planted
series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from linedefects.baselines import NgramModel, line_entropies
from linedefects.config import RunConfig
from linedefects.corpus import ReleaseDataset, SourceFile
from linedefects.evaluation import stratified_kfold
from linedefects.experiments import ALL_METHODS, run_methods
from linedefects.model import LogisticModel
from linedefects.pipeline import FilePredictions, MethodResult, RiskyTokenSet, predict_files, train_file_model
from linedefects.synthetic import make_release_series
from linedefects.util import derive_seed

import reference_corpus
import reference_ranking
from conftest import ranking_rows
from reference_ranking import RankedLine

CONFIG = RunConfig(lime_n=300, parallelism=1)
SPLITS = 2  # within-release splits per seed, the first of a 5-fold plan over the first release


@dataclass
class Unit:
    """One train/test unit and every method's result on it."""

    name: str
    seed: int
    train: ReleaseDataset
    test: ReleaseDataset
    model: LogisticModel
    predicted: FilePredictions
    threshold: float
    results: dict[str, MethodResult]


def units(seed: int) -> list[Unit]:
    """The cross-release pair, its test files reversed, and the first within-release splits of the series of ``seed``."""
    train, test = make_release_series(seed=seed)
    plan = stratified_kfold([f.file_label for f in train.files], folds=5, repeats=1, seed=seed)
    within = CONFIG.entropy_threshold_within
    # a release given its files out of path order must rank as the release in path order
    reversed_test = ReleaseDataset(test.release_id, test.release_date, test.files[::-1])
    pairs = [
        ("cross", train, test, CONFIG.entropy_threshold_cross),
        ("cross-reversed", train, reversed_test, CONFIG.entropy_threshold_cross),
    ] + [
        (f"within-f{s.fold}", train.subset(s.train_indices), train.subset(s.test_indices), within)
        for s in plan[:SPLITS]
    ]
    built = []
    for name, unit_train, unit_test, threshold in pairs:
        model = train_file_model(unit_train)
        results = {
            r.method: r for r in run_methods(ALL_METHODS, unit_train, unit_test, model, CONFIG, threshold, seed)
        }
        predicted = predict_files(model, unit_test)
        built.append(Unit(name, seed, unit_train, unit_test, model, predicted, threshold, results))
    return built


def flagged(unit: Unit, risky_of) -> list[RankedLine]:
    """The oracle's flags on every defect-prone file of ``unit``; ``risky_of(file)`` gives the file's risky set."""
    files = [unit.test.files[i] for i in unit.predicted.defect_prone]
    return [
        line
        for f in files
        for line in reference_corpus.flag_lines(f, risky_of(f), unit.predicted.probabilities[f.path])
    ]


def random_risky(unit: Unit, f: SourceFile) -> RiskyTokenSet:
    """Uniform scores on the file's distinct in-vocabulary tokens, in text order, seeded per file."""
    words = sorted({token for line in f.lines for token in reference_corpus.tokenize(line.content)})
    distinct = [token for token in words if token in unit.model.vocab.token_to_index]
    rng = np.random.default_rng(derive_seed(unit.seed, "random", f.release_id, f.path))
    scores = rng.uniform(-1.0, 1.0, size=len(distinct))
    return RiskyTokenSet.top_positive(zip(distinct, scores.tolist()), CONFIG.k_risky)


def expected_ranking(method: str, unit: Unit) -> list[RankedLine]:
    """The oracle's ranking; linedp and tmi_lr take their run's risky sets, which other tests check."""
    risky = unit.results[method].risky_tokens
    if method == "linedp":
        return reference_ranking.rank_lines_global(flagged(unit, lambda f: risky[f.path]))
    if method == "tmi_lr":
        return reference_ranking.rank_lines_global(flagged(unit, lambda f: risky["*"]))
    if method == "random":
        random_flags = flagged(unit, lambda f: random_risky(unit, f))
        return reference_ranking.random_order(random_flags, unit.test.release_id, unit.seed)
    files, numbers, scores = line_entropies(NgramModel().fit(unit.train, unit.test), unit.test)
    return reference_ranking.ngram_order(
        [
            RankedLine(f.release_id, f.path, number, 0, score, 0.0)
            for f, number, score in zip([unit.test.files[i] for i in files], numbers.tolist(), scores.tolist())
            if score > unit.threshold
        ]
    )


@pytest.fixture(scope="module", params=range(4), ids=lambda seed: f"seed{seed}")
def seed_units(request) -> list[Unit]:
    return units(request.param)


@pytest.mark.parametrize("method", ALL_METHODS)
def test_ranking_matches_oracle(seed_units, method):
    for unit in seed_units:
        expected = reference_ranking.rows(expected_ranking(method, unit))
        assert ranking_rows(unit.results[method].ranked, unit.test) == expected, unit.name
    assert len(seed_units[0].results[method].ranked), "an empty cross ranking leaves the comparison untested"
