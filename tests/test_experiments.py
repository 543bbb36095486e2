from __future__ import annotations

import multiprocessing
import os
from dataclasses import replace

import pytest

from linedefects import experiments
from linedefects.config import RunConfig
from linedefects.evaluation import METRIC_DIRECTIONS
from linedefects.experiments import ALL_METHODS, cross_release_eval, within_release_eval
from linedefects.synthetic import make_release_series


@pytest.fixture(scope="module")
def corpus():
    return make_release_series(
        system="exp", n_releases=2, seed=31, n_files=24, n_defective=8, lines_per_file=(10, 16)
    )


@pytest.fixture(scope="module")
def quick_config():
    return RunConfig(seed=2, lime_n=250, lime_k_features=20, folds=2, repeats=1)


class TestCrossReleaseEval:
    def test_one_report_per_method_per_pair(self, corpus, quick_config):
        output = cross_release_eval(corpus, ALL_METHODS, quick_config)
        units = {r.unit_id for r in output.reports}
        assert units == {"exp-1.0->exp-2.0"}
        assert sorted(r.method for r in output.reports) == sorted(ALL_METHODS)

    def test_pipeline_beats_random_on_planted_corpus(self, corpus, quick_config):
        output = cross_release_eval(corpus, ("linedp", "random"), quick_config)
        by_method = {r.method: r for r in output.reports}
        assert by_method["linedp"].recall > by_method["random"].recall

    def test_stats_rows_reference_baselines_only(self, corpus, quick_config):
        output = cross_release_eval(corpus, ("linedp", "random"), quick_config)
        assert {row["baseline"] for row in output.stats} <= {"random"}
        assert {row["metric"] for row in output.stats} <= set(METRIC_DIRECTIONS)
        # a single pair cannot support a signed-rank test
        assert all(row["p_value"] is None for row in output.stats)

    def test_deterministic(self, corpus, quick_config):
        a = cross_release_eval(corpus, ("linedp",), quick_config)
        b = cross_release_eval(corpus, ("linedp",), quick_config)
        assert [(r.unit_id, r.recall, r.far, r.mcc) for r in a.reports] == [
            (r.unit_id, r.recall, r.far, r.mcc) for r in b.reports
        ]


class TestWithinReleaseEval:
    def test_one_report_per_method_per_split(self, corpus, quick_config):
        release = corpus[0]
        output = within_release_eval([release], ("linedp", "ngram"), quick_config)
        expected_units = {
            f"{release.release_id}:r{r}f{f}"
            for r in range(quick_config.repeats)
            for f in range(quick_config.folds)
        }
        assert {rep.unit_id for rep in output.reports} == expected_units
        per_unit = {}
        for rep in output.reports:
            per_unit.setdefault(rep.unit_id, []).append(rep.method)
        for methods in per_unit.values():
            assert sorted(methods) == ["linedp", "ngram"]

    def test_fold_class_requirement_enforced(self, quick_config):
        from dataclasses import replace

        release = make_release_series(
            system="tiny", n_releases=1, seed=5, n_files=12, n_defective=3
        )[0]
        with pytest.raises(ValueError, match="fewer than folds"):
            within_release_eval([release], ("ngram",), replace(quick_config, folds=10))


@pytest.fixture(scope="module")
def three_releases():
    return make_release_series(seed=0, n_releases=3)


class TestParallelEqualsSerial:
    """The serial path (``parallelism=1``) is the oracle for the pooled one."""

    def test_within_release_eval(self, quick_config):
        releases = make_release_series(seed=0)
        config = replace(quick_config, folds=3)
        serial = within_release_eval(releases, ALL_METHODS, config)
        pooled = within_release_eval(releases, ALL_METHODS, replace(config, parallelism=2))
        assert len(serial.reports) == len(releases) * 3 * len(ALL_METHODS)
        assert pooled == serial

    def test_cross_release_eval(self, three_releases, quick_config):
        serial = cross_release_eval(three_releases, ALL_METHODS, quick_config)
        pooled = cross_release_eval(three_releases, ALL_METHODS, replace(quick_config, parallelism=2))
        assert len({r.unit_id for r in serial.reports}) == 2
        assert pooled == serial

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="workers see the patch only when forked"
    )
    def test_split_workers_never_open_a_pool(self, three_releases, quick_config, monkeypatch, tmp_path):
        # forked workers inherit the patched lookup site; each records its pid
        pids = tmp_path / "pids"
        original = experiments.identify_lines

        def serial_only(model, vocab, test, config):
            assert config.parallelism == 1, "a split worker would open a nested pool"
            with open(pids, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            return original(model, vocab, test, config)

        monkeypatch.setattr(experiments, "identify_lines", serial_only)
        config = replace(quick_config, parallelism=2)
        within_release_eval(three_releases, ("linedp",), config)
        cross_release_eval(three_releases, ("linedp",), config)
        seen = pids.read_text().split()
        assert len(seen) == 3 * config.folds + 2
        assert str(os.getpid()) not in seen

    def test_single_pair_keeps_the_explain_pool(self, corpus, quick_config, monkeypatch):
        # one pair leaves nothing to spread, so the pair runs here and may explain in parallel
        seen = []
        original = experiments.identify_lines

        def record(model, vocab, test, config):
            seen.append(config.parallelism)
            return original(model, vocab, test, config)

        monkeypatch.setattr(experiments, "identify_lines", record)
        cross_release_eval(corpus, ("linedp",), replace(quick_config, parallelism=2))
        assert seen == [2]

    def test_fewer_pairs_than_workers_keep_the_explain_pool(self, three_releases, quick_config, monkeypatch):
        # two pairs cannot fill three workers, so they run here and each may explain in parallel
        seen = []
        original = experiments.identify_lines

        def record(model, vocab, test, config):
            seen.append((os.getpid(), config.parallelism))
            return original(model, vocab, test, config)

        monkeypatch.setattr(experiments, "identify_lines", record)
        cross_release_eval(three_releases, ("linedp",), replace(quick_config, parallelism=3))
        assert seen == [(os.getpid(), 3)] * 2
