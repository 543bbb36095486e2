from __future__ import annotations

import multiprocessing
import os
from dataclasses import replace

import pytest

from linedefects import baselines, experiments, pipeline
from linedefects.config import RunConfig
from linedefects.corpus import ReleaseDataset, as_release_list, load_dataset, write_dataset
from linedefects.evaluation import METRIC_DIRECTIONS
from linedefects.experiments import ALL_METHODS, cross_release_eval, within_release_eval
from linedefects.pipeline import train_file_model
from linedefects.synthetic import make_release_series

from conftest import ranking_rows


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

    def test_files_given_out_of_order_split_as_the_loaded_release(self, tmp_path):
        # the folds deal file indices, so a release must index its files as a load of it does
        (release,) = make_release_series(seed=0, n_releases=1)
        reversed_release = ReleaseDataset(release.release_id, release.release_date, release.files[::-1])
        write_dataset([reversed_release], tmp_path / "data.csv")
        (loaded,) = load_dataset(tmp_path / "data.csv")
        config = RunConfig(lime_n=300, folds=3, repeats=1)
        assert within_release_eval([reversed_release], config=config) == within_release_eval([loaded], config=config)

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

        def serial_only(model, test, predicted, config):
            assert config.parallelism == 1, "a split worker would open a nested pool"
            with open(pids, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            return original(model, test, predicted, config)

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

        def record(model, test, predicted, config):
            seen.append(config.parallelism)
            return original(model, test, predicted, config)

        monkeypatch.setattr(experiments, "identify_lines", record)
        cross_release_eval(corpus, ("linedp",), replace(quick_config, parallelism=2))
        assert seen == [2]

    def test_fewer_pairs_than_workers_keep_the_explain_pool(self, three_releases, quick_config, monkeypatch):
        # two pairs cannot fill three workers, so they run here and each may explain in parallel
        seen = []
        original = experiments.identify_lines

        def record(model, test, predicted, config):
            seen.append((os.getpid(), config.parallelism))
            return original(model, test, predicted, config)

        monkeypatch.setattr(experiments, "identify_lines", record)
        cross_release_eval(three_releases, ("linedp",), replace(quick_config, parallelism=3))
        assert seen == [(os.getpid(), 3)] * 2


class TestOnePredictionPerUnit:
    """The model-based methods of a train/test unit share one file-level prediction."""

    def test_each_unit_predicts_and_vectorizes_its_test_release_once(self, corpus, quick_config, monkeypatch):
        units = []  # per unit: its test release, then [predict_proba calls, vectorize calls on that release]
        method_reports = experiments._method_reports

        def unit(train, test, *args):
            units.append((test, [0, 0]))
            return method_reports(train, test, *args)

        def counted(module, name, slot, on_test):
            original = getattr(module, name)

            def wrapper(*args):
                test, counts = units[-1]
                if not on_test or any(ds is test for ds in as_release_list(args[0])):
                    counts[slot] += 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        monkeypatch.setattr(experiments, "_method_reports", unit)
        counted(pipeline, "predict_proba", 0, on_test=False)
        for module in (pipeline, baselines):
            counted(module, "vectorize", 1, on_test=True)
        within_release_eval([corpus[0]], ALL_METHODS, quick_config)
        cross_release_eval(corpus, ALL_METHODS, quick_config)
        assert [counts for _, counts in units] == [[1, 1]] * (quick_config.folds * quick_config.repeats + 1)

    @pytest.fixture(scope="class")
    def trained(self, corpus):
        train, test = corpus
        return train, test, train_file_model(train)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_sharing_the_prediction_changes_no_result(self, trained, quick_config, method):
        # a method that changed the shared probabilities or defect-prone files would change the others' results
        train, test, model = trained

        def result(methods):
            results = experiments.run_methods(methods, train, test, model, quick_config, 0.6, seed=3)
            r = results[methods.index(method)]
            return r.method, ranking_rows(r.ranked, test), r.file_probabilities, r.risky_tokens

        alone = result((method,))
        assert result(ALL_METHODS) == alone
        assert result(ALL_METHODS[::-1]) == alone
