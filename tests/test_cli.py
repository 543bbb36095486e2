from __future__ import annotations

import csv
import hashlib
import json
import multiprocessing
import os
import stat
from dataclasses import asdict
from datetime import date

import pytest

from linedefects import cli
from linedefects.cli import _config_from_args, build_parser, main
from linedefects.config import FIELD_TYPES, RunConfig
from linedefects.corpus import cache_path, write_dataset
from linedefects.synthetic import make_release_series

from conftest import release_of_files, unseen_token_pair
import reference_trainer


@pytest.fixture(scope="module")
def dataset_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    releases = make_release_series(
        system="cli", n_releases=2, seed=13, n_files=24, n_defective=8, lines_per_file=(10, 16)
    )
    data = root / "dataset.csv"
    meta = root / "releases.csv"
    write_dataset(releases, data, meta)
    return root, data, meta


# nested past the interpreter's recursion limit: json raises RecursionError, not a ValueError
DEEP_JSON = "[" * 200_000 + "]" * 200_000

HEADER = b"release,file_path,line_number,line_content,file_label,line_label\n"

FAST_FLAGS = ["--lime-n", "200", "--lime-k-features", "20", "--workers", "1", "--seed", "5"]


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestTrainPredict:
    def test_train_then_predict_twice_byte_identical(self, dataset_paths, tmp_path):
        root, data, meta = dataset_paths
        model_path = tmp_path / "model.json"
        rc = main(["train", "--dataset", str(data), "--releases", "cli-1.0", "--out", str(model_path)])
        assert rc == 0
        assert json.loads(model_path.read_text())["format_version"] == 1

        out1, out2 = tmp_path / "ranked1.csv", tmp_path / "ranked2.csv"
        for out in (out1, out2):
            rc = main(
                ["predict", "--model", str(model_path), "--dataset", str(data),
                 "--release", "cli-2.0", "--out", str(out)] + FAST_FLAGS
            )
            assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = read_csv(out1)
        assert rows[0] == ["rank", "release", "file_path", "line_number", "hit_count", "score_sum", "file_probability"]
        assert len(rows) > 1
        assert [r[0] for r in rows[1:]] == [str(i) for i in range(1, len(rows))]

    def test_method_column_flag(self, dataset_paths, tmp_path):
        root, data, meta = dataset_paths
        model_path = tmp_path / "model.json"
        main(["train", "--dataset", str(data), "--releases", "cli-1.0", "--out", str(model_path)])
        out = tmp_path / "ranked.csv"
        main(
            ["predict", "--model", str(model_path), "--dataset", str(data), "--release", "cli-2.0",
             "--out", str(out), "--method-column"] + FAST_FLAGS
        )
        rows = read_csv(out)
        assert rows[0][-1] == "method"
        assert {r[-1] for r in rows[1:]} == {"linedp"}

    def test_baseline_methods_emit_rankings(self, dataset_paths, tmp_path):
        root, data, meta = dataset_paths
        model_path = tmp_path / "model.json"
        main(["train", "--dataset", str(data), "--releases", "cli-1.0", "--out", str(model_path)])
        for method, extra in (
            ("random", ["--model", str(model_path)]),
            ("tmi_lr", ["--model", str(model_path), "--train-release", "cli-1.0"]),
            ("ngram", ["--train-release", "cli-1.0"]),
        ):
            out = tmp_path / f"{method}.csv"
            rc = main(
                ["predict", "--dataset", str(data), "--release", "cli-2.0", "--method", method,
                 "--out", str(out), "--method-column"] + extra + FAST_FLAGS
            )
            assert rc == 0
            rows = read_csv(out)
            assert {r[-1] for r in rows[1:]} == {method}, method
            assert len(rows) > 1, method
            assert [r[0] for r in rows[1:]] == [str(i) for i in range(1, len(rows))], method

    def test_missing_train_release_is_data_error(self, dataset_paths, tmp_path, capsys):
        root, data, meta = dataset_paths
        rc = main(
            ["predict", "--dataset", str(data), "--release", "cli-2.0", "--method", "ngram",
             "--out", str(tmp_path / "o.csv")]
        )
        assert rc == 2
        assert "train-release" in capsys.readouterr().err

    def test_repeated_release_is_data_error(self, dataset_paths, tmp_path, capsys):
        # training on a release twice would double its files and every token count
        root, data, meta = dataset_paths
        model_path = tmp_path / "model.json"
        rc = main(["train", "--dataset", str(data), "--releases", "cli-1.0,cli-2.0,cli-1.0", "--out", str(model_path)])
        assert rc == 2
        assert capsys.readouterr().err == "error: repeated releases: ['cli-1.0']\n"
        assert not model_path.exists()

    def test_unconverged_training_is_reported(self, dataset_paths, tmp_path, capsys, monkeypatch):
        root, data, meta = dataset_paths
        train = ["train", "--dataset", str(data), "--releases", "cli-1.0", "--out", str(tmp_path / "m.json")]
        assert main(train) == 0
        assert ", converged;" in capsys.readouterr().out
        monkeypatch.setattr("linedefects.model.MAX_ITERS", 1)
        assert main(train) == 0
        assert "NOT converged (warning)" in capsys.readouterr().out


@pytest.fixture(scope="module")
def trained_model(dataset_paths, tmp_path_factory):
    root, data, meta = dataset_paths
    path = tmp_path_factory.mktemp("cli-model") / "model.json"
    assert main(["train", "--dataset", str(data), "--releases", "cli-1.0", "--out", str(path)]) == 0
    return path, json.loads(path.read_text())


def _without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def _train_meta(edit):
    return lambda doc: {**doc, "train_meta": edit(doc["train_meta"])}


def _parent_format_1(doc):
    """The train_meta the gradient-loop trainer wrote: its four settings besides the three kept fields."""
    legacy = reference_trainer.TrainMeta(l2_lambda=1.0, max_iters=1000, tolerance=1e-6, seed=5, **doc["train_meta"])
    return {**doc, "train_meta": asdict(legacy)}


def _repeated_token(doc):
    """A document whose token list repeats its first token, with a matching hash and weight."""
    tokens = doc["tokens"] + doc["tokens"][:1]
    fingerprint = hashlib.sha256("\n".join(tokens).encode("utf-8")).hexdigest()
    return {**doc, "tokens": tokens, "weights": doc["weights"] + [0.0], "vocab_fingerprint": fingerprint}


def _first_weight(value):
    return lambda doc: {**doc, "weights": [value] + doc["weights"][1:]}


class TestModelDocument:
    @pytest.mark.parametrize(
        "edit, expected_rc",
        [
            pytest.param(_first_weight(float("nan")), 2, id="nan-weight"),
            pytest.param(_first_weight(float("-inf")), 2, id="infinite-weight"),
            pytest.param(_first_weight("0.5"), 2, id="string-weight"),
            pytest.param(_first_weight(True), 2, id="boolean-weight"),
            pytest.param(lambda doc: {**doc, "bias": float("inf")}, 2, id="infinite-bias"),
            pytest.param(lambda doc: {**doc, "bias": None}, 2, id="null-bias"),
            pytest.param(lambda doc: {**doc, "tokens": "".join(doc["tokens"])}, 2, id="string-tokens"),
            pytest.param(_train_meta(lambda meta: {**meta, "iterations": 3.5}), 2, id="fractional-iterations"),
            pytest.param(_train_meta(lambda meta: {**meta, "converged": "yes"}), 2, id="string-converged"),
            pytest.param(_train_meta(lambda meta: {**meta, "final_grad_norm": False}), 2, id="boolean-grad-norm"),
            pytest.param(_train_meta(lambda meta: {**meta, "final_grad_norm": 0}), 0, id="integer-grad-norm"),
            pytest.param(_without("weights"), 2, id="no-weights"),
            pytest.param(_without("train_meta"), 2, id="no-train-meta"),
            pytest.param(_train_meta(lambda meta: {**meta, "momentum": 0.9}), 2, id="extra-train-meta-key"),
            pytest.param(_train_meta(lambda meta: {k: v for k, v in meta.items() if k != "converged"}), 2,
                         id="missing-train-meta-key"),
            pytest.param(lambda doc: [doc], 2, id="top-level-list"),
            pytest.param(_repeated_token, 2, id="repeated-token"),
            pytest.param(_parent_format_1, 0, id="parent-format-1"),
        ],
    )
    def test_model_document_is_loaded_or_rejected_as_data_error(
        self, dataset_paths, trained_model, tmp_path, capsys, edit, expected_rc
    ):
        root, data, meta = dataset_paths
        original, doc = trained_model
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(edit(doc)))
        predict = ["predict", "--dataset", str(data), "--release", "cli-2.0"] + FAST_FLAGS
        out = tmp_path / "ranked.csv"
        assert main(predict + ["--model", str(edited), "--out", str(out)]) == expected_rc
        if expected_rc == 0:
            reference = tmp_path / "reference.csv"
            assert main(predict + ["--model", str(original), "--out", str(reference)]) == 0
            assert out.read_bytes() == reference.read_bytes()
        else:
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(edited) in err
            assert not out.exists()

    @pytest.mark.parametrize("text", [DEEP_JSON, "{not json"], ids=["deeply-nested", "not-json"])
    def test_unparsable_model_document_is_data_error(self, dataset_paths, tmp_path, capsys, text):
        root, data, meta = dataset_paths
        model = tmp_path / "model.json"
        model.write_text(text)
        out = tmp_path / "ranked.csv"
        argv = ["predict", "--dataset", str(data), "--release", "cli-2.0", "--model", str(model), "--out", str(out)]
        assert main(argv + FAST_FLAGS) == 2
        assert capsys.readouterr().err.startswith(f"error: {model}: bad JSON: ")
        assert not out.exists()


class TestEvaluate:
    def test_within_emits_row_per_method_per_fold(self, dataset_paths, tmp_path):
        root, data, meta = dataset_paths
        out_dir = tmp_path / "within"
        rc = main(
            ["evaluate", "--dataset", str(data), "--metadata", str(meta), "--setting", "within",
             "--methods", "linedp,random,tmi_lr,ngram", "--out-dir", str(out_dir),
             "--folds", "2", "--repeats", "1"] + FAST_FLAGS
        )
        assert rc == 0
        rows = read_csv(out_dir / "metrics.csv")
        assert rows[0] == ["setting", "method", "unit_id", "recall", "far", "d2h", "mcc", "recall_top20loc", "ifa"]
        body = rows[1:]
        # 2 releases x 2 folds x 1 repeat x 4 methods
        assert len(body) == 2 * 2 * 1 * 4
        assert {r[0] for r in body} == {"within"}
        stats = read_csv(out_dir / "stats.csv")
        assert stats[0] == ["setting", "metric", "baseline", "pct_diff", "p_value", "effect_r", "magnitude"]

    def test_cross_setting(self, dataset_paths, tmp_path):
        root, data, meta = dataset_paths
        out_dir = tmp_path / "cross"
        rc = main(
            ["evaluate", "--dataset", str(data), "--metadata", str(meta), "--setting", "cross",
             "--methods", "linedp,ngram", "--out-dir", str(out_dir)] + FAST_FLAGS
        )
        assert rc == 0
        rows = read_csv(out_dir / "metrics.csv")
        assert len(rows[1:]) == 2  # one pair, two methods

    def test_repeated_method_is_data_error(self, dataset_paths, tmp_path, capsys):
        root, data, meta = dataset_paths
        out_dir = tmp_path / "cross"
        rc = main(["evaluate", "--dataset", str(data), "--setting", "cross", "--methods", "linedp,linedp,random",
                   "--out-dir", str(out_dir)] + FAST_FLAGS)
        assert rc == 2
        assert capsys.readouterr().err == "error: repeated methods: ['linedp']\n"
        assert not out_dir.exists()


    def test_one_fold_is_data_error_naming_the_setting(self, dataset_paths, tmp_path, capsys):
        root, data, meta = dataset_paths
        out_dir = tmp_path / "within"
        rc = main(["evaluate", "--dataset", str(data), "--setting", "within", "--folds", "1",
                   "--out-dir", str(out_dir)] + FAST_FLAGS)
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: bad configuration: folds must be >= 2: with one fold, within-release validation has no training files\n"
        )
        assert not out_dir.exists()

    def test_too_few_defective_files_for_the_folds_names_the_release(self, tmp_path, capsys):
        big = make_release_series(system="big", n_releases=1, seed=1, n_files=60, n_defective=20)
        small = make_release_series(system="small", n_releases=1, seed=2, n_files=12, n_defective=3)
        data = tmp_path / "data.csv"
        write_dataset(big + small, data)
        out_dir = tmp_path / "within"
        rc = main(["evaluate", "--dataset", str(data), "--setting", "within", "--out-dir", str(out_dir)] + FAST_FLAGS)
        assert rc == 2
        assert capsys.readouterr().err == "error: small-1.0: the defective class has 3 files, fewer than folds=10\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_single_class_training_release_names_its_pair(self, tmp_path, capsys, workers):
        # two pairs on two workers share a pool, so the pair's name must come back from a worker
        first, last = make_release_series(n_releases=2, seed=3, n_files=12, n_defective=4)
        clean = release_of_files("demo-1.5", {"A.java": [("bug bug", False)], "B.java": [("spark", False)]},
                                 release_date=date(2024, 3, 1))
        data, meta = tmp_path / "data.csv", tmp_path / "releases.csv"
        write_dataset([first, clean, last], data, meta)
        out_dir = tmp_path / "cross"
        rc = main(["evaluate", "--dataset", str(data), "--metadata", str(meta), "--setting", "cross",
                   "--out-dir", str(out_dir)] + FAST_FLAGS + ["--workers", workers])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: demo-1.5->demo-2.0: training labels contain a single class")
        assert not out_dir.exists()

    def test_cross_setting_with_one_release_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "one.csv"
        write_dataset([release_of_files("r1", {"A.java": [("bug", True)], "B.java": [("calm", False)]})], data)
        out_dir = tmp_path / "cross"
        rc = main(["evaluate", "--dataset", str(data), "--setting", "cross", "--out-dir", str(out_dir)] + FAST_FLAGS)
        assert rc == 2
        assert capsys.readouterr().err == "error: cross-release evaluation needs at least two releases, got 1\n"
        assert not out_dir.exists()

@pytest.fixture(scope="module")
def three_release_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-three")
    data, meta = root / "dataset.csv", root / "releases.csv"
    write_dataset(make_release_series(seed=0, n_releases=3), data, meta)
    return data, meta


class TestParallelEvaluate:
    QUICK = ["--lime-n", "200", "--lime-k-features", "20", "--seed", "5", "--folds", "2", "--repeats", "1"]

    def _evaluate(self, paths, setting, workers, out_dir):
        data, meta = paths
        return main(
            ["evaluate", "--dataset", str(data), "--metadata", str(meta), "--setting", setting,
             "--out-dir", str(out_dir), "--workers", str(workers)] + self.QUICK
        )

    @pytest.mark.parametrize("setting", ["within", "cross"])
    def test_outputs_do_not_depend_on_worker_count(self, three_release_paths, tmp_path, setting):
        for workers in (1, 2):
            assert self._evaluate(three_release_paths, setting, workers, tmp_path / str(workers)) == 0
        for name in ("metrics.csv", "stats.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="workers see the patch only when forked"
    )
    @pytest.mark.parametrize("setting", ["within", "cross"])
    def test_error_in_a_split_is_a_data_error(self, three_release_paths, tmp_path, capsys, monkeypatch, setting):
        def boom(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr("linedefects.experiments.ngram_entropy_baseline", boom)
        errors = []
        for workers in (1, 2):
            assert self._evaluate(three_release_paths, setting, workers, tmp_path / str(workers)) == 2
            errors.append(capsys.readouterr().err)
        unit = "demo-1.0:r0f0" if setting == "within" else "demo-1.0->demo-2.0"
        assert errors[0] == errors[1] == f"error: {unit}: boom\n"
        assert not (tmp_path / "2" / "metrics.csv").exists()


class TestSensitivity:
    def test_k_grid_has_eight_rows(self, dataset_paths, tmp_path):
        root, data, meta = dataset_paths
        out = tmp_path / "sens_k.csv"
        rc = main(
            ["sensitivity", "--dataset", str(data), "--target", "k_risky",
             "--train-release", "cli-1.0", "--test-release", "cli-2.0", "--out", str(out)]
            + FAST_FLAGS
        )
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["k", "recall", "far", "d2h"]
        assert len(rows) - 1 == 8
        assert [r[0] for r in rows[1:]] == ["10", "20", "30", "40", "50", "100", "150", "200"]

    def test_k_sweep_takes_a_feature_budget_below_the_default_k(self, dataset_paths, tmp_path):
        # the sweep sets k from its grid and widens the budget to the grid's largest k, so 10 and 20 run alike
        root, data, meta = dataset_paths
        for budget in ("10", "20"):
            rc = main(
                ["sensitivity", "--dataset", str(data), "--target", "k_risky", "--train-release", "cli-1.0",
                 "--test-release", "cli-2.0", "--out", str(tmp_path / f"{budget}.csv"), "--lime-n", "200",
                 "--workers", "1", "--lime-k-features", budget]
            )
            assert rc == 0
        assert (tmp_path / "10.csv").read_bytes() == (tmp_path / "20.csv").read_bytes()

    def test_entropy_grid_has_twenty_rows(self, dataset_paths, tmp_path):
        root, data, meta = dataset_paths
        out = tmp_path / "sens_t.csv"
        rc = main(
            ["sensitivity", "--dataset", str(data), "--target", "entropy_threshold",
             "--train-release", "cli-1.0", "--test-release", "cli-2.0", "--out", str(out)]
            + FAST_FLAGS
        )
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["threshold", "recall", "far", "d2h"]
        assert len(rows) - 1 == 20


class TestUnexplainableFile:
    def test_file_without_vocabulary_tokens_is_unflagged(self, tmp_path):
        train, test = unseen_token_pair()
        data, meta = tmp_path / "data.csv", tmp_path / "releases.csv"
        write_dataset([train, test], data, meta)
        model_path = tmp_path / "model.json"
        assert main(["train", "--dataset", str(data), "--releases", "t", "--out", str(model_path)]) == 0
        out = tmp_path / "ranked.csv"
        rc = main(["predict", "--model", str(model_path), "--dataset", str(data), "--release", "s",
                   "--out", str(out)] + FAST_FLAGS)
        assert rc == 0
        assert {r[2] for r in read_csv(out)[1:]} == {"Y.java"}
        rc = main(["sensitivity", "--dataset", str(data), "--target", "k_risky", "--train-release", "t",
                   "--test-release", "s", "--out", str(tmp_path / "sens.csv")] + FAST_FLAGS)
        assert rc == 0
        out_dir = tmp_path / "cross"
        rc = main(["evaluate", "--dataset", str(data), "--metadata", str(meta), "--setting", "cross",
                   "--methods", "linedp", "--out-dir", str(out_dir)] + FAST_FLAGS)
        assert rc == 0
        assert read_csv(out_dir / "metrics.csv")[1][3] == "0.5"  # recall counts X.java's missed line


class TestMineAndDensity:
    def test_mine_end_to_end(self, tmp_path):
        snapshot = release_of_files(
            "rel-1.0",
            {
                "src/F.java": [(f"stmt {i};", False) for i in range(1, 12)],
                "src/G.java": [("alpha;", False), ("beta;", False)],
            },
        )
        snap_path = tmp_path / "snapshot.csv"
        write_dataset([snapshot], snap_path)
        commits = [
            {"commit_id": "c1", "message": "Fix K-12 crash",
             "changes": [{"path": "src/F.java", "removed": [{"line": 4, "content": "stmt 4;"}]}]},
            {"commit_id": "c2", "message": "unrelated K-99x",
             "changes": [{"path": "src/G.java", "removed": [{"line": 1, "content": "alpha;"}]}]},
        ]
        commits_path = tmp_path / "commits.jsonl"
        commits_path.write_text("\n".join(json.dumps(c) for c in commits))
        issues_path = tmp_path / "issues.txt"
        issues_path.write_text("K-12\n")
        out = tmp_path / "mined.csv"
        rc = main(["mine", "--commits", str(commits_path), "--issues", str(issues_path),
                   "--snapshot", str(snap_path), "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        by_key = {(r[1], r[2]): r for r in rows[1:]}
        assert by_key[("src/F.java", "4")][5] == "true"
        assert by_key[("src/F.java", "4")][4] == "true"
        assert by_key[("src/G.java", "1")][5] == "false"

    def test_mine_warns_once_about_unmatched_lines(self, tmp_path, capsys, caplog):
        snap_path, commits_path, issues_path = tmp_path / "snapshot.csv", tmp_path / "commits.jsonl", tmp_path / "ids"
        write_dataset([release_of_files("rel-1.0", {"src/F.java": [("alpha;", False)]})], snap_path)
        removed = [{"line": 1, "content": "alpha;"}, {"line": 1, "content": "gone;"}]
        commits_path.write_text(json.dumps({"commit_id": "c1", "message": "Fix K-1",
                                            "changes": [{"path": "src/F.java", "removed": removed}]}))
        issues_path.write_text("K-1\n")
        rc = main(["mine", "--commits", str(commits_path), "--issues", str(issues_path),
                   "--snapshot", str(snap_path), "--out", str(tmp_path / "mined.csv")])
        assert rc == 0
        assert capsys.readouterr().err == "warning: rel-1.0: 1 changed lines not matched to the snapshot\n"
        # a logged warning would reach stderr a second time, through logging's last-resort handler
        assert caplog.records == []

    def test_density(self, dataset_paths, tmp_path):
        root, data, meta = dataset_paths
        out = tmp_path / "density.csv"
        rc = main(["density", "--dataset", str(data), "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["release", "file_path", "loc", "defective_lines", "density"]
        assert len(rows) - 1 == 48  # 24 files x 2 releases
        for r in rows[1:]:
            assert float(r[4]) == pytest.approx(int(r[3]) / int(r[2]))


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
def test_written_files_take_the_umask_mode(tmp_path, umask):
    data, model = tmp_path / "dataset.csv", tmp_path / "model.json"
    previous = os.umask(umask)
    try:
        write_dataset(make_release_series(system="m", n_releases=1, seed=2, n_files=6, n_defective=2), data)
        assert main(["train", "--dataset", str(data), "--out", str(model)]) == 0
    finally:
        os.umask(previous)
    for path in (data, model, cache_path(data)):
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path.name


class TestExitCodes:
    def test_usage_error_is_one(self):
        with pytest.raises(SystemExit) as err:
            main(["predict", "--model"])
        assert err.value.code == 1

    def test_unknown_command_is_one(self):
        with pytest.raises(SystemExit) as err:
            main(["notacommand"])
        assert err.value.code == 1

    def test_data_error_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("release,file_path,line_number,line_content,file_label,line_label\nr,A,1,x,false,true\n")
        rc = main(["density", "--dataset", str(bad), "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "dataset, metadata, where",
        [
            pytest.param(HEADER + b'r,A.java,1,"x,false,false\n', None, "data.csv:2: no value for", id="unterminated-quote"),
            pytest.param(
                b"release,file_path,line_number,file_label,line_label,line_content\nr,A.java,1,false,false\n",
                None,
                "data.csv:2: no value for line_content",
                id="short-row-content-last",
            ),
            pytest.param(HEADER + b"r,A.java,1,x,false,false\n\xe9r,A.java,2,x,false,false\n", None, "data.csv:3:", id="not-utf8"),
            pytest.param(HEADER + b"r,A.java,1," + b"x" * 131_073 + b",false,false\n", None, "data.csv:2:", id="field-over-limit"),
            pytest.param(HEADER + b"r,A.java,1,x,false,false\n", b"release,release_date\nr\n", "meta.csv:2:", id="metadata-no-date"),
        ],
    )
    def test_malformed_dataset_is_data_error(self, tmp_path, capsys, dataset, metadata, where):
        data = tmp_path / "data.csv"
        data.write_bytes(dataset)
        if metadata is None:
            argv = ["density", "--out", str(tmp_path / "out.csv")]
        else:
            (tmp_path / "meta.csv").write_bytes(metadata)
            argv = ["evaluate", "--setting", "cross", "--out-dir", str(tmp_path / "out"),
                    "--metadata", str(tmp_path / "meta.csv")]
        assert main(argv + ["--dataset", str(data)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert where in err

    def test_missing_file_is_two(self, tmp_path, capsys):
        rc = main(["density", "--dataset", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o.csv")])
        assert rc == 2

    @pytest.mark.parametrize(
        "record, message",
        [
            pytest.param({"message": "K-1"}, "missing key 'commit_id'", id="no-commit-id"),
            pytest.param([1], "expected a JSON object, got list", id="not-an-object"),
            pytest.param({"commit_id": "c", "changes": [{"removed": []}]}, "missing key 'path'", id="change-no-path"),
            pytest.param(
                {"commit_id": "c", "changes": [{"path": "A.java", "removed": [{"content": "x"}]}]},
                "missing key 'line'",
                id="removed-no-line",
            ),
            pytest.param({"commit_id": "c", "changes": "zz"}, "'changes' must be list, got str", id="changes-not-list"),
        ],
    )
    def test_malformed_commit_export_is_data_error(self, tmp_path, capsys, record, message):
        commits = tmp_path / "commits.jsonl"
        commits.write_text(json.dumps({"commit_id": "ok", "message": "K-2"}) + "\n" + json.dumps(record) + "\n")
        (tmp_path / "issues.txt").write_text("K-1\n")
        write_dataset([release_of_files("r", {"A.java": [("x", False)]})], tmp_path / "snapshot.csv")
        rc = main(["mine", "--commits", str(commits), "--issues", str(tmp_path / "issues.txt"),
                   "--snapshot", str(tmp_path / "snapshot.csv"), "--out", str(tmp_path / "mined.csv")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {commits}:2: {message}\n"

    def test_deeply_nested_commit_record_is_data_error(self, tmp_path, capsys):
        commits = tmp_path / "commits.jsonl"
        commits.write_text(json.dumps({"commit_id": "ok", "message": "K-2"}) + "\n" + DEEP_JSON + "\n")
        (tmp_path / "issues.txt").write_text("K-1\n")
        write_dataset([release_of_files("r", {"A.java": [("x", False)]})], tmp_path / "snapshot.csv")
        rc = main(["mine", "--commits", str(commits), "--issues", str(tmp_path / "issues.txt"),
                   "--snapshot", str(tmp_path / "snapshot.csv"), "--out", str(tmp_path / "mined.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {commits}:2: bad JSON: ")
        assert not (tmp_path / "mined.csv").exists()

    @pytest.mark.parametrize(
        "bad, content, line",
        [
            pytest.param("model", b"\xff{}", 1, id="model"),
            pytest.param("commits", b'{"commit_id": "c1", "message": "K-1"}\n{"commit_id": "\xff"}\n', 2, id="commits"),
            pytest.param("issues", b"K-1\n\xffK-2\n", 2, id="issues"),
            pytest.param("config", b"seed = 1\n\xff = 2\n", 2, id="config"),
        ],
    )
    def test_non_utf8_input_is_data_error_naming_its_line(self, dataset_paths, tmp_path, capsys, bad, content, line):
        root, data, meta = dataset_paths
        paths = {name: tmp_path / name for name in ("model", "commits", "issues", "config")}
        paths["commits"].write_text("")
        paths["issues"].write_text("K-1\n")
        paths[bad].write_bytes(content)
        write_dataset([release_of_files("r", {"A.java": [("x", False)]})], tmp_path / "snapshot.csv")
        out = tmp_path / "out"
        mine = ["mine", "--commits", str(paths["commits"]), "--issues", str(paths["issues"]),
                "--snapshot", str(tmp_path / "snapshot.csv")]
        argv = {
            "model": ["predict", "--model", str(paths["model"]), "--dataset", str(data), "--release", "cli-2.0"],
            "commits": mine,
            "issues": mine,
            "config": ["predict", "--dataset", str(data), "--release", "cli-2.0", "--config", str(paths["config"])],
        }
        assert main(argv[bad] + ["--out", str(out)]) == 2
        prefix = "bad configuration: " if bad == "config" else ""
        expected = f"error: {prefix}{paths[bad]}:{line}: not UTF-8 text: byte 0xff (invalid start byte)\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["model", "config"])
    def test_bad_model_or_config_is_reported_before_the_dataset_is_loaded(self, tmp_path, capsys, bad):
        data = tmp_path / "data.csv"
        write_dataset(make_release_series(n_releases=2, seed=4, n_files=6, n_defective=2), data)
        (tmp_path / bad).write_bytes(b"\xff{}")
        argv = {
            "model": ["predict", "--model", str(tmp_path / "model"), "--release", "demo-1.0"],
            "config": ["predict", "--config", str(tmp_path / "config"), "--release", "demo-1.0"],
        }[bad]
        assert main(argv + ["--dataset", str(data), "--out", str(tmp_path / "out")]) == 2
        assert "not UTF-8 text" in capsys.readouterr().err
        assert not cache_path(data).exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["data.csv", bad])

    @pytest.mark.parametrize(
        "command",
        [["density"], ["predict", "--release", "cli-2.0", "--method", "ngram", "--train-release", "cli-1.0"]],
        ids=["density", "predict"],
    )
    def test_unwritable_output_is_data_error(self, dataset_paths, tmp_path, capsys, command):
        root, data, meta = dataset_paths
        (tmp_path / "file").write_text("a regular file, so no path below it can be created\n")
        rc = main(command + ["--dataset", str(data), "--out", str(tmp_path / "file" / "out.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_config_file_flags_win(self, dataset_paths, tmp_path):
        root, data, meta = dataset_paths
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\nlime_n = 150\nk_risky = 5\n# comment\n")
        out = tmp_path / "out.csv"
        model_path = tmp_path / "model.json"
        assert main(["train", "--dataset", str(data), "--releases", "cli-1.0", "--out", str(model_path)]) == 0
        rc = main(
            ["predict", "--model", str(model_path), "--dataset", str(data), "--release", "cli-2.0",
             "--out", str(out), "--config", str(cfg), "--lime-n", "200"]
        )
        assert rc == 0

    def test_single_class_training_release_is_data_error(self, tmp_path, capsys):
        train, test = unseen_token_pair()
        single = release_of_files("o", {"A.java": [("bug bug", True)], "B.java": [("spark spark", True)]})
        data = tmp_path / "data.csv"
        write_dataset([train, single, test], data)
        model_path = tmp_path / "model.json"
        assert main(["train", "--dataset", str(data), "--releases", "t", "--out", str(model_path)]) == 0
        capsys.readouterr()
        for argv in (
            ["predict", "--model", str(model_path), "--method", "tmi_lr", "--release", "s", "--train-release", "o"],
            ["sensitivity", "--target", "k_risky", "--train-release", "o", "--test-release", "s"],
        ):
            rc = main(argv + ["--dataset", str(data), "--out", str(tmp_path / "o.csv")] + FAST_FLAGS)
            assert rc == 2, argv[0]
            assert capsys.readouterr().err.startswith("error: training labels contain a single class")

    def test_single_neighbor_surrogate_rejected_before_training(self, dataset_paths, tmp_path, capsys, monkeypatch):
        root, data, meta = dataset_paths

        def no_training(*args, **kwargs):
            raise AssertionError("trained despite an invalid configuration")

        for where in ("linedefects.pipeline.train_file_model", "linedefects.experiments.train_file_model"):
            monkeypatch.setattr(where, no_training)
        out = tmp_path / "sens.csv"
        for argv in (
            ["sensitivity", "--target", "k_risky", "--train-release", "cli-1.0", "--test-release", "cli-2.0",
             "--out", str(out)],
            ["evaluate", "--setting", "within", "--methods", "linedp", "--out-dir", str(tmp_path / "ev")],
        ):
            rc = main(argv + ["--dataset", str(data), "--lime-n", "1"])
            assert rc == 2, argv[0]
            assert "lime_n must be >= 2" in capsys.readouterr().err
        assert not out.exists()

    def test_training_release_without_tokens_is_named_data_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_bytes(HEADER + b"".join(
            b'r,A.java,%d,"%s",false,false\n' % (i, content)
            for i, content in enumerate((b"{ }", b";", b"}", b"("), start=1)
        ))
        rc = main(["train", "--dataset", str(data), "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert capsys.readouterr().err == "error: the training releases hold no tokens, vocabulary would be empty\n"

    @pytest.mark.parametrize(
        "method, name", [("linedp", "lime_sigma"), ("ngram", "entropy_threshold_cross")], ids=["linedp", "ngram"]
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_non_finite_setting_is_data_error(self, dataset_paths, tmp_path, capsys, method, name, source):
        root, data, meta = dataset_paths
        model_path = tmp_path / "m.json"
        assert main(["train", "--dataset", str(data), "--releases", "cli-1.0", "--out", str(model_path)]) == 0
        capsys.readouterr()
        if source == "flag":
            setting = ["--" + name.replace("_", "-"), "nan"]
        else:
            (tmp_path / "run.cfg").write_text(f"{name} = nan\n")
            setting = ["--config", str(tmp_path / "run.cfg")]
        out = tmp_path / "out.csv"
        rc = main(["predict", "--model", str(model_path), "--dataset", str(data), "--release", "cli-2.0",
                   "--train-release", "cli-1.0", "--method", method, "--out", str(out)] + setting)
        assert rc == 2
        assert capsys.readouterr().err == f"error: bad configuration: {name} must be finite and positive\n"
        assert not out.exists()

    def test_bad_config_key_is_data_error(self, dataset_paths, tmp_path, capsys):
        root, data, meta = dataset_paths
        cfg = tmp_path / "run.cfg"
        cfg.write_text("unknown_key = 3\n")
        rc = main(["predict", "--dataset", str(data), "--release", "cli-2.0", "--method", "ngram",
                   "--train-release", "cli-1.0", "--out", str(tmp_path / "o.csv"), "--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: bad configuration: {cfg}:1: unknown config key 'unknown_key'\n"


class TestConfigFlags:
    # a valid value unlike the default for every RunConfig field
    VALUES = {
        "seed": "7", "k_risky": "3", "lime_n": "11", "lime_sigma": "2.5", "lime_k_features": "23",
        "entropy_threshold_within": "0.3", "entropy_threshold_cross": "0.4", "folds": "4", "repeats": "5",
        "parallelism": "2",
    }
    REQUIRED = {
        "train": ["--dataset", "d.csv", "--out", "m.json"],
        "predict": ["--dataset", "d.csv", "--release", "r", "--out", "o.csv"],
        "evaluate": ["--dataset", "d.csv", "--setting", "within", "--out-dir", "o"],
        "sensitivity": ["--dataset", "d.csv", "--target", "k_risky", "--train-release", "a",
                        "--test-release", "b", "--out", "o.csv"],
    }
    # the RunConfig fields each command reads
    FIELDS = {
        "train": set(),
        "predict": {"seed", "k_risky", "lime_n", "lime_sigma", "lime_k_features", "entropy_threshold_cross",
                    "parallelism"},
        "evaluate": set(FIELD_TYPES),
        "sensitivity": {"seed", "lime_n", "lime_sigma", "lime_k_features", "parallelism"},
    }
    # every flag of every command, besides --help
    OPTIONS = {
        "mine": {"--commits", "--issues", "--snapshot", "--out"},
        "train": {"--dataset", "--releases", "--out"},
        "predict": {"--model", "--dataset", "--release", "--method", "--train-release", "--out", "--method-column",
                    "--config", "--seed", "--k-risky", "--lime-n", "--lime-sigma", "--lime-k-features",
                    "--entropy-threshold-cross", "--workers"},
        "evaluate": {"--dataset", "--metadata", "--setting", "--methods", "--out-dir", "--config", "--seed",
                     "--k-risky", "--lime-n", "--lime-sigma", "--lime-k-features", "--entropy-threshold-within",
                     "--entropy-threshold-cross", "--folds", "--repeats", "--workers"},
        "sensitivity": {"--dataset", "--target", "--train-release", "--test-release", "--out", "--config", "--seed",
                        "--lime-n", "--lime-sigma", "--lime-k-features", "--workers"},
        "density": {"--dataset", "--out"},
    }

    @staticmethod
    def _subparsers():
        return next(a for a in build_parser()._actions if a.dest == "command").choices

    def test_each_command_takes_exactly_its_flags(self):
        options = {
            command: {flag for action in parser._actions for flag in action.option_strings} - {"-h", "--help"}
            for command, parser in self._subparsers().items()
        }
        assert options == self.OPTIONS

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_flags_map_one_to_one_onto_run_config_fields(self, command):
        assert list(self.VALUES) == list(FIELD_TYPES)
        flags = {
            action.option_strings[0]: action.dest
            for action in self._subparsers()[command]._actions
            if action.dest in FIELD_TYPES
        }
        # one flag per field the command reads, named after it, except --workers for parallelism
        assert flags == {
            ("--workers" if name == "parallelism" else "--" + name.replace("_", "-")): name
            for name in self.FIELDS[command]
        }
        argv = [command] + self.REQUIRED[command]
        for flag, name in flags.items():
            argv += [flag, self.VALUES[name]]
        args = build_parser().parse_args(argv)
        if command != "train":
            expected = RunConfig(**{name: FIELD_TYPES[name](self.VALUES[name]) for name in self.FIELDS[command]})
            assert _config_from_args(args) == expected

    @pytest.mark.parametrize(
        "command, flag, value",
        [("train", "--seed", "5"), ("train", "--workers", "8"), ("train", "--config", "run.cfg"),
         ("train", "--metadata", "releases.csv"), ("predict", "--folds", "3"),
         ("predict", "--entropy-threshold-within", "0.5"), ("sensitivity", "--k-risky", "5"),
         ("sensitivity", "--entropy-threshold-cross", "0.5")],
    )
    def test_a_flag_the_command_does_not_read_is_a_usage_error(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as err:
            main([command] + self.REQUIRED[command] + [flag, value])
        assert err.value.code == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "sensitivity"])
    def test_config_keys_the_command_does_not_read_are_checked_but_not_applied(self, command, tmp_path):
        # each key holds a value its RunConfig would reject, so applying one would fail the command
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 7\nfolds = 1\nrepeats = 0\nentropy_threshold_within = 0\n"
                       + ("k_risky = 150\n" if command == "sensitivity" else ""))
        args = build_parser().parse_args([command] + self.REQUIRED[command] + ["--config", str(cfg)])
        assert _config_from_args(args).seed == 7

    def test_predict_ignores_a_config_file_holding_one_fold(self, dataset_paths, tmp_path):
        root, data, meta = dataset_paths
        cfg = tmp_path / "run.cfg"
        cfg.write_text("folds = 1\n")
        argv = ["predict", "--dataset", str(data), "--release", "cli-2.0", "--method", "ngram",
                "--train-release", "cli-1.0"]
        assert main(argv + ["--out", str(tmp_path / "plain.csv")]) == 0
        assert main(argv + ["--out", str(tmp_path / "config.csv"), "--config", str(cfg)]) == 0
        assert (tmp_path / "config.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    @pytest.mark.parametrize(
        "file_text, flags, expected",
        [
            pytest.param("seed = 7\nparallelism = 1\n", [], 1, id="file-sets-workers"),
            pytest.param("seed = 7\nparallelism = 1\n", ["--workers", "2"], 2, id="flag-beats-file"),
            pytest.param("seed = 7\n", [], 3, id="all-cores-otherwise"),
        ],
    )
    def test_worker_count_from_flag_then_file_then_cores(
        self, dataset_paths, tmp_path, monkeypatch, file_text, flags, expected
    ):
        # the all-cores default must not count as an explicit --workers
        root, data, meta = dataset_paths
        cfg = tmp_path / "run.cfg"
        cfg.write_text(file_text)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        built = []
        original = cli._config_from_args
        monkeypatch.setattr(cli, "_config_from_args", lambda args: built.append(original(args)) or built[-1])
        argv = ["predict", "--dataset", str(data), "--release", "cli-2.0", "--method", "ngram",
                "--train-release", "cli-1.0", "--out", str(tmp_path / "o.csv")]
        assert main(argv + ["--config", str(cfg)] + flags) == 0
        assert built == [RunConfig(seed=7, parallelism=expected)]
