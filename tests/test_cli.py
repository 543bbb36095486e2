from __future__ import annotations

import csv
import hashlib
import json
import multiprocessing
from dataclasses import asdict

import pytest

from linedefects.cli import _config_from_args, build_parser, main
from linedefects.config import FIELD_TYPES, RunConfig
from linedefects.corpus import write_dataset
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


HEADER = b"release,file_path,line_number,line_content,file_label,line_label\n"

FAST_FLAGS = ["--lime-n", "200", "--lime-k-features", "20", "--workers", "1", "--seed", "5"]


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestTrainPredict:
    def test_train_then_predict_twice_byte_identical(self, dataset_paths, tmp_path):
        root, data, meta = dataset_paths
        model_path = tmp_path / "model.json"
        rc = main(["train", "--dataset", str(data), "--releases", "cli-1.0", "--out", str(model_path)] + FAST_FLAGS)
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
        main(["train", "--dataset", str(data), "--releases", "cli-1.0", "--out", str(model_path)] + FAST_FLAGS)
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
        main(["train", "--dataset", str(data), "--releases", "cli-1.0", "--out", str(model_path)] + FAST_FLAGS)
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

    def test_unconverged_training_is_reported(self, dataset_paths, tmp_path, capsys, monkeypatch):
        root, data, meta = dataset_paths
        train = ["train", "--dataset", str(data), "--releases", "cli-1.0", "--out", str(tmp_path / "m.json")] + FAST_FLAGS
        assert main(train) == 0
        assert ", converged;" in capsys.readouterr().out
        monkeypatch.setattr("linedefects.model.MAX_ITERS", 1)
        assert main(train) == 0
        assert "NOT converged (warning)" in capsys.readouterr().out


@pytest.fixture(scope="module")
def trained_model(dataset_paths, tmp_path_factory):
    root, data, meta = dataset_paths
    path = tmp_path_factory.mktemp("cli-model") / "model.json"
    assert main(["train", "--dataset", str(data), "--releases", "cli-1.0", "--out", str(path)] + FAST_FLAGS) == 0
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


class TestModelDocument:
    @pytest.mark.parametrize(
        "edit, expected_rc",
        [
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
        assert errors[0] == errors[1] == "error: boom\n"
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
        assert main(["train", "--dataset", str(data), "--releases", "t", "--out", str(model_path)] + FAST_FLAGS) == 0
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
        argv = ["--dataset", str(data), "--out", str(tmp_path / "out.csv")]
        if metadata is None:
            argv = ["density"] + argv
        else:
            (tmp_path / "meta.csv").write_bytes(metadata)
            argv = ["train", "--metadata", str(tmp_path / "meta.csv")] + argv
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert where in err

    def test_missing_file_is_two(self, tmp_path, capsys):
        rc = main(["density", "--dataset", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o.csv")])
        assert rc == 2

    def test_config_file_flags_win(self, dataset_paths, tmp_path):
        root, data, meta = dataset_paths
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\nlime_n = 150\nk_risky = 5\n# comment\n")
        out = tmp_path / "out.csv"
        model_path = tmp_path / "model.json"
        main(["train", "--dataset", str(data), "--releases", "cli-1.0", "--out", str(model_path), "--config", str(cfg)])
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
        assert main(["train", "--dataset", str(data), "--releases", "t", "--out", str(model_path)] + FAST_FLAGS) == 0
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
        model_path = tmp_path / "m.json"
        for argv in (
            ["train", "--releases", "cli-1.0", "--out", str(model_path)],
            ["evaluate", "--setting", "within", "--methods", "linedp", "--out-dir", str(tmp_path / "ev")],
        ):
            rc = main(argv + ["--dataset", str(data), "--lime-n", "1"])
            assert rc == 2, argv[0]
            assert "lime_n must be >= 2" in capsys.readouterr().err
        assert not model_path.exists()

    def test_training_release_without_tokens_is_named_data_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_bytes(HEADER + b"".join(
            b'r,A.java,%d,"%s",false,false\n' % (i, content)
            for i, content in enumerate((b"{ }", b";", b"}", b"("), start=1)
        ))
        rc = main(["train", "--dataset", str(data), "--out", str(tmp_path / "m.json")])
        assert rc == 2
        assert capsys.readouterr().err == "error: the training releases hold no tokens, vocabulary would be empty\n"

    def test_bad_config_key_is_data_error(self, dataset_paths, tmp_path, capsys):
        root, data, meta = dataset_paths
        cfg = tmp_path / "run.cfg"
        cfg.write_text("unknown_key = 3\n")
        rc = main(["train", "--dataset", str(data), "--out", str(tmp_path / "m.json"), "--config", str(cfg)])
        assert rc == 2


class TestConfigFlags:
    # a valid value unlike the default for every RunConfig field
    VALUES = {
        "seed": "7", "k_risky": "3", "lime_n": "11", "lime_sigma": "2.5", "lime_k_features": "13",
        "entropy_threshold_within": "0.3", "entropy_threshold_cross": "0.4", "folds": "4", "repeats": "5",
        "parallelism": "2",
    }
    REQUIRED = {
        "predict": ["--dataset", "d.csv", "--release", "r", "--out", "o.csv"],
        "evaluate": ["--dataset", "d.csv", "--setting", "within", "--out-dir", "o"],
        "sensitivity": ["--dataset", "d.csv", "--target", "k_risky", "--train-release", "a",
                        "--test-release", "b", "--out", "o.csv"],
    }

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_flags_map_one_to_one_onto_run_config_fields(self, command):
        assert list(self.VALUES) == list(FIELD_TYPES)
        subparsers = next(a for a in build_parser()._actions if a.dest == "command")
        flags = {
            action.option_strings[0]: action.dest
            for action in subparsers.choices[command]._actions
            if action.dest in FIELD_TYPES
        }
        # one flag per field, named after it, except --workers for parallelism
        assert flags == {
            ("--workers" if name == "parallelism" else "--" + name.replace("_", "-")): name for name in FIELD_TYPES
        }
        argv = [command] + self.REQUIRED[command]
        for flag, name in flags.items():
            argv += [flag, self.VALUES[name]]
        args = build_parser().parse_args(argv)
        expected = RunConfig(**{name: kind(self.VALUES[name]) for name, kind in FIELD_TYPES.items()})
        assert _config_from_args(args) == expected
