"""The benchmark's traced run wraps functions by name; these tests fail as soon as a wrapped name moves.

The traced run only reports a lost probe as ``not instrumented (missing)``
after its ops have run. Importing its probe list here checks every site in
about a second.
"""

from __future__ import annotations

import csv
import inspect
import sys
from pathlib import Path

import pytest

import linedefects
from linedefects.cli import main
from linedefects.config import RunConfig
from linedefects.corpus import load_dataset, write_dataset
from linedefects.model import load_model
from linedefects.pipeline import identify_lines, predict_files
from linedefects.synthetic import make_release_series

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import layers  # noqa: E402  (lives in perfbench/, put on the path above)


def test_every_probe_target_exists():
    probes = layers.probes(linedefects)
    assert probes
    missing = [
        f"{getattr(probe.target, '__name__', probe.target)}.{probe.attribute}"
        for probe in probes
        if getattr(probe.target, probe.attribute, None) is None
    ]
    assert missing == []


def test_probe_readers_find_the_arguments_they_read():
    # layers._identified reads the config as the fourth argument, layers._explanation the vector as the second
    assert list(inspect.signature(linedefects.pipeline.identify_lines).parameters)[3] == "config"
    assert list(inspect.signature(linedefects.pipeline.explain).parameters)[1] == "x"


# the span each method's run must record in the traced benchmark run
METHOD_SPANS = {
    "linedp": "pipeline.identify_lines",
    "random": "baselines.random_baseline",
    "tmi_lr": "baselines.tmi_lr_baseline",
    "ngram": "baselines.ngram_entropy_baseline",
}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("probe-data")
    releases = make_release_series(
        system="probe", n_releases=2, seed=3, n_files=16, n_defective=6, lines_per_file=(8, 12)
    )
    data, model = root / "dataset.csv", root / "model.json"
    write_dataset(releases, data)
    assert main(["train", "--dataset", str(data), "--releases", "probe-1.0", "--out", str(model)]) == 0
    return data, model


def _record_every_probe(monkeypatch) -> list[str]:
    """Wrap every probe site as the traced run does, recording span names instead of timing them."""
    seen: list[str] = []
    for probe in layers.probes(linedefects):
        original = getattr(probe.target, probe.attribute)

        def recorded(*args, _name=probe.name, _original=original, **kwargs):
            seen.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(probe.target, probe.attribute, recorded)
    return seen


@pytest.mark.parametrize("method", sorted(METHOD_SPANS))
def test_traced_run_sees_every_method(trained, tmp_path, monkeypatch, method):
    # a method called through a name no probe wraps would read 0 in the traced run, with no "missing" line
    data, model = trained
    seen = _record_every_probe(monkeypatch)
    argv = ["predict", "--dataset", str(data), "--model", str(model), "--release", "probe-2.0",
            "--train-release", "probe-1.0", "--method", method, "--out", str(tmp_path / "ranked.csv"),
            "--lime-n", "200", "--lime-k-features", "20", "--workers", "1"]
    assert main(argv) == 0
    assert METHOD_SPANS[method] in seen
    assert "corpus.load_dataset" in seen


def test_identified_counts_the_run_that_predict_writes(trained, tmp_path):
    # layers._identified reports pipeline.flagged_lines and pipeline.defect_prone_files from identify_lines' result
    data, model_path = trained
    out = tmp_path / "ranked.csv"
    assert main(["predict", "--dataset", str(data), "--model", str(model_path), "--release", "probe-2.0",
                 "--out", str(out), "--lime-n", "200", "--lime-k-features", "20", "--workers", "1"]) == 0
    with open(out, newline="", encoding="utf-8") as handle:
        rows = len(list(csv.reader(handle))) - 1
    model = load_model(model_path)
    [test] = [release for release in load_dataset(data) if release.release_id == "probe-2.0"]
    predicted = predict_files(model, test)
    config = RunConfig(lime_n=200, lime_k_features=20, parallelism=1)
    counts = layers._identified((model, test, predicted, config), {}, identify_lines(model, test, predicted, config))
    assert rows > 0
    assert counts["flagged"] == rows
    assert counts["defect_prone"] == len(predicted.defect_prone)
