"""What a command imports: scipy only where it computes, and nothing inside a pool worker's task.

The import checks run in a fresh interpreter, because this process has
loaded scipy already.
"""

from __future__ import annotations

import ctypes
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import linedefects
from linedefects import util
from linedefects.cli import main
from linedefects.corpus import write_dataset
from linedefects.synthetic import make_release_series

from conftest import release_of_files

ENV = {**os.environ, "PYTHONPATH": str(Path(linedefects.__file__).resolve().parents[1])}

# runs the CLI on its arguments, then prints the exit code and the scipy modules loaded
RUN_CLI = """
import json, sys
from linedefects.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""

# runs the CLI on sys.argv[2:] and appends, per pool task, whether a worker ran it and
# the modules it imported, to the file sys.argv[1]; forked workers inherit the wrapper
RECORD_TASK_IMPORTS = """
import json, os, sys
from linedefects import util
from linedefects.cli import main

parent, run_task, log = os.getpid(), util._run_task, sys.argv[1]

def recorded(task):
    before = set(sys.modules)
    result = run_task(task)
    with open(log, "a", encoding="utf-8") as out:
        out.write(json.dumps([os.getpid() != parent, sorted(set(sys.modules) - before)]) + "\\n")
    return result

util._run_task = recorded
sys.exit(main(sys.argv[2:]))
"""

FAST = ["--lime-n", "200", "--seed", "5"]


def _scipy_loaded(argv: list[str]) -> list[str]:
    done = subprocess.run([sys.executable, "-c", RUN_CLI, *argv], check=True, capture_output=True, text=True,
                          env=ENV, timeout=120)
    code, modules = json.loads(done.stdout.splitlines()[-1])
    assert code == 0, done.stderr
    return modules


def _scipy_loaded_by(statement: str) -> list[str]:
    code = f"import json, sys; {statement}\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    done = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True, env=ENV)
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def series(tmp_path_factory):
    """A three-release dataset and a model trained on its first release."""
    root = tmp_path_factory.mktemp("startup")
    data, model = root / "series.csv", root / "model.json"
    write_dataset(make_release_series(seed=0, n_releases=3), data)
    assert main(["train", "--dataset", str(data), "--releases", "demo-1.0", "--out", str(model)]) == 0
    return data, model


def test_importing_any_module_loads_no_scipy():
    assert _scipy_loaded_by("import linedefects.cli") == []


def test_density_and_help_load_no_scipy(series, tmp_path):
    data, _ = series
    assert _scipy_loaded(["density", "--dataset", str(data), "--out", str(tmp_path / "density.csv")]) == []
    assert _scipy_loaded(["--help"]) == []
    assert _scipy_loaded(["predict", "--help"]) == []


def test_mine_loads_no_scipy(tmp_path):
    snapshot = tmp_path / "snapshot.csv"
    write_dataset([release_of_files("rel-1.0", {"src/F.java": [("alpha;", False), ("beta;", False)]})], snapshot)
    commits = tmp_path / "commits.jsonl"
    commits.write_text(json.dumps({"commit_id": "c1", "message": "Fix K-1",
                                   "changes": [{"path": "src/F.java", "removed": [{"line": 1, "content": "alpha;"}]}]}))
    issues = tmp_path / "issues.txt"
    issues.write_text("K-1\n")
    argv = ["mine", "--commits", str(commits), "--issues", str(issues), "--snapshot", str(snapshot),
            "--out", str(tmp_path / "mined.csv")]
    assert _scipy_loaded(argv) == []


def test_ngram_baseline_loads_no_scipy(series, tmp_path):
    data, _ = series
    argv = ["predict", "--method", "ngram", "--dataset", str(data), "--release", "demo-2.0",
            "--train-release", "demo-1.0", "--out", str(tmp_path / "ngram.csv")]
    assert _scipy_loaded(argv) == []


def test_random_baseline_loads_no_optimizer_or_lapack(series, tmp_path):
    data, model = series
    loaded = _scipy_loaded(["predict", "--method", "random", "--model", str(model), "--dataset", str(data),
                            "--release", "demo-2.0", "--out", str(tmp_path / "random.csv")])
    # no more scipy than the count matrices and the logistic function load themselves: on a current scipy
    # that is neither the optimizer nor LAPACK, but an older scipy.special imports scipy.linalg on its own
    assert "scipy.sparse" in loaded
    assert set(loaded) <= set(_scipy_loaded_by("import scipy.sparse, scipy.special"))


def test_pooled_explanations_load_no_optimizer(series, tmp_path):
    data, model = series
    argv = ["predict", "--method", "linedp", "--model", str(model), "--dataset", str(data),
            "--release", "demo-2.0", "--out", str(tmp_path / "ranked.csv"), *FAST, "--workers", "2"]
    loaded = _scipy_loaded(argv)
    # no explanation calls the optimizer: the explain pool loads the lapack and special modules it calls, no more
    assert "scipy.linalg.lapack" in loaded
    assert "scipy.optimize" not in loaded


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="workers see the wrapper only when forked"
)
@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_pool_workers_import_nothing_while_running_a_task(series, tmp_path, command):
    data, model = series
    if command == "evaluate":  # the split pool
        argv = ["evaluate", "--dataset", str(data), "--setting", "within", "--folds", "2", "--repeats", "1",
                "--out-dir", str(tmp_path / "within")]
    else:  # the explain pool
        argv = ["predict", "--method", "linedp", "--model", str(model), "--dataset", str(data),
                "--release", "demo-2.0", "--out", str(tmp_path / "ranked.csv")]
    log = tmp_path / "tasks.jsonl"
    subprocess.run([sys.executable, "-c", RECORD_TASK_IMPORTS, str(log), *argv, *FAST, "--workers", "2"],
                   check=True, capture_output=True, env=ENV, timeout=300)
    tasks = [json.loads(line) for line in log.read_text().splitlines()]
    assert tasks and all(in_worker for in_worker, _ in tasks)
    assert [imported for _, imported in tasks if imported] == []


def _openblas(kind: str) -> dict:
    """Each loaded OpenBLAS's ``openblas_{kind}_num_threads`` function, under any of its exported names, by path."""
    found = {}
    for path in util._loaded_openblas():
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        for prefix in ("openblas_", "scipy_openblas_"):
            for suffix in ("", "64_"):
                fn = getattr(lib, f"{prefix}{kind}_num_threads{suffix}", None)
                if fn is not None:
                    fn.argtypes, fn.restype = ([], ctypes.c_int) if kind == "get" else ([ctypes.c_int], None)
                    found[path] = fn
    return found


def _blas_threads(task) -> dict[str, int]:
    return {path: getter() for path, getter in _openblas("get").items()}


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="workers run this module's function only when forked"
)
def test_a_pool_worker_runs_one_blas_thread():
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS beside numpy's)

    getters, setters = _openblas("get"), _openblas("set")
    if not getters.keys() & setters.keys():
        pytest.skip("no loaded OpenBLAS exports both thread-count functions")
    before = _blas_threads(None)
    try:
        # two threads here, whatever the environment set, so the workers have a count to lower
        for path in before.keys() & setters.keys():
            setters[path](2)
        if min(_blas_threads(None).values()) < 2:
            pytest.skip("OpenBLAS runs at most one thread on this machine")
        reports = util.pool_map(_blas_threads, range(2), (), workers=2)
    finally:
        for path in before.keys() & setters.keys():
            setters[path](before[path])
    assert reports == [{path: 1 for path in getters}] * 2
