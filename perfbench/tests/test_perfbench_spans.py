import json
import multiprocessing
import types
from pathlib import Path

import pytest

import layers
import spans
from spans import Span

BENCH = Path(__file__).resolve().parent.parent


def span(id, start, end, parent=None, name="x", op=1, **attrs):
    return Span(id, name, start, end, parent, op, attrs)


def test_self_time_on_hand_built_tree():
    # root [0,10]; children a [1,4] and b [3,6] overlap (parallel workers),
    # c [8,12] runs past the root's end; a has a child [2,3].
    tree = [
        span("root", 0, 10),
        span("a", 1, 4, "root"),
        span("b", 3, 6, "root"),
        span("c", 8, 12, "root"),
        span("a1", 2, 3, "a"),
    ]
    selfs = spans.self_times(tree)
    assert selfs["root"] == pytest.approx(10 - 5 - 2)  # union [1,6] and [8,10]
    assert selfs["a"] == pytest.approx(3 - 1)
    assert selfs["b"] == pytest.approx(3)
    assert selfs["c"] == pytest.approx(4)
    assert selfs["a1"] == pytest.approx(1)


def test_covered_merges_nested_and_disjoint_intervals():
    assert spans.covered(0, 10, [(1, 2), (1.5, 1.8), (5, 7), (6, 9), (-3, 0.5)]) == pytest.approx(5.5)
    assert spans.covered(0, 10, []) == 0.0


_FORKED = {}


def _traced_child():
    # reaches the tracer through memory inherited at fork, as the program's wrapped functions do
    return _FORKED["tracer"].call("worker.task", lambda: sum(range(1000)))


def test_worker_spans_come_back_with_their_parent(tmp_path):
    tracer = spans.Tracer(tmp_path / "spool")
    tracer.begin_op(1)
    _FORKED["tracer"] = tracer
    ctx = multiprocessing.get_context("fork")

    def run_pool():
        with ctx.Pool(1) as pool:
            assert pool.apply(_traced_child) == sum(range(1000))

    tracer.call("parent", run_pool)
    assert tracer.merge_workers() == 1
    parent = next(s for s in tracer.spans if s.name == "parent")
    child = next(s for s in tracer.spans if s.name == "worker.task")
    assert child.parent == parent.id and child.op == 1
    assert parent.start <= child.start <= child.end <= parent.end


def test_instrumented_restores_originals_and_skips_missing(tmp_path):
    def f(x):
        return x + 1

    target = types.ModuleType("target")
    target.f = f
    tracer = spans.Tracer(tmp_path / "spool")
    probes = [spans.Probe(target, "f", "t.f"), spans.Probe(target, "gone", "t.gone")]
    with spans.Instrumented(tracer, probes) as inst:
        assert target.f is not f
        assert target.f(1) == 2
        assert inst.missing == ["target.gone"]
    assert target.f is f
    assert [s.name for s in tracer.spans] == ["t.f"]


def test_identify_self_time_and_parallel_efficiency():
    tree = [
        span("op", 0, 10, name="op"),
        span("m", 0, 10, "op", name="cli.main"),
        span("id", 2, 10, "m", name="pipeline.identify_lines", defect_prone=3, flagged=7, workers=2),
        span("e1", 3, 9, "id", name="explain.explain", distinct_tokens=10, fidelity_r2=0.5, empty=False),
        span("e2", 3, 6, "id", name="explain.explain", distinct_tokens=20, fidelity_r2=0.7, empty=True),
    ]
    m = layers.layer_metrics(tree, {1: {"corpus.tokenize": 0}})
    assert m["pipeline.identify_self_s"] == pytest.approx(8 - 6)
    assert m["pipeline.explain_parallel_eff"] == pytest.approx((6 + 3) / (2 * 8))
    assert m["cli.self_s"] == pytest.approx(10 - 8)
    assert m["explain.calls"] == 2 and m["explain.empty_share"] == 0.5
    assert m["explain.distinct_tokens_p50"] == 15
    assert m["trace.op_s"] == 10


def test_metric_names_match_benchmark_json_and_layers_json():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in bench["per_layer"]}
    produced = set(layers.layer_metrics([span("op", 0, 1, name="op")], {}))
    mapped = [m for layer in json.loads((BENCH / "layers.json").read_text())["layers"] for m in layer["metrics"]]
    assert produced == declared
    assert sorted(mapped) == sorted(declared)
