from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, example, given, settings, strategies as st

from linedefects.corpus import FeatureVector, Vocabulary, build_vocabulary, vectorize
from linedefects.model import (
    TOLERANCE,
    _HessianProduct,
    _loss_and_gradient,
    load_model,
    predict_proba,
    save_model,
    standardized_coefficients,
    train_logistic,
)
from linedefects.synthetic import make_planted_release

import reference_trainer
from reference_corpus import features_to_csr


def proba(model, x: FeatureVector) -> float:
    """``predict_proba`` of a single file."""
    return float(predict_proba(model, features_to_csr([x]))[0])


def random_instances(rng, n=12, dim=5):
    X = []
    for _ in range(n):
        counts = {j: int(c) for j, c in enumerate(rng.integers(0, 4, size=dim)) if c > 0}
        X.append(FeatureVector(counts, dim))
    y = rng.random(n) < 0.5
    if y.all() or not y.any():
        y[0] = not y[0]
    return X, [bool(v) for v in y]


class TestTraining:
    def test_separable_toy(self):
        X = [FeatureVector({0: 1}, 1), FeatureVector({}, 1)]
        model = train_logistic(features_to_csr(X), [True, False])
        assert proba(model, X[0]) > proba(model, X[1])

    def test_identical_features_give_class_prior(self):
        # intercept-only optimum: constant prediction equal to the base rate
        X = [FeatureVector({0: 3, 1: 1}, 2) for _ in range(10)]
        y = [True] * 3 + [False] * 7
        model = train_logistic(features_to_csr(X), y)
        assert proba(model, X[0]) == pytest.approx(0.3, abs=0.01)

    def test_gradient_matches_finite_differences(self):
        # central finite-difference oracle on random small instances
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(10):
            X, y = random_instances(rng)
            Xm = features_to_csr(X)
            labels = np.asarray(y, dtype=float)
            theta = rng.normal(scale=0.5, size=Xm.shape[1] + 1)
            analytic = _loss_and_gradient(theta, Xm, Xm.T, labels)[1]
            h = 1e-6
            for j in range(theta.shape[0]):
                step = np.zeros_like(theta)
                step[j] = h
                numeric = (
                    _loss_and_gradient(theta + step, Xm, Xm.T, labels)[0]
                    - _loss_and_gradient(theta - step, Xm, Xm.T, labels)[0]
                ) / (2 * h)
                scale = max(1.0, abs(numeric))
                worst = max(worst, abs(analytic[j] - numeric) / scale)
        assert worst < 1e-5

    @pytest.mark.parametrize("scaled", [False, True], ids=["raw", "column-scaled"])
    def test_hessian_product_matches_finite_differences(self, scaled):
        # central differences of the gradient along every unit vector and one random direction
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(10):
            X, y = random_instances(rng)
            Xm = features_to_csr(X)
            if scaled:
                Xm = Xm @ sp.diags(rng.uniform(0.1, 3.0, size=Xm.shape[1]))
            labels = np.asarray(y, dtype=float)
            theta = rng.normal(scale=0.5, size=Xm.shape[1] + 1)
            h = 1e-5
            hessp = _HessianProduct()
            for v in [*np.eye(theta.shape[0]), rng.normal(size=theta.shape[0])]:
                analytic = hessp(theta, v, Xm, Xm.T, labels)
                numeric = (
                    _loss_and_gradient(theta + h * v, Xm, Xm.T, labels)[1]
                    - _loss_and_gradient(theta - h * v, Xm, Xm.T, labels)[1]
                ) / (2 * h)
                worst = max(worst, float(np.max(np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric)))))
        assert worst < 1e-5

    def test_cached_hessian_product_is_bitwise_the_uncached_one(self):
        rng = np.random.default_rng(3)
        X, y = random_instances(rng, n=30, dim=12)
        Xm = features_to_csr(X)
        labels = np.asarray(y, dtype=float)
        theta = rng.normal(size=Xm.shape[1] + 1)
        other = rng.normal(size=theta.shape[0])
        hessp = _HessianProduct()
        # repeated, changed, restored and equal-but-new thetas, then the last one mutated in place
        sequence = [theta, theta, other, other.copy(), theta, theta.copy()]
        for step, at in enumerate([*sequence, sequence[-1]]):
            if step == len(sequence):
                at[0] += 0.5
            for _ in range(3):
                v = rng.normal(size=theta.shape[0])
                expected = reference_trainer._hessian_product(at, v, Xm, labels)
                assert hessp(at, v, Xm, Xm.T, labels).tobytes() == expected.tobytes()

    def test_solver_hessian_products_are_bitwise_the_uncached_ones(self, monkeypatch):
        # every product trust-ncg asks for on a real fit, against the recomputed product
        calls = []

        class Checked(_HessianProduct):
            def __call__(self, theta, v, X, XT, y):
                hv = super().__call__(theta, v, X, XT, y)
                assert hv.tobytes() == reference_trainer._hessian_product(theta, v, X, y).tobytes()
                calls.append(theta.tobytes())
                return hv

        monkeypatch.setattr("linedefects.model._HessianProduct", Checked)
        release = make_planted_release("r", seed=4, n_files=20, n_defective=6)
        vocab = build_vocabulary(release)
        model = train_logistic(vectorize(release, vocab), [f.file_label for f in release.files])
        assert model.train_meta.converged
        assert len(set(calls)) > 1 and len(calls) > len(set(calls))

    def test_iteration_cap_reports_unconverged_fit(self, monkeypatch):
        rng = np.random.default_rng(9)
        X, y = random_instances(rng, n=20, dim=8)
        assert train_logistic(features_to_csr(X), y).train_meta.converged
        monkeypatch.setattr("linedefects.model.MAX_ITERS", 1)
        meta = train_logistic(features_to_csr(X), y).train_meta
        assert meta.iterations == 1
        assert not meta.converged
        assert meta.final_grad_norm > TOLERANCE

    def test_single_class_rejected(self):
        X = [FeatureVector({0: 1}, 1), FeatureVector({0: 2}, 1)]
        with pytest.raises(ValueError, match="single class"):
            train_logistic(features_to_csr(X), [True, True])

    def test_training_is_bitwise_deterministic(self):
        rng = np.random.default_rng(9)
        X, y = random_instances(rng, n=20, dim=8)
        m1 = train_logistic(features_to_csr(X), y)
        m2 = train_logistic(features_to_csr(X), y)
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias


@st.composite
def small_designs(draw):
    """Small count designs: constant and duplicate columns, often n < p, and labels that
    are random or near-separable (a threshold on one column, at most one label flipped)."""
    n = draw(st.integers(2, 10))
    p = draw(st.integers(1, 14))
    counts = np.array(draw(st.lists(st.integers(0, 4), min_size=n * p, max_size=n * p))).reshape(n, p)
    for j in range(p):
        kind = draw(st.sampled_from(["free", "free", "constant", "duplicate"]))
        if kind == "constant":
            counts[:, j] = draw(st.integers(0, 4))
        elif kind == "duplicate" and j:
            counts[:, j] = counts[:, draw(st.integers(0, j - 1))]
    if draw(st.booleans()):
        column = counts[:, draw(st.integers(0, p - 1))]
        y = column > np.median(column)
        if draw(st.booleans()):
            flip = draw(st.integers(0, n - 1))
            y[flip] = not y[flip]
    else:
        y = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    if y.all() or not y.any():
        y[0] = not y[0]
    X = [FeatureVector({j: int(c) for j, c in enumerate(row) if c > 0}, p) for row in counts]
    return X, [bool(v) for v in y]


class TestAgainstReferenceTrainer:
    """The gradient loop the trust-region solver replaced is the oracle."""

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(small_designs())
    def test_objective_no_worse_than_reference_loop(self, design):
        X, y = design
        Xm = features_to_csr(X)
        labels = np.asarray(y, dtype=float)
        model = train_logistic(features_to_csr(X), y)
        f, g = _loss_and_gradient(np.append(model.weights, model.bias), Xm, Xm.T, labels)
        reference = reference_trainer._RawDesign(Xm)
        theta, _ = reference_trainer._minimize(reference, labels, reference_trainer.TrainConfig())
        f_reference = reference_trainer._objective(theta, reference, labels, 1.0)
        assert f <= f_reference + 1e-9 * abs(f_reference)
        assert float(np.linalg.norm(g)) <= TOLERANCE
        assert model.train_meta.converged

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(small_designs())
    # a constant column of ten 1s: mean(x^2) - mean(x)^2 in floats is 1e-16, not 0
    @example(([FeatureVector({0: 1}, 2)] * 9 + [FeatureVector({0: 1, 1: 1}, 2)], [True] + [False] * 9))
    def test_standardized_coefficients_match_tight_reference_loop(self, design):
        # The reference z-scores lazily, centring included; the trainer only scales.
        # Run tight, the loop either converges or stalls at its round-off floor
        # (|g| of 1e-9 to 2e-7 on these designs) within a few hundred iterations.
        X, y = design
        labels = np.asarray(y, dtype=float)
        tight = reference_trainer.TrainConfig(max_iters=500, tolerance=1e-10)
        theta, meta = reference_trainer._minimize(
            reference_trainer._StandardizedDesign(features_to_csr(X)), labels, tight
        )
        assert meta.final_grad_norm <= TOLERANCE
        np.testing.assert_allclose(standardized_coefficients(features_to_csr(X), y)[0], theta[:-1], rtol=0, atol=1e-5)


class TestPredictProba:
    def test_zero_model_gives_half(self):
        model = train_logistic(
            features_to_csr([FeatureVector({0: 1}, 1), FeatureVector({}, 1)]), [True, False]
        )
        zero = model.__class__(
            weights=np.zeros(1),
            bias=0.0,
            vocab_fingerprint="",
            train_meta=model.train_meta,
        )
        assert proba(zero, FeatureVector({0: 5}, 1)) == 0.5
        assert proba(zero, FeatureVector({}, 1)) == 0.5

    def test_strictly_inside_unit_interval_and_monotone(self):
        model = train_logistic(
            features_to_csr([FeatureVector({0: 1}, 1), FeatureVector({}, 1)]), [True, False]
        )
        big = model.__class__(
            weights=np.array([100.0]),
            bias=0.0,
            vocab_fingerprint="",
            train_meta=model.train_meta,
        )
        previous = 0.0
        for count in (0, 1, 2, 5):
            p = proba(big, FeatureVector({0: count} if count else {}, 1))
            assert 0.0 < p < 1.0
            assert p >= previous
            previous = p

    def test_dimension_mismatch_rejected(self):
        model = train_logistic(
            features_to_csr([FeatureVector({0: 1}, 1), FeatureVector({}, 1)]), [True, False]
        )
        with pytest.raises(ValueError, match="dimension"):
            proba(model, FeatureVector({0: 1}, 3))


class TestStandardizedCoefficients:
    def test_planted_signal_has_max_coefficient(self):
        rng = np.random.default_rng(3)
        n, dim, target = 80, 30, 7
        X, y = [], []
        for _ in range(n):
            counts = {j: int(c) for j, c in enumerate(rng.integers(0, 4, size=dim)) if c > 0}
            has = bool(rng.random() < 0.5)
            if has:
                counts[target] = counts.get(target, 0) + 3
            else:
                counts.pop(target, None)
            X.append(FeatureVector(counts, dim))
            y.append(has)
        coefs, _ = standardized_coefficients(features_to_csr(X), y)
        assert int(np.argmax(coefs)) == target
        # the noise-label test below checks that pure noise stays under this bar
        assert coefs[target] > 1.0

    def test_noise_labels_stay_small(self):
        rng = np.random.default_rng(4)
        n, dim = 80, 30
        X = []
        for _ in range(n):
            counts = {j: int(c) for j, c in enumerate(rng.integers(0, 4, size=dim)) if c > 0}
            X.append(FeatureVector(counts, dim))
        y = [bool(v) for v in rng.random(n) < 0.5]
        coefs, _ = standardized_coefficients(features_to_csr(X), y)
        # planted-signal magnitude from the previous fixture is > 1
        assert float(np.max(np.abs(coefs))) < 1.0

    def test_constant_column_coefficient_zero(self):
        X = [FeatureVector({0: 2, 1: (i % 3) + 1}, 2) for i in range(12)]
        y = [bool(i % 2) for i in range(12)]
        coefs, _ = standardized_coefficients(features_to_csr(X), y)
        assert abs(coefs[0]) < 1e-6

    def test_scaling_one_feature_preserves_signs_and_ranking(self):
        rng = np.random.default_rng(8)
        n, dim = 60, 10
        X, y = [], []
        for _ in range(n):
            counts = {j: int(c) for j, c in enumerate(rng.integers(0, 5, size=dim)) if c > 0}
            X.append(FeatureVector(counts, dim))
            y.append(bool(rng.random() < 0.4))
        if all(y) or not any(y):
            y[0] = not y[0]
        base, _ = standardized_coefficients(features_to_csr(X), y)
        scaled_X = [
            FeatureVector({j: c * 3 if j == 4 else c for j, c in fv.entries.items()}, dim)
            for fv in X
        ]
        scaled, _ = standardized_coefficients(features_to_csr(scaled_X), y)
        assert np.array_equal(np.sign(base), np.sign(scaled))
        assert list(np.argsort(base)) == list(np.argsort(scaled))


class TestPersistence:
    def test_round_trip(self, tmp_path):
        import json

        release = make_planted_release("r", seed=2, n_files=10, n_defective=4)
        vocab = build_vocabulary(release)
        X = vectorize(release, vocab)
        y = [f.file_label for f in release.files]
        model = train_logistic(X, y, vocab=vocab)
        path = tmp_path / "model.json"
        save_model(model, vocab, path)
        loaded, loaded_vocab = load_model(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.bias == model.bias
        assert loaded_vocab.token_to_index == vocab.token_to_index
        assert predict_proba(loaded, X).tobytes() == predict_proba(model, X).tobytes()
        doc = json.loads(path.read_text())
        assert "scaler" not in doc
        # format-1 documents may still carry a null "scaler" entry
        doc["scaler"] = None
        path.write_text(json.dumps(doc))
        reloaded, _ = load_model(path)
        assert np.array_equal(reloaded.weights, model.weights)
        assert reloaded.bias == model.bias

    def test_fingerprint_mismatch_detected(self, tmp_path):
        import json

        release = make_planted_release("r", seed=2, n_files=10, n_defective=4)
        vocab = build_vocabulary(release)
        X = vectorize(release, vocab)
        model = train_logistic(X, [f.file_label for f in release.files], vocab=vocab)
        path = tmp_path / "model.json"
        save_model(model, vocab, path)
        doc = json.loads(path.read_text())
        doc["tokens"][0] = doc["tokens"][0] + "_tampered"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="hash"):
            load_model(path)

    def test_unknown_version_rejected(self, tmp_path):
        import json

        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    def test_wrong_vocab_rejected_at_predict_time(self):
        release = make_planted_release("r", seed=2, n_files=10, n_defective=4)
        vocab = build_vocabulary(release)
        X = vectorize(release, vocab)
        model = train_logistic(X, [f.file_label for f in release.files], vocab=vocab)
        other = Vocabulary(("alien",))
        with pytest.raises(ValueError, match="fingerprint"):
            model.check_vocab(other)
