from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from linedefects.config import RunConfig
from linedefects.corpus import FeatureVector, Vocabulary, vectorize
from linedefects.explain import (
    DEFAULT_KERNEL_WIDTH,
    _LASSO_GRID_DECAY,
    _LASSO_GRID_POINTS,
    _MIN_DIAG,
    _k_lasso_arrays,
    _lasso_select,
    _neighbor_masks,
    _surrogate_data,
    active_token_indices,
    explain,
)
from linedefects.model import LogisticModel, TrainMeta
from linedefects.pipeline import defect_prone_files, file_seed, predict_files, train_file_model

from reference_explainer import (
    NeighborSample,
    cd_k_lasso_arrays,
    generate_neighbors,
    k_lasso,
    kernel_weight,
    predict_neighbors,
    reference_neighbor_masks,
)


def linear_model(weights, bias=0.0):
    meta = TrainMeta(0, True, 0.0)
    return LogisticModel(
        weights=np.asarray(weights, dtype=float),
        bias=bias,
        vocab_fingerprint="",
        train_meta=meta,
    )


def vocab_of(n):
    return Vocabulary(tuple(f"tok{i:02d}" for i in range(n)))


class TestGenerateNeighbors:
    def test_single_token_never_deactivated(self):
        x = FeatureVector({3: 2}, 10)
        for seed in (0, 1, 99):
            samples = generate_neighbors(x, n=4, seed=seed)
            assert all(bool(s.active_mask.all()) for s in samples)

    def test_n_one_returns_original_only(self):
        x = FeatureVector({0: 1, 1: 2}, 4)
        samples = generate_neighbors(x, n=1, seed=0)
        assert len(samples) == 1
        assert samples[0].active_mask.all()
        assert samples[0].perturbed_vector.entries == x.entries

    def test_mean_active_fraction_matches_uniform_m_scheme(self):
        # oracle: m ~ U{0..D-1}, so E[active fraction] = (D+1)/(2D); 0.55 at D=10
        d = 10
        x = FeatureVector({i: 1 for i in range(d)}, d)
        samples = generate_neighbors(x, n=5000, seed=123)
        fractions = [s.active_mask.mean() for s in samples]
        assert np.mean(fractions) == pytest.approx((d + 1) / (2 * d), abs=0.03)

    def test_first_sample_is_original(self):
        x = FeatureVector({0: 3, 2: 1}, 5)
        samples = generate_neighbors(x, n=50, seed=7)
        assert samples[0].active_mask.all()
        assert samples[0].perturbed_vector.entries == {0: 3, 2: 1}

    def test_perturbed_vector_zeroes_deactivated_counts(self):
        x = FeatureVector({0: 3, 2: 1, 4: 2}, 5)
        for s in generate_neighbors(x, n=64, seed=11):
            expected = {
                idx: count
                for (idx, count), keep in zip(sorted(x.entries.items()), s.active_mask)
                if keep
            }
            assert s.perturbed_vector.entries == expected

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            generate_neighbors(FeatureVector({}, 5), n=10, seed=0)


class TestKernelWeight:
    def test_identical_masks(self):
        mask = np.ones(8, dtype=bool)
        assert kernel_weight(mask, mask, width=25.0) == pytest.approx(1.0)

    def test_half_active_hand_computed(self):
        original = np.ones(8, dtype=bool)
        sample = np.array([True] * 4 + [False] * 4)
        # cosine distance 1 - 1/sqrt(2), weight exp(-d^2 / sigma^2)
        d = 1.0 - 1.0 / math.sqrt(2.0)
        for sigma in (25.0, 1.0, 0.3):
            assert kernel_weight(original, sample, sigma) == pytest.approx(
                math.exp(-(d**2) / sigma**2)
            )

    def test_wide_kernel_limit(self):
        original = np.ones(6, dtype=bool)
        sample = np.array([True] + [False] * 5)
        assert kernel_weight(original, sample, width=1e9) == pytest.approx(1.0, abs=1e-12)

    def test_all_false_mask_uses_distance_one(self):
        original = np.ones(6, dtype=bool)
        sample = np.zeros(6, dtype=bool)
        sigma = 2.0
        assert kernel_weight(original, sample, sigma) == pytest.approx(math.exp(-1.0 / sigma**2))


def labelled_samples(masks, y, weights):
    dim = masks.shape[1]
    out = []
    for mask, pred, w in zip(masks, y, weights):
        fv = FeatureVector({i: 1 for i, keep in enumerate(mask) if keep}, dim)
        out.append(NeighborSample(active_mask=np.asarray(mask, bool), perturbed_vector=fv, predicted=float(pred), weight=float(w)))
    return out


class TestKLasso:
    def test_constant_predictions_give_all_zero(self):
        rng = np.random.default_rng(0)
        masks = rng.random((200, 6)) < 0.5
        masks[0] = True
        y = np.full(200, 0.42)
        coefs = k_lasso(labelled_samples(masks, y, np.ones(200)), k=3)
        assert all(abs(v) <= 1e-9 for v in coefs.values())

    def test_planted_linear_response_recovered_exactly(self):
        rng = np.random.default_rng(1)
        masks = rng.random((2000, 8)) < 0.5
        masks[0] = True
        target = 5
        y = 0.3 + 0.4 * masks[:, target]
        coefs = k_lasso(labelled_samples(masks, y, np.ones(2000)), k=3)
        assert coefs[target] == pytest.approx(0.4, abs=1e-6)
        for j, v in coefs.items():
            if j != target:
                assert abs(v) <= 1e-6

    def test_budget_one_picks_larger_effect(self):
        rng = np.random.default_rng(2)
        masks = rng.random((3000, 6)) < 0.5
        masks[0] = True
        strong, weak = 1, 4
        y = 0.1 + 0.4 * masks[:, strong] + 0.1 * masks[:, weak]
        coefs = k_lasso(labelled_samples(masks, y, np.ones(3000)), k=1)
        assert set(coefs) == {strong}

    def test_degenerate_design_not_an_error(self):
        masks = np.ones((50, 4), dtype=bool)
        y = np.linspace(0, 1, 50)
        coefs = k_lasso(labelled_samples(masks, y, np.ones(50)), k=2)
        assert coefs == {}

    def test_feature_names_mapping(self):
        rng = np.random.default_rng(3)
        masks = rng.random((500, 3)) < 0.5
        masks[0] = True
        y = 0.2 + 0.5 * masks[:, 0]
        names = ["alpha", "beta", "gamma"]
        coefs = k_lasso(labelled_samples(masks, y, np.ones(500)), k=1, feature_names=names)
        assert set(coefs) == {"alpha"}


class TestExplain:
    def test_planted_positive_token_scores_highest(self):
        # model with a single strongly positive weight on "BUG"
        weights = np.full(6, -0.2)
        bug_index = 2
        weights[bug_index] = 3.0
        model = linear_model(weights)
        vocab = vocab_of(6)
        x = FeatureVector({i: 1 for i in range(6)}, 6)
        hits = 0
        for seed in range(100):
            expl = explain(model, x, vocab, n=300, k=6, seed=seed)
            top = max(expl.scores, key=expl.scores.get)
            hits += top == vocab.tokens[bug_index] and expl.scores[top] > 0
        assert hits >= 95

    def test_zero_weight_model_gives_zero_scores(self):
        model = linear_model(np.zeros(5))
        vocab = vocab_of(5)
        x = FeatureVector({i: 2 for i in range(5)}, 5)
        expl = explain(model, x, vocab, n=500, k=5, seed=4)
        assert all(abs(v) <= 1e-9 for v in expl.scores.values())

    def test_file_with_only_negative_weight_tokens_has_no_risky_scores(self):
        weights = np.array([-0.8, -0.5, -1.2, 2.0, 1.5])
        model = linear_model(weights, bias=0.5)
        vocab = vocab_of(5)
        x = FeatureVector({0: 1, 1: 2, 2: 1}, 5)  # shares no positive-weight tokens
        expl = explain(model, x, vocab, n=2000, k=5, seed=9)
        assert max(expl.scores.values()) < 1e-6

    def test_deterministic_given_seed(self):
        model = linear_model(np.array([0.5, -0.3, 1.0, 0.1]))
        vocab = vocab_of(4)
        x = FeatureVector({0: 1, 1: 3, 2: 1, 3: 2}, 4)
        a = explain(model, x, vocab, n=400, k=4, seed=77)
        b = explain(model, x, vocab, n=400, k=4, seed=77)
        assert a == b
        c = explain(model, x, vocab, n=400, k=4, seed=78)
        assert c != a

    def test_scores_only_for_tokens_present_in_file(self):
        model = linear_model(np.array([0.5, -0.3, 1.0, 0.1, 0.9]))
        vocab = vocab_of(5)
        x = FeatureVector({1: 2, 3: 1}, 5)
        expl = explain(model, x, vocab, n=300, k=5, seed=0)
        assert set(expl.scores) <= {vocab.tokens[1], vocab.tokens[3]}

    def test_budget_respected_and_fidelity_nonnegative(self):
        model = linear_model(np.linspace(-1, 1, 12))
        vocab = vocab_of(12)
        x = FeatureVector({i: 1 for i in range(12)}, 12)
        expl = explain(model, x, vocab, n=600, k=4, seed=5)
        assert len(expl.scores) <= 4
        assert expl.fidelity_r2 >= 0.0

    def test_sign_recovery_on_linear_presence_model(self):
        rng = np.random.default_rng(6)
        weights = rng.uniform(0.5, 1.5, size=10) * rng.choice([-1.0, 1.0], size=10)
        model = linear_model(weights, bias=-float(weights.sum()) / 2)
        vocab = vocab_of(10)
        x = FeatureVector({i: 1 for i in range(10)}, 10)
        expl = explain(model, x, vocab, n=4000, k=10, seed=13)
        for token, score in expl.scores.items():
            assert np.sign(score) == np.sign(weights[vocab.token_to_index[token]])

    def test_empty_vector_rejected(self):
        model = linear_model(np.zeros(3))
        with pytest.raises(ValueError, match="empty"):
            explain(model, FeatureVector({}, 3), vocab_of(3), n=10, k=2, seed=0)

    def test_saturated_predictions_give_empty_explanation(self):
        # every neighbor's probability clips at 1 - 1e-12: c is rounding noise of ~1e-14,
        # which the lasso would otherwise turn into tiny risky (positive) scores
        model = linear_model(np.full(50, 2.0), bias=40.0)
        x = FeatureVector({i: 1 for i in range(50)}, 50)
        masks, probs, weights = _surrogate_data(model, x, list(range(50)), 5000, DEFAULT_KERNEL_WIDTH, 0)
        assert np.all(probs == 1.0 - 1e-12)
        assert _k_lasso_arrays(masks, probs, weights, 100) == ({}, 0.0)
        expl = explain(model, x, vocab_of(50), n=5000, k=100, seed=0)
        assert expl.scores == {} and expl.fidelity_r2 == 0.0


class TestComposition:
    def test_manual_composition_matches_explain(self):
        # generate_neighbors -> predict_proba -> kernel_weight -> k_lasso
        weights = np.array([1.2, -0.7, 0.4, 0.9])
        model = linear_model(weights, bias=-0.5)
        vocab = vocab_of(4)
        x = FeatureVector({0: 2, 1: 1, 2: 1, 3: 1}, 4)
        seed, n, k, sigma = 21, 800, 4, 25.0
        samples = predict_neighbors(model, generate_neighbors(x, n, seed), sigma)
        manual = k_lasso(samples, k, feature_names=[vocab.tokens[i] for i in sorted(x.entries)])
        integrated = explain(model, x, vocab, n=n, k=k, kernel_width=sigma, seed=seed)
        assert set(manual) == set(integrated.scores)
        for token, value in manual.items():
            assert integrated.scores[token] == pytest.approx(value, rel=1e-9, abs=1e-12)


class TestNeighborMasks:
    @pytest.mark.parametrize("d", [2, 55, 290])
    def test_threshold_matches_double_argsort(self, d):
        for seed in range(20):
            fast = _neighbor_masks(1000, d, np.random.default_rng(seed))
            slow = reference_neighbor_masks(1000, d, np.random.default_rng(seed))
            np.testing.assert_array_equal(fast, slow)

    def test_tied_noise_falls_back_to_ranks(self):
        class TiedDraws:
            """Stands in for the generator: fixed m and noise with ties at the threshold."""

            def integers(self, low, high, size):
                return np.array([2, 1, 3])[:size]

            def random(self, shape):
                return np.array(
                    [[0.5, 0.5, 0.2, 0.9], [0.3, 0.3, 0.3, 0.3], [0.1, 0.7, 0.7, 0.7]]
                )[: shape[0]]

        fast = _neighbor_masks(4, 4, TiedDraws())
        slow = reference_neighbor_masks(4, 4, TiedDraws())
        np.testing.assert_array_equal(fast, slow)
        assert fast[1:].sum(axis=1).tolist() == [2, 3, 1]


def path_selection(masks, y, weights, k):
    """Phase 1 of ``_k_lasso_arrays`` on its own: (G, c, grid, beta, lam), or None without signal."""
    w_total = float(weights.sum())
    X = masks.astype(np.float64)
    xbar = (weights @ X) / w_total
    ybar = float(weights @ y) / w_total
    G = (X * weights[:, None]).T @ X - w_total * np.outer(xbar, xbar)
    c = X.T @ (weights * y) - w_total * xbar * ybar
    lam_max = float(np.max(np.abs(c)))
    if lam_max <= 1e-9:
        return None
    grid = np.geomspace(lam_max, lam_max * _LASSO_GRID_DECAY, _LASSO_GRID_POINTS)
    beta, lam = _lasso_select(G, c, grid, min(k, masks.shape[1]))
    return G, c, grid, beta, lam


def assert_lasso_optimal(G, c, beta, lam):
    """KKT conditions of min 1/2 b'Gb - c'b + lam*|b|_1, within 1e-9 of lam."""
    r = c - G @ beta
    on = beta != 0
    can_enter = G.diagonal() > _MIN_DIAG
    assert not (on & ~can_enter).any()
    # active: r_j = lam * sign(b_j); inactive: |r_j| <= lam
    assert np.all(np.abs(r[on] - lam * np.sign(beta[on])) <= 1e-9 * lam)
    assert np.all(np.abs(r[can_enter & ~on]) <= lam * (1 + 1e-9))


def assert_matches_coordinate_descent(masks, y, weights, k):
    """The path solver selects what coordinate descent selects.

    They may differ only where coordinate descent stopped at its sweep cap
    at some penalty, so that its iterate is not the lasso solution there.
    Then the path's solution must be optimal, and the difference is
    bounded: one swapped pair of features (a near tie at the top-k cut) and
    a fidelity within 1e-3.
    """
    fast, fast_r2 = _k_lasso_arrays(masks, y, weights, k)
    slow, slow_r2, capped = cd_k_lasso_arrays(masks, y, weights, k)
    if set(fast) != set(slow):
        assert capped, "supports differ although coordinate descent converged"
        assert len(set(fast) - set(slow)) == len(set(slow) - set(fast)) == 1
        assert fast_r2 == pytest.approx(slow_r2, abs=1e-3)
        G, c, _, beta, lam = path_selection(masks, y, weights, k)
        assert_lasso_optimal(G, c, beta, lam)
        return
    for j, value in slow.items():
        assert fast[j] == pytest.approx(value, abs=1e-6)
    assert fast_r2 == pytest.approx(slow_r2, abs=1e-6)


class TestLassoPathMatchesCoordinateDescent:
    def test_planted_corpus_surrogates(self, planted_pair):
        # d (~50 distinct tokens) < k = 100, as in within-release CV
        train, test = planted_pair
        config = RunConfig(seed=1)
        model, vocab = train_file_model(train)
        files = defect_prone_files(test, predict_files(model, vocab, test))
        assert len(files) >= 3
        X = vectorize(test, vocab)
        for i in files[:3]:
            f, x = test.files[i], FeatureVector.from_row(X, i)
            indices = active_token_indices(x)
            seed = file_seed(config.seed, f.release_id, f.path)
            masks, probs, weights = _surrogate_data(model, x, indices, config.lime_n, config.lime_sigma, seed)
            assert masks.shape[1] < config.lime_k_features
            assert_matches_coordinate_descent(masks, probs, weights, config.lime_k_features)

    @pytest.mark.parametrize("model_seed", [0, 31])
    def test_bench_shaped_surrogate(self, model_seed):
        # n = 5000 neighbors, d = 300 distinct tokens, k = 100: the budget binds.
        # Coordinate descent hits its sweep cap on such designs. With model
        # seed 31 it then swaps the 100th and 101st features (a near tie that
        # the exact path orders correctly); with seed 0 both select one set.
        rng = np.random.default_rng(model_seed)
        d = 300
        contrib = rng.normal(0.0, 0.05, d)
        contrib[rng.choice(d, 12, replace=False)] += rng.uniform(0.5, 1.5, 12)
        model = linear_model(contrib, bias=-0.2)
        x = FeatureVector({i: 1 for i in range(d)}, d)
        masks, probs, weights = _surrogate_data(model, x, list(range(d)), 5000, 25.0, seed=7)
        fast, _ = _k_lasso_arrays(masks, probs, weights, 100)
        assert len(fast) == 100
        assert_matches_coordinate_descent(masks, probs, weights, 100)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_well_posed_designs(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 25))
        n = int(rng.integers(3 * d, 200))
        masks = rng.random((n, d)) < rng.uniform(0.2, 0.8)
        y = rng.random(n)
        weights = rng.uniform(0.5, 1.0, n)
        assert_matches_coordinate_descent(masks, y, weights, int(rng.integers(1, d + 2)))


@st.composite
def small_designs(draw):
    """Degenerate small designs: constant and duplicate columns, n <= d, constant y.

    Predictions and weights are dyadic, so every non-zero entry of c is far
    above its rounding error; c is pure rounding noise only when the
    response carries no signal (e.g. constant y).
    """
    n = draw(st.integers(2, 12))
    d = draw(st.integers(1, 8))
    bits = draw(st.lists(st.booleans(), min_size=n * d, max_size=n * d))
    masks = np.array(bits, dtype=bool).reshape(n, d)
    for j in range(d):
        kind = draw(st.sampled_from(["free", "free", "constant", "duplicate"]))
        if kind == "constant":
            masks[:, j] = draw(st.booleans())
        elif kind == "duplicate" and j:
            masks[:, j] = masks[:, draw(st.integers(0, j - 1))]
    if draw(st.booleans()):
        y = np.full(n, draw(st.integers(0, 64)) / 64)
    else:
        y = np.array(draw(st.lists(st.integers(0, 64), min_size=n, max_size=n))) / 64
    weights = np.array(draw(st.lists(st.integers(8, 16), min_size=n, max_size=n))) / 16
    k = draw(st.integers(1, d + 1))
    return masks, y, weights, k


class TestLassoPathOptimality:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(small_designs())
    def test_selection_meets_kkt_and_never_raises(self, design):
        masks, y, weights, k = design
        coefs, r2 = _k_lasso_arrays(masks, y, weights, k)
        assert len(coefs) <= k and 0.0 <= r2 <= 1.0
        selection = path_selection(masks, y, weights, k)
        if selection is None:
            # no signal: whatever rounding noise selects must stay negligible
            assert all(abs(v) <= 1e-9 for v in coefs.values())
            return
        G, c, grid, beta, lam = selection
        assert lam in grid
        assert_lasso_optimal(G, c, beta, lam)
        # stops at the first grid penalty that reaches the budget
        reached = np.count_nonzero(beta) >= min(k, masks.shape[1])
        assert reached or lam == grid[-1]

    def test_duplicate_columns_enter_once(self):
        # the second copy would make G_AA singular, so only one copy enters
        rng = np.random.default_rng(5)
        masks = rng.random((400, 5)) < 0.5
        masks[:, 3] = masks[:, 1]
        y = 0.2 + 0.3 * masks[:, 1] + 0.1 * masks[:, 4]
        coefs, _ = _k_lasso_arrays(masks, y, np.ones(400), 5)
        assert not {1, 3} <= set(coefs)
        assert {1, 3} & set(coefs)
