import statistics

import pytest

import realistic


@pytest.mark.parametrize("seed", [0, 7])
def test_shape_within_tolerance(seed):
    shape = realistic.measure_shape(realistic.make_corpus(seed))
    assert 2700 <= shape["vocab"] <= 3300
    assert 270 <= shape["distinct_tokens_p50"] <= 330
    assert shape["defective_test_files"] == realistic.SHAPE.test_defective
    lo, hi = realistic.SHAPE.lines_per_file
    assert realistic.SHAPE.test_files * lo <= shape["test_loc"] <= realistic.SHAPE.test_files * hi


def test_seed_draws_the_test_release_of_one_fixed_system():
    a, b = realistic.make_corpus(3), realistic.make_corpus(4)
    assert a == realistic.make_corpus(3)
    assert a[realistic.TRAIN_RELEASE] == b[realistic.TRAIN_RELEASE]
    assert a[realistic.TEST_RELEASE] != b[realistic.TEST_RELEASE]


def test_risky_tokens_only_on_defective_lines():
    corpus = realistic.make_corpus(1)
    for files in corpus.values():
        for _, lines in files:
            for content, bad in lines:
                has_risky = any(t in realistic.RISKY_TOKENS for t in realistic.TOKEN_RE.findall(content))
                assert has_risky == bad


def test_zipfian_identifier_frequencies():
    counts = {}
    for _, lines in realistic.make_corpus(2)[realistic.TRAIN_RELEASE]:
        for content, _ in lines:
            for t in realistic.TOKEN_RE.findall(content):
                if t not in realistic.KEYWORDS:
                    counts[t] = counts.get(t, 0) + 1
    freq = sorted(counts.values(), reverse=True)
    # heavy head, long tail: the top identifier is far above the median one
    assert freq[0] > 20 * statistics.median(freq)


def test_csv_round_trips_through_the_program(tmp_path):
    from linedefects.corpus import load_dataset

    corpus = realistic.make_corpus(5)
    path = tmp_path / "d.csv"
    realistic.write_csv(corpus, path)
    releases = {ds.release_id: ds for ds in load_dataset(path)}
    test = releases[realistic.TEST_RELEASE]
    truth = realistic.line_truth(corpus[realistic.TEST_RELEASE])
    assert {(f.path, l.number): l.is_defective for f in test.files for l in f.lines} == truth
