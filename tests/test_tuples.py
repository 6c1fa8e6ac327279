import hashlib

import numpy as np
import pytest

from mlearn import (
    pairs_from_labels,
    quadruplets_from_labels,
    triplets_from_labels,
    validate_tuples,
)
from mlearn.exceptions import DimensionError, ValidationError
from mlearn.rng import SplitMix64


class TestValidateTuples:
    def test_valid_pairs(self, rng):
        pairs = rng.standard_normal((3, 2, 4))
        validate_tuples(pairs, 2, 4, labels=[1, -1, 1])

    def test_arity_mismatch(self, rng):
        with pytest.raises(ValidationError, match="arity"):
            validate_tuples(rng.standard_normal((3, 3, 4)), 2)

    def test_width_mismatch(self, rng):
        with pytest.raises(DimensionError, match="width"):
            validate_tuples(rng.standard_normal((3, 2, 4)), 2, 5)

    def test_nonfinite_rejected(self):
        t = np.zeros((1, 2, 2))
        t[0, 0, 0] = np.inf
        with pytest.raises(ValidationError, match="non-finite"):
            validate_tuples(t, 2)

    def test_zero_label_rejected(self, rng):
        with pytest.raises(ValidationError, match=r"\{\+1, -1\}"):
            validate_tuples(rng.standard_normal((2, 2, 3)), 2, labels=[1, 0])

    def test_labels_on_triplets_rejected(self, rng):
        with pytest.raises(ValidationError, match="pairs"):
            validate_tuples(rng.standard_normal((2, 3, 3)), 3, labels=[1, -1])

    def test_label_length_mismatch(self, rng):
        with pytest.raises(ValidationError, match="length"):
            validate_tuples(rng.standard_normal((3, 2, 3)), 2, labels=[1, -1])


def small_dataset():
    x = np.arange(8, dtype=float).reshape(4, 2)
    y = np.array([0, 0, 1, 1])
    return x, y


class TestPairsFromLabels:
    def test_counts_and_labels(self):
        x, y = small_dataset()
        pairs, labels = pairs_from_labels(x, y, k=1, seed=0)
        assert pairs.shape == (8, 2, 2)
        assert np.sum(labels == 1) == 4 and np.sum(labels == -1) == 4

    def test_seed_determinism(self):
        x, y = small_dataset()
        p1, l1 = pairs_from_labels(x, y, 2, seed=9)
        p2, l2 = pairs_from_labels(x, y, 2, seed=9)
        assert np.array_equal(p1, p2) and np.array_equal(l1, l2)
        p3, _ = pairs_from_labels(x, y, 2, seed=10)
        assert not np.array_equal(p1, p3)

    def test_label_semantics_exhaustive(self):
        r = np.random.default_rng(3)
        x = r.standard_normal((12, 3))
        y = r.integers(0, 3, 12)
        while len(np.unique(y)) < 2 or np.min(np.bincount(y)) < 2:
            y = r.integers(0, 3, 12)
        row_class = {tuple(row): lab for row, lab in zip(x, y)}
        pairs, labels = pairs_from_labels(x, y, 2, seed=4)
        for (a, b), lab in zip(pairs, labels):
            same = row_class[tuple(a)] == row_class[tuple(b)]
            assert same == (lab == 1)

    def test_rows_copied_verbatim(self):
        x, y = small_dataset()
        pairs, _ = pairs_from_labels(x, y, 1, seed=0)
        rows = {tuple(r) for r in x}
        for p in pairs.reshape(-1, 2):
            assert tuple(p) in rows

    def test_singleton_class_named_in_error(self):
        x = np.zeros((3, 2))
        y = np.array([0, 0, 5])
        with pytest.raises(ValidationError, match="5"):
            pairs_from_labels(x, y, 1, seed=0)

    def test_k_zero_rejected(self):
        x, y = small_dataset()
        with pytest.raises(ValidationError):
            pairs_from_labels(x, y, 0, seed=0)


class TestTripletsFromLabels:
    def test_count(self):
        x, y = small_dataset()
        t = triplets_from_labels(x, y, k=2, seed=0)
        assert t.shape == (8, 3, 2)

    def test_class_structure(self):
        r = np.random.default_rng(8)
        x = r.standard_normal((10, 2))
        y = np.array([0] * 5 + [1] * 5)
        row_class = {tuple(row): lab for row, lab in zip(x, y)}
        for a, b, c in triplets_from_labels(x, y, 2, seed=1):
            assert row_class[tuple(a)] == row_class[tuple(b)]
            assert row_class[tuple(a)] != row_class[tuple(c)]

    def test_seed_determinism(self):
        x, y = small_dataset()
        assert np.array_equal(triplets_from_labels(x, y, 1, 5),
                              triplets_from_labels(x, y, 1, 5))


class TestQuadrupletsFromLabels:
    def test_count(self):
        x, y = small_dataset()
        q = quadruplets_from_labels(x, y, k=1, seed=0)
        assert q.shape == (4, 4, 2)

    def test_class_structure(self):
        r = np.random.default_rng(11)
        x = r.standard_normal((10, 2))
        y = np.array([0] * 5 + [1] * 5)
        row_class = {tuple(row): lab for row, lab in zip(x, y)}
        for a, b, c, d in quadruplets_from_labels(x, y, 2, seed=2):
            assert row_class[tuple(a)] == row_class[tuple(b)]
            assert row_class[tuple(c)] != row_class[tuple(d)]

    def test_seed_determinism(self):
        x, y = small_dataset()
        assert np.array_equal(quadruplets_from_labels(x, y, 1, 3),
                              quadruplets_from_labels(x, y, 1, 3))


class TestSplitMix64:
    def test_deterministic_stream(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        assert [a.next_uint64() for _ in range(5)] == \
               [b.next_uint64() for _ in range(5)]

    def test_known_first_value_stability(self):
        # frozen regression value: the seed-0 stream must never change,
        # since sampler reproducibility across platforms depends on it
        assert SplitMix64(0).next_uint64() == 0xE220A8397B1DCDAF

    def test_below_range(self):
        r = SplitMix64(7)
        draws = [r.below(10) for _ in range(200)]
        assert min(draws) >= 0 and max(draws) < 10
        assert len(set(draws)) == 10  # all residues reached

    def test_shuffle_is_permutation(self):
        r = SplitMix64(3)
        items = list(range(20))
        r.shuffle(items)
        assert sorted(items) == list(range(20))

    def test_sample_without_replacement(self):
        r = SplitMix64(1)
        out = r.sample(list(range(10)), 10, replace=False)
        assert sorted(out) == list(range(10))

    @pytest.mark.parametrize("n, k", [(1, 1), (5, 0), (5, 3), (10, 10), (300, 7),
                                      (1000, 999)])
    def test_sample_equals_list_copy_fisher_yates(self, n, k):
        def reference(rng, pool, k):
            work = list(pool)
            out = []
            for i in range(k):
                j = i + rng.below(len(work) - i)
                work[i], work[j] = work[j], work[i]
                out.append(work[i])
            return out

        pool = np.arange(100, 100 + n)
        for seed in range(20):
            a, b = SplitMix64(seed), SplitMix64(seed)
            assert a.sample(pool, k) == reference(b, pool, k)
            assert a.next_uint64() == b.next_uint64()  # same state left
        assert np.array_equal(pool, np.arange(100, 100 + n))  # pool untouched


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


# SHA-256 of the sampler outputs, recorded with the per-sample list-based
# samplers that the per-class index pools replaced; a seed must keep giving
# the same tuples on every version.
_SAMPLER_DIGESTS = {
    ("pairs", 1, 0): "08504df9e8497b82fa7dbe2edb134cb547f856ac8da4287289df9282e35496f6",
    ("triplets", 1, 0): "a5aee4f953bb962f86cb02516fa736633bcf5424d500ebbc38b86c6ba14d542e",
    ("quadruplets", 1, 0): "c92e07ebd52259e9b70d8c0f5f77784eb8775c1a784d5fe04736fb9fcd1d47c7",
    ("pairs", 4, 12345): "e7f06b74fc71d31d816e74cab2392bb1daf0e9fe955ab9d1680134d967106fd7",
    ("triplets", 4, 12345): "660f740196ce5a5f20d4f5f01c2cf8286ca7085fcd4e98ba03786b01601cfdd5",
    ("quadruplets", 4, 12345): "9d536b4e128c566e44138c4bbb5efcb2d96e6b47d994f432812f70a89195aa0d",
    ("pairs", 9, 2**63 + 5): "5866ee2773bd6b2171a8795ece1c9d733dcefe1b307288ad59744dea81481c7b",
    ("triplets", 9, 2**63 + 5): "20db573caa01e00e80c8e462f049d9d6e12052592f9a98b8513b342ed7598c38",
    ("quadruplets", 9, 2**63 + 5): "7a34c723083a94fb6b2e96f95eb9d1ee11796d35d24979b0b1f22eba68dae5fb",
}


@pytest.mark.parametrize("kind, k, seed", sorted(_SAMPLER_DIGESTS, key=str))
def test_sampler_output_is_frozen(kind, k, seed):
    n, d = 40, 3
    x = np.arange(n * d, dtype=float).reshape(n, d) * 0.25 - 7.0
    # classes 0-2 interleaved, class 3 has 6 members so k=9 draws with replacement
    y = np.array([(i * 7) % 3 if i < 34 else 3 for i in range(n)])
    sampler = {"pairs": pairs_from_labels, "triplets": triplets_from_labels,
               "quadruplets": quadruplets_from_labels}[kind]
    out = sampler(x, y, k, seed)
    assert _digest(*(out if kind == "pairs" else (out,))) == \
        _SAMPLER_DIGESTS[(kind, k, seed)]
