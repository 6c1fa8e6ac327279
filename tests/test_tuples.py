import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlearn import (
    NCA,
    kfold_split,
    pairs_from_labels,
    quadruplets_from_labels,
    triplets_from_labels,
    validate_tuples,
)
from mlearn.exceptions import DimensionError, ValidationError
from mlearn.rng import SplitMix64, below
from mlearn.tuples import _pool_positions, class_blocks


# -- reference samplers -----------------------------------------------------
# The per-sample samplers that the block-draw samplers replaced: one scalar
# SplitMix64 draw at a time, one pool array per sample. The block samplers
# must give the same tuples bit for bit.

def reference_below(rng, n):
    """Uniform integer in [0, n) via the multiply-shift reduction."""
    return (rng.next_uint64() * n) >> 64


def reference_sample(rng, pool, k, replace=False):
    """k elements of pool: a virtual partial Fisher-Yates draw that stores
    only the positions it has swapped, or k draws with replacement."""
    n = len(pool)
    if replace:
        return [pool[reference_below(rng, n)] for _ in range(k)]
    moved = {}  # position -> element swapped into it
    out = []
    for i in range(k):
        j = i + reference_below(rng, n - i)
        out.append(moved.get(j, pool[j]))
        moved[j] = moved.get(i, pool[i])
    return out


class ReferencePools:
    def __init__(self, y):
        labels, self.codes = np.unique(y, return_inverse=True)
        self.members = [np.flatnonzero(self.codes == c) for c in range(len(labels))]
        self.others = [np.flatnonzero(self.codes != c) for c in range(len(labels))]

    def same(self, i):
        members = self.members[self.codes[i]]
        return members[members != i]

    def other(self, i):
        return self.others[self.codes[i]]


def reference_partners(rng, pool, k):
    return reference_sample(rng, pool, k, replace=k > len(pool))


def reference_pairs_from_labels(x, y, k, seed):
    pools, rng, blocks = ReferencePools(y), SplitMix64(seed), []
    for i in range(len(x)):
        blocks.extend((i, j) for j in reference_partners(rng, pools.same(i), k))
        blocks.extend((i, j) for j in reference_partners(rng, pools.other(i), k))
    return x[np.array(blocks)], np.tile(np.repeat([1, -1], k), len(x))


def reference_triplets_from_labels(x, y, k, seed):
    pools, rng, blocks = ReferencePools(y), SplitMix64(seed), []
    for i in range(len(x)):
        pos = reference_partners(rng, pools.same(i), k)
        neg = reference_partners(rng, pools.other(i), k)
        blocks.extend((i, j, l) for j, l in zip(pos, neg))
    return x[np.array(blocks)]


def reference_quadruplets_from_labels(x, y, k, seed):
    pools, rng, blocks = ReferencePools(y), SplitMix64(seed), []
    for i in range(len(x)):
        for j in reference_partners(rng, pools.same(i), k):
            r = reference_below(rng, len(x))
            far = pools.other(r)
            blocks.append((i, j, r, far[reference_below(rng, len(far))]))
    return x[np.array(blocks)]


SAMPLERS = {
    "pairs": (pairs_from_labels, reference_pairs_from_labels),
    "triplets": (triplets_from_labels, reference_triplets_from_labels),
    "quadruplets": (quadruplets_from_labels, reference_quadruplets_from_labels),
}


def _outputs(kind, out):
    return out if kind == "pairs" else (out,)


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

    def test_any_non_finite_value_found_in_chunks(self):
        t = np.zeros((9, 2, 3))
        validate_tuples(t, 2)
        for flat in range(t.size):
            for bad in (np.nan, -np.inf):
                u = t.copy()
                u.flat[flat] = bad
                with pytest.raises(ValidationError, match="non-finite"):
                    validate_tuples(u, 2)
        validate_tuples(np.zeros((0, 2, 3)), 2)

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
        draws = below(SplitMix64(7).draws(200), 10)
        assert min(draws) >= 0 and max(draws) < 10
        assert len(set(draws.tolist())) == 10  # all residues reached

    def test_shuffle_is_permutation(self):
        r = SplitMix64(3)
        items = list(range(20))
        r.shuffle(items)
        assert sorted(items) == list(range(20))

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 300])
    def test_shuffle_equals_scalar_fisher_yates(self, n):
        for seed in (0, 5, -7, 2**64 - 1):
            a, b = SplitMix64(seed), SplitMix64(seed)
            got, want = list(range(n)), list(range(n))
            a.shuffle(got)
            for i in range(n - 1, 0, -1):
                j = reference_below(b, i + 1)
                want[i], want[j] = want[j], want[i]
            assert got == want
            assert a.next_uint64() == b.next_uint64()

    def test_sample_without_replacement(self):
        pos = _pool_positions(SplitMix64(1).draws(10).reshape(1, 10), np.array([[10]]))
        assert sorted(pos[0].tolist()) == list(range(10))
        r = SplitMix64(1)
        assert sorted(reference_sample(r, list(range(10)), 10)) == list(range(10))

    @pytest.mark.parametrize("n, k", [(1, 1), (5, 0), (5, 3), (10, 10), (300, 7),
                                      (1000, 999)])
    def test_sample_equals_list_copy_fisher_yates(self, n, k):
        def reference(rng, pool, k):
            work = list(pool)
            out = []
            for i in range(k):
                j = i + reference_below(rng, len(work) - i)
                work[i], work[j] = work[j], work[i]
                out.append(work[i])
            return out

        pool = np.arange(100, 100 + n)
        for seed in range(20):
            a, b, c = SplitMix64(seed), SplitMix64(seed), SplitMix64(seed)
            want = reference(b, pool, k)
            assert reference_sample(a, pool, k) == want
            pos = _pool_positions(c.draws(k).reshape(1, k), np.array([[n]]))
            assert pool[pos[0]].tolist() == want
            assert a.next_uint64() == b.next_uint64() == c.next_uint64()  # same state left
        assert np.array_equal(pool, np.arange(100, 100 + n))  # pool untouched

    @pytest.mark.parametrize("seed", [0, 1, -7, 2**63 + 5, 2**64 - 1, 2**70 + 3])
    @pytest.mark.parametrize("count", [0, 1, 2, 17])
    def test_block_equals_scalar_draws(self, seed, count):
        a, b = SplitMix64(seed), SplitMix64(seed)
        block = a.draws(count)
        assert block.dtype == np.uint64 and block.shape == (count,)
        assert block.tolist() == [b.next_uint64() for _ in range(count)]
        # the scalar stream and a second block continue where the block ended
        assert a.next_uint64() == b.next_uint64()
        assert a.draws(3).tolist() == [b.next_uint64() for _ in range(3)]

    def test_vector_below_equals_multiply_shift(self):
        z = SplitMix64(11).draws(4000)
        n = np.concatenate([[1, 1, 2, 3, 2**32 - 1, 2**31],
                            below(SplitMix64(12).draws(3994), 2**32 - 1) + 1])
        got = below(z, n)
        assert got.tolist() == [(int(a) * int(b)) >> 64 for a, b in zip(z, n)]
        assert np.all(below(z, 1) == 0)  # a modulus of 1 always gives 0

    def test_numpy_integer_seed(self):
        assert SplitMix64(np.int64(-7)).draws(4).tolist() == SplitMix64(-7).draws(4).tolist()
        assert SplitMix64(np.uint64(2**64 - 1)).next_uint64() == \
            SplitMix64(-1).next_uint64()

    @pytest.mark.parametrize("seed", [1.5, "a", None, True, np.float64(2.0)])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValidationError, match="seed must be an integer"):
            SplitMix64(seed)


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
    for fn in SAMPLERS[kind]:
        assert _digest(*_outputs(kind, fn(x, y, k, seed))) == \
            _SAMPLER_DIGESTS[(kind, k, seed)]


@st.composite
def class_layouts(draw):
    """Shuffled labels of 2 to 6 classes, small classes of 2 members likely,
    and a k from 1 to past the smallest pool."""
    sizes = draw(st.lists(st.sampled_from([2, 2, 3, 4, 5, 9]), min_size=2, max_size=6))
    order = draw(st.permutations(range(sum(sizes))))
    y = np.repeat(np.arange(len(sizes)) * 3 - 2, sizes)[list(order)]
    k = draw(st.integers(1, min(sizes) + 2))
    seed = draw(st.one_of(st.sampled_from([0, 2**63 + 5, -7, 2**64 - 1]),
                          st.integers(-2**70, 2**70)))
    return y, k, seed


@settings(max_examples=60, deadline=None)
@given(layout=class_layouts())
def test_samplers_equal_the_reference_samplers(layout):
    y, k, seed = layout
    x = np.arange(2 * len(y), dtype=float).reshape(-1, 2) * 0.5 - 3.0
    for kind, (fn, reference) in SAMPLERS.items():
        got, want = _outputs(kind, fn(x, y, k, seed)), _outputs(kind, reference(x, y, k, seed))
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


# -- the class index ----------------------------------------------------------

def reference_classes(y):
    """(labels, rows, nan_rows): the distinct non-NaN labels in ascending
    order, ``np.flatnonzero(y == c)`` for each, and the NaN rows, each a
    class of its own since NaN equals no label."""
    values = y.tolist()
    labels = []
    for v in values:
        if v == v and not any(v == u for u in labels):
            labels.append(v)
    labels.sort()
    nan_rows = [i for i, v in enumerate(values) if v != v]
    return labels, [np.flatnonzero(y == c) for c in labels], nan_rows


LABEL_VALUES = {
    "int": (st.integers(-3, 3), int),
    "float": (st.sampled_from([0.0, -0.0, 1.5, -2.0, np.inf, -np.inf, np.nan]),
              float),
    "str": (st.sampled_from(["", "a", "b", "ab", "B"]), str),
    "object": (st.sampled_from([-1, 0, 7, 2**64, 2**70, -2**70]), object),
}


@st.composite
def label_vectors(draw):
    values, dtype = LABEL_VALUES[draw(st.sampled_from(sorted(LABEL_VALUES)))]
    return np.array(draw(st.lists(values, max_size=40)), dtype=dtype)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(y=label_vectors())
def test_class_blocks_equal_a_per_class_flatnonzero(y):
    labels, codes, order, blocks = class_blocks(y)
    want_labels, want_rows, nan_rows = reference_classes(y)
    assert len(labels) == len(blocks) == len(want_labels) + len(nan_rows)
    assert labels[:len(want_labels)].tolist() == want_labels
    # the blocks tile order, which lists every row once
    assert [b.start for b in blocks[1:]] == [b.stop for b in blocks[:-1]]
    assert blocks == [] or (blocks[0].start, blocks[-1].stop) == (0, len(y))
    assert sorted(order.tolist()) == list(range(len(y)))
    for c, b in enumerate(blocks):
        assert (codes[order[b]] == c).all()
    for b, rows in zip(blocks, want_rows):
        assert order[b].dtype == np.intp
        assert np.array_equal(order[b], rows)
    nan_blocks = sorted(order[b].tolist() for b in blocks[len(want_labels):])
    assert nan_blocks == [[i] for i in nan_rows]


class TestTypedArguments:
    @pytest.mark.parametrize("kind", sorted(SAMPLERS))
    @pytest.mark.parametrize("k", [1.5, True, "2", None, np.float64(1.0)])
    def test_non_integer_k_rejected(self, kind, k):
        x, y = small_dataset()
        with pytest.raises(ValidationError, match="k must be an integer >= 1"):
            SAMPLERS[kind][0](x, y, k, 0)

    @pytest.mark.parametrize("kind", sorted(SAMPLERS))
    @pytest.mark.parametrize("seed", [1.5, "a", None, False])
    def test_non_integer_seed_rejected(self, kind, seed):
        x, y = small_dataset()
        with pytest.raises(ValidationError, match="seed must be an integer"):
            SAMPLERS[kind][0](x, y, 1, seed)

    @pytest.mark.parametrize("kind", sorted(SAMPLERS))
    def test_numpy_integer_arguments_accepted(self, kind):
        x, y = small_dataset()
        fn = SAMPLERS[kind][0]
        for a, b in zip(_outputs(kind, fn(x, y, np.int64(2), np.int64(-3))),
                        _outputs(kind, fn(x, y, 2, -3))):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [1.5, "a", None])
    def test_kfold_split_seed_rejected(self, seed):
        with pytest.raises(ValidationError, match="seed must be an integer"):
            kfold_split(10, 2, seed)

    @pytest.mark.parametrize("seed", [1.5, "a", None])
    def test_random_init_seed_rejected(self, seed):
        x, y = small_dataset()
        with pytest.raises(ValidationError, match="seed must be an integer"):
            NCA(init="random", seed=seed, max_iter=1).fit(x, y)
