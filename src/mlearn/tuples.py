"""Tuple supervision: validation and samplers over labeled data.

Tuple sets are plain 3-D numpy arrays of shape (n_tuples, t, n_features)
with t = 2 (pairs), 3 (triplets: anchor, positive, negative) or 4
(quadruplets: close pair then far pair). Pairs may carry a +/-1 label vector;
the other arities never do.

The samplers bridge class-labeled data to the weakly-supervised learners.
Rows are copied verbatim into the tuple blocks and all randomness comes from
the package's SplitMix64 generator, so a seed reproduces tuples exactly on
any platform.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionError, ValidationError
from .rng import SplitMix64


def validate_tuples(tuples, expected_t: int, n_features: int | None = None,
                    labels=None) -> np.ndarray:
    """Check a tuple block against arity, width, finiteness and label rules."""
    tuples = np.asarray(tuples, dtype=float)
    if tuples.ndim != 3:
        raise DimensionError(f"tuple array must be 3-D, got ndim={tuples.ndim}")
    if tuples.shape[1] != expected_t:
        raise ValidationError(
            f"arity mismatch: expected tuples of {expected_t} points, "
            f"got {tuples.shape[1]}"
        )
    if n_features is not None and tuples.shape[2] != n_features:
        raise DimensionError(
            f"width mismatch: expected {n_features} features, got {tuples.shape[2]}"
        )
    if not np.all(np.isfinite(tuples)):
        raise ValidationError("tuple array contains non-finite entries")
    if labels is not None:
        if expected_t != 2:
            raise ValidationError("labels are only permitted for pairs (t=2)")
        labels = np.asarray(labels)
        if labels.shape != (tuples.shape[0],):
            raise ValidationError(
                f"labels must have length {tuples.shape[0]}, got shape {labels.shape}"
            )
        if not np.all(np.isin(labels, (-1, 1))):
            raise ValidationError("pair labels must take values in {+1, -1}")
    return tuples


class _ClassPools:
    """Partner pools per class, built once per sampler call.

    Pools hold sample indices in ascending order. The draws index into them,
    so another order would change the tuples a seed produces.
    """

    def __init__(self, x, y, k: int, what: str):
        if k < 1:
            raise ValidationError("k must be >= 1")
        if len(y) != len(x):
            raise ValidationError("labels length must match number of samples")
        labels, self.codes = np.unique(y, return_inverse=True)
        self.members = [np.flatnonzero(self.codes == c) for c in range(len(labels))]
        if len(labels) < 2:
            raise ValidationError(f"{what} requires at least 2 distinct classes")
        for label, members in zip(labels, self.members):
            if len(members) < 2:
                raise ValidationError(
                    f"cannot build {what}: class {label!r} has a single member"
                )
        self.others = [np.flatnonzero(self.codes != c) for c in range(len(labels))]
        self.rank = np.empty(len(y), dtype=int)  # position within own class
        for members in self.members:
            self.rank[members] = np.arange(len(members))

    def same(self, i: int) -> np.ndarray:
        """Members of sample i's class, without i itself."""
        return np.delete(self.members[self.codes[i]], self.rank[i])

    def other(self, i: int) -> np.ndarray:
        """Samples of every class but sample i's."""
        return self.others[self.codes[i]]


def _draw_partners(rng: SplitMix64, pool, k: int) -> list:
    # without replacement when the pool allows, with replacement otherwise
    return rng.sample(pool, k, replace=k > len(pool))


def pairs_from_labels(x, y, k: int, seed: int):
    """k similar and k dissimilar pairs per sample; returns (pairs, labels).

    Similar partners are drawn uniformly from the sample's class (excluding
    itself), dissimilar partners from all other classes. Output order is by
    sample index, similar pairs first within each sample.
    """
    x = np.asarray(x, dtype=float)
    pools = _ClassPools(x, np.asarray(y), k, "pairs")
    rng = SplitMix64(seed)
    blocks = []
    for i in range(len(x)):
        blocks.extend((i, j) for j in _draw_partners(rng, pools.same(i), k))
        blocks.extend((i, j) for j in _draw_partners(rng, pools.other(i), k))
    labels = np.tile(np.repeat([1, -1], k), len(x))
    return x[np.array(blocks)], labels


def triplets_from_labels(x, y, k: int, seed: int) -> np.ndarray:
    """k triplets (anchor, same-class positive, other-class negative) per sample."""
    x = np.asarray(x, dtype=float)
    pools = _ClassPools(x, np.asarray(y), k, "triplets")
    rng = SplitMix64(seed)
    blocks = []
    for i in range(len(x)):
        pos = _draw_partners(rng, pools.same(i), k)
        neg = _draw_partners(rng, pools.other(i), k)
        blocks.extend((i, j, l) for j, l in zip(pos, neg))
    return x[np.array(blocks)]


def quadruplets_from_labels(x, y, k: int, seed: int) -> np.ndarray:
    """k quadruplets per sample: (sample, same-class partner, random point,
    partner of a different class than the random point)."""
    x = np.asarray(x, dtype=float)
    pools = _ClassPools(x, np.asarray(y), k, "quadruplets")
    rng = SplitMix64(seed)
    blocks = []
    for i in range(len(x)):
        for j in _draw_partners(rng, pools.same(i), k):
            r = rng.below(len(x))
            far = pools.other(r)
            blocks.append((i, j, r, far[rng.below(len(far))]))
    return x[np.array(blocks)]
