"""Supervision: the data gate of every fit, and samplers over labeled data.

:data:`KINDS` is the one table of supervision kinds: what each kind takes
as ``x`` and the CLI flag it is loaded from. Every other per-kind rule of
the gate, cross-validation and the CLI is read from the kind's arity where
it is used. :func:`validate_supervision` checks data by its kind, as every
fit, ``cross_validate``, ``knn_predict``, ``calibrate_threshold`` and the
samplers below do, and holds every rule on ``y``; :func:`validate_tuples`
checks a tuple block's arity, width and finiteness. :func:`class_blocks`
is the one class index of every class-aware step.

Tuple sets are plain 3-D numpy arrays of shape (n_tuples, t, n_features)
with t = 2 (pairs), 3 (triplets: anchor, positive, negative) or 4
(quadruplets: close pair then far pair). Only pairs carry labels, one +1 or
-1 per pair.

The samplers bridge class-labeled data to the weakly-supervised learners.
Rows are copied verbatim into the tuple blocks and all randomness comes from
the package's SplitMix64 generator, so a seed reproduces tuples exactly on
any platform. Each sampler draws one block of SplitMix64 outputs, a fixed
run per sample: pairs and triplets take 2k (k same-class partners, then k
other-class ones), quadruplets 3k (k same-class partners, then the random
point r and r's other-class partner for each partner in turn). A draw z
picks from a pool of n as ``below(z, n)``, exact for pools below 2**32.
Partners come from a virtual partial Fisher-Yates draw, or with replacement
where k exceeds the pool; the tuples are gathered from ``x`` at the end.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionError, ValidationError, check_at_least
from .rng import SplitMix64, below


# supervision kind -> (the tuple arity of what fit takes as x, None for
# points; the CLI flag that names the column of y or the tuple file)
KINDS = {"labels": (None, "--label-col"), "chunks": (None, "--chunk-col"),
         "pairs": (2, "--pairs"), "quads": (4, "--quads")}
# what y holds for each kind that needs one
_Y_NEEDED = {"labels": "points need labels: one class label per row",
             "chunks": "points need chunklet ids: one per row, -1 for none",
             "pairs": "pairs need labels: one +1 or -1 per pair"}


def validate_supervision(kind: str, x, y, n_features: int | None = None,
                         check_finite: bool = True):
    """(x, y) as arrays, checked for the supervision kind: points with a
    1-D y of one entry per row, no NaN and values that can be ordered,
    pairs with one +1 or -1 label each, or quadruplets without y.
    ``check_finite`` is passed on to the data's check (see
    :func:`validate_tuples`)."""
    if y is None and kind in _Y_NEEDED:
        raise ValidationError(_Y_NEEDED[kind])
    arity = KINDS[kind][0]
    if arity is None:
        x = _as_features(x, n_features, check_finite)
        y = _as_labels(y, len(x))
        # NaN equals no label, itself included, so it can name no class
        # (in an object array it also breaks np.unique's sort)
        if y.dtype.kind in "fcO" and np.any(y != y):
            raise ValidationError("labels contain NaN")
        # classes are found by np.unique, which sorts: an object array
        # such as [3, 'b'] has no order
        if y.dtype == object:
            try:
                class_blocks(y)
            except TypeError as e:
                raise ValidationError(f"labels cannot be ordered: {e}") from None
        return x, y
    x = validate_tuples(x, arity, n_features, check_finite=check_finite)
    if y is None:
        return x, None
    if arity != 2:
        raise ValidationError("labels are only permitted for pairs (t=2)")
    y = _as_labels(y, len(x))
    if not np.all(np.isin(y, (-1, 1))):
        raise ValidationError("pair labels must take values in {+1, -1}")
    return x, y


def _all_finite(a: np.ndarray) -> bool:
    return bool(np.isfinite(a).all())


def _as_floats(a, what: str) -> np.ndarray:
    """a as a float array; anything numpy cannot read as one (strings,
    ragged rows, mappings, complex values) is a :class:`ValidationError`."""
    # numpy would drop a complex array's imaginary part with only a warning
    if isinstance(a, np.ndarray) and a.dtype.kind == "c":
        raise ValidationError(f"{what} must be real, got {a.dtype}")
    try:
        return np.asarray(a, dtype=float)
    except (TypeError, ValueError) as e:
        raise ValidationError(f"{what} must be numeric: {e}") from None


def _as_features(x, n_features: int | None = None,
                 check_finite: bool = True) -> np.ndarray:
    x = _as_floats(x, "feature matrix")
    if x.ndim != 2:
        raise DimensionError(f"expected a 2-D feature matrix, got ndim={x.ndim}")
    if check_finite and not _all_finite(x):
        raise ValidationError("feature matrix contains non-finite entries")
    if n_features is not None and x.shape[1] != n_features:
        raise DimensionError(
            f"expected {n_features} feature columns, got {x.shape[1]}"
        )
    return x


def _as_labels(y, n: int) -> np.ndarray:
    """y as a 1-D array of one entry per row of n rows."""
    y = np.asarray(y)
    if y.ndim != 1:
        raise DimensionError(f"labels must be 1-D, got ndim={y.ndim}")
    if len(y) != n:
        raise ValidationError(f"length mismatch: {len(y)} labels for {n} rows")
    return y


def validate_tuples(tuples, expected_t: int, n_features: int | None = None, *,
                    check_finite: bool = True) -> np.ndarray:
    """Check a tuple block's arity, width and finiteness.

    Fits and samplers scan the whole block for non-finite entries here. The
    serving methods pass ``check_finite=False``: their rows go through the
    map kernel (``model._mapped_chunks``), which judges finiteness on the
    chunk it holds in its buffer and raises the same error, so the block is
    read once instead of twice.
    """
    tuples = _as_floats(tuples, "tuple array")
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
    if check_finite and not _all_finite(tuples):
        raise ValidationError("tuple array contains non-finite entries")
    return tuples


def class_blocks(y):
    """(labels, codes, order, blocks): the distinct labels, ascending, each
    row's position in them, and the rows grouped by class: class c's rows
    are ``order[blocks[c]]``, the rows ``np.flatnonzero(y == labels[c])``
    gives, in that order. NaN equals no label, so each NaN row is a class."""
    # with return_inverse, np.unique never takes its path that imports numpy.ma
    labels, codes = np.unique(y, return_inverse=True, equal_nan=False)
    order = np.argsort(codes, kind="stable")
    ends = np.cumsum(np.bincount(codes)).tolist()
    return labels, codes, order, [slice(a, b) for a, b in zip([0] + ends, ends)]


class _ClassPools:
    """Partner pools per class, built once per sampler call.

    ``members`` holds the sample indices grouped by class, ascending within
    each class; class c fills ``members[start[c]:start[c] + size[c]]``.
    Sample i's same-class pool is its class block without i, so its entry p
    is the block's entry p, or p + 1 from i's own rank on. The pool of class
    c's outsiders is every other sample in ascending order; its entry p is
    p plus the number of class-c members before it, which one searchsorted
    over the outsiders counted before each member gives. Another pool order
    would change the tuples a seed produces.
    """

    def __init__(self, y, k: int, what: str):
        check_at_least("k", k, 1)
        labels, self.codes, self.members, _ = class_blocks(y)
        if len(labels) < 2:
            raise ValidationError(f"{what} requires at least 2 distinct classes")
        self.size = np.bincount(self.codes)
        for label, size in zip(labels.tolist(), self.size):
            if size < 2:
                raise ValidationError(
                    f"cannot build {what}: class {label!r} has a single member"
                )
        n = len(y)
        self.start = np.cumsum(self.size) - self.size
        member_codes = self.codes[self.members]
        rank = np.arange(n) - self.start[member_codes]
        self.rank = np.empty(n, dtype=np.intp)  # position within own class
        self.rank[self.members] = rank
        # outsiders before each member, offset by class so the keys ascend
        self._stride = n + 1
        self._outsider_keys = member_codes * self._stride + self.members - rank

    def same_class(self, z) -> np.ndarray:
        """Partners of each sample from its class, one per draw of its row
        of z (shape n_samples x k)."""
        c = self.codes[:, None]
        p = _pool_positions(z, self.size[c] - 1)
        return self.members[self.start[c] + p + (p >= self.rank[:, None])]

    def other_class(self, z) -> np.ndarray:
        """Partners of each sample from the other classes, one per draw."""
        c = self.codes[:, None]
        return self.outsiders(c, _pool_positions(z, len(self.codes) - self.size[c]))

    def outsiders(self, c, p) -> np.ndarray:
        """Entry p of the ascending pool of samples outside class c."""
        keys = c * self._stride + p
        return p + np.searchsorted(self._outsider_keys, keys, side="right") - self.start[c]


def _pool_positions(z, n) -> np.ndarray:
    """Pool positions for the draws z (rows x k) from pools of sizes n
    (rows x 1): a partial Fisher-Yates without replacement where the pool
    holds k, independent draws with replacement where it does not.

    The shuffle is virtual: slot s draws position j_s = s + below(n - s),
    then maps it back through the earlier swaps (t, j_t), t = s-1 .. 0, to
    the pool position whose element the swaps moved there. That is O(k^2)
    work per row, and the pool is never copied.
    """
    k = z.shape[1]
    s = np.arange(k)
    replace = n < k
    pos = below(z, np.where(replace, n, n - s)) + np.where(replace, 0, s)
    rows = ~replace[:, 0]
    shuffled = pos[rows]
    for t in range(k - 2, -1, -1):
        later = shuffled[:, t + 1:]
        later[later == shuffled[:, t:t + 1]] = t
    pos[rows] = shuffled
    return pos


def pairs_from_labels(x, y, k: int, seed: int):
    """k similar and k dissimilar pairs per sample; returns (pairs, labels).

    Similar partners are drawn uniformly from the sample's class (excluding
    itself), dissimilar partners from all other classes. Output order is by
    sample index, similar pairs first within each sample.
    """
    x, y = validate_supervision("labels", x, y)
    pools = _ClassPools(y, k, "pairs")
    n = len(x)
    z = SplitMix64(seed).draws(2 * k * n).reshape(n, 2 * k)
    idx = np.empty((n, 2 * k, 2), dtype=np.intp)
    idx[:, :, 0] = np.arange(n)[:, None]
    idx[:, :k, 1] = pools.same_class(z[:, :k])
    idx[:, k:, 1] = pools.other_class(z[:, k:])
    labels = np.tile(np.repeat([1, -1], k), n)
    return x[idx.reshape(-1, 2)], labels


def triplets_from_labels(x, y, k: int, seed: int) -> np.ndarray:
    """k triplets (anchor, same-class positive, other-class negative) per sample."""
    x, y = validate_supervision("labels", x, y)
    pools = _ClassPools(y, k, "triplets")
    n = len(x)
    z = SplitMix64(seed).draws(2 * k * n).reshape(n, 2 * k)
    idx = np.empty((n, k, 3), dtype=np.intp)
    idx[:, :, 0] = np.arange(n)[:, None]
    idx[:, :, 1] = pools.same_class(z[:, :k])
    idx[:, :, 2] = pools.other_class(z[:, k:])
    return x[idx.reshape(-1, 3)]


def quadruplets_from_labels(x, y, k: int, seed: int) -> np.ndarray:
    """k quadruplets per sample: (sample, same-class partner, random point,
    partner of a different class than the random point)."""
    x, y = validate_supervision("labels", x, y)
    pools = _ClassPools(y, k, "quadruplets")
    n = len(x)
    z = SplitMix64(seed).draws(3 * k * n).reshape(n, 3 * k)
    idx = np.empty((n, k, 4), dtype=np.intp)
    idx[:, :, 0] = np.arange(n)[:, None]
    idx[:, :, 1] = pools.same_class(z[:, :k])
    idx[:, :, 2] = below(z[:, k::2], n)
    c = pools.codes[idx[:, :, 2]]
    idx[:, :, 3] = pools.outsiders(c, below(z[:, k + 1::2], n - pools.size[c]))
    return x[idx.reshape(-1, 4)]
