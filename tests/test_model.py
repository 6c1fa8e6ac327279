import hashlib
import os
import pathlib
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mlearn
from mlearn import FitReport, MahalanobisModel, from_components
from mlearn import model as model_module
from mlearn.exceptions import DimensionError, ValidationError


class TestConstruction:
    def test_identity_model_euclidean(self):
        m = from_components(np.eye(3))
        assert m.score_pairs([[[0, 0, 0], [3, 4, 0]]])[0] == 5.0

    def test_shapes(self):
        m = from_components([[2.0, 0.0], [0.0, 1.0]])
        assert m.n_components == 2 and m.n_features == 2
        assert m.algorithm == "manual"

    def test_rank_one_row_allowed(self):
        m = from_components([[0.5, 0.5, 0.0]])
        assert m.n_components == 1 and m.n_features == 3

    def test_rows_exceed_cols_rejected(self):
        with pytest.raises(DimensionError):
            from_components(np.ones((3, 2)))

    def test_empty_and_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            from_components(np.empty((0, 2)))
        with pytest.raises(ValidationError):
            from_components([[np.nan, 0.0]])

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValidationError):
            MahalanobisModel(np.eye(2), threshold=-1.0)


class TestTransform:
    def test_hand_case(self):
        m = from_components([[2.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(m.transform([[1.0, 1.0]]), [[2.0, 1.0]])

    def test_identity_bit_exact(self, rng):
        x = rng.standard_normal((10, 4))
        assert np.array_equal(from_components(np.eye(4)).transform(x), x)

    def test_hand_matrix_multiply(self):
        m = from_components([[1.0, 1.0], [0.0, 1.0]])
        out = m.transform([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(out, [[3.0, 2.0], [7.0, 4.0]])

    def test_linearity(self, rng):
        m = from_components(rng.standard_normal((2, 3)))
        x, y = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
        lhs = m.transform(2.5 * x - 0.7 * y)
        rhs = 2.5 * m.transform(x) - 0.7 * m.transform(y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_column_mismatch_named(self):
        m = from_components(np.eye(3))
        with pytest.raises(DimensionError, match="3"):
            m.transform(np.ones((2, 4)))


class TestScorePairs:
    def test_euclidean_345(self):
        assert from_components(np.eye(2)).score_pairs([[[0, 0], [3, 4]]])[0] == 5.0

    def test_identical_points_zero(self, rng):
        m = from_components(rng.standard_normal((3, 3)))
        x = rng.standard_normal(3)
        assert m.score_pairs([[x, x]])[0] == 0.0

    def test_transform_then_euclidean(self):
        m = from_components([[2.0, 0.0], [0.0, 1.0]])
        assert abs(m.score_pairs([[[0, 0], [1, 1]]])[0] - np.sqrt(5)) <= 1e-15

    def test_nonnegative(self, rng):
        m = from_components(rng.standard_normal((2, 4)))
        pairs = rng.standard_normal((20, 2, 4))
        assert np.all(m.score_pairs(pairs) >= 0)

    def test_two_formulations_agree(self, rng):
        m = from_components(rng.standard_normal((3, 3)))
        mm = m.get_mahalanobis_matrix()
        for _ in range(20):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            d1 = m.score_pairs([[x, y]])[0]
            d2 = np.sqrt((x - y) @ mm @ (x - y))
            assert abs(d1 - d2) <= 1e-9 * (1 + d1)

    def test_metric_axioms(self, rng):
        m = from_components(rng.standard_normal((2, 3)))
        f = m.get_metric()
        for _ in range(20):
            x, y, z = rng.standard_normal((3, 3))
            assert f(x, y) >= 0
            assert f(x, y) == f(y, x)
            assert f(x, z) <= f(x, y) + f(y, z) + 1e-9


class TestGetMetric:
    def test_euclidean(self):
        f = from_components(np.eye(2)).get_metric()
        assert f([0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_matches_score_pairs_exactly(self, rng):
        m = from_components(rng.standard_normal((3, 4)))
        f = m.get_metric()
        for _ in range(100):
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            assert f(x, y) == m.score_pairs([[x, y]])[0]

    def test_detached_lifetime(self, rng):
        m = from_components(rng.standard_normal((2, 2)))
        f = m.get_metric()
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        before = f(x, y)
        m.components[:] = 0.0  # mutate the source model
        assert f(x, y) == before

    def test_mismatched_vector_length(self):
        f = from_components(np.eye(3)).get_metric()
        with pytest.raises(DimensionError):
            f([1.0, 2.0], [1.0, 2.0, 3.0])


class TestMahalanobisMatrix:
    def test_identity(self):
        assert np.array_equal(from_components(np.eye(2)).get_mahalanobis_matrix(),
                              np.eye(2))

    def test_hand_ltl(self):
        m = from_components([[1.0, 1.0], [0.0, 1.0]])
        assert np.allclose(m.get_mahalanobis_matrix(), [[1.0, 1.0], [1.0, 2.0]])

    def test_quadratic_form_oracle(self, rng):
        m = from_components(rng.standard_normal((2, 3)))
        mm = m.get_mahalanobis_matrix()
        assert np.max(np.abs(mm - mm.T)) <= 1e-15
        for _ in range(10):
            x = rng.standard_normal(3)
            lx = m.transform(x[None, :])[0]
            assert abs(x @ mm @ x - lx @ lx) <= 1e-10 * (1 + abs(lx @ lx))


class TestPredictPairs:
    def test_threshold_with_tie(self):
        m = MahalanobisModel(np.eye(1), threshold=1.0)
        pairs = [[[0.0], [0.5]], [[0.0], [1.0]], [[0.0], [1.5]]]
        assert np.array_equal(m.predict_pairs(pairs), [1, 1, -1])

    def test_zero_threshold_identical_pair(self):
        m = MahalanobisModel(np.eye(2), threshold=0.0)
        assert m.predict_pairs([[[1.0, 2.0], [1.0, 2.0]]])[0] == 1

    def test_recompute_oracle(self, rng):
        m = MahalanobisModel(rng.standard_normal((2, 3)), threshold=1.3)
        pairs = rng.standard_normal((50, 2, 3))
        d = m.score_pairs(pairs)
        expected = np.where(d <= 1.3, 1, -1)
        assert np.array_equal(m.predict_pairs(pairs), expected)

    def test_missing_threshold_raises(self):
        with pytest.raises(ValidationError, match="calibrate"):
            from_components(np.eye(2)).predict_pairs([[[0.0, 0.0], [1.0, 1.0]]])


class TestDecisionFunction:
    def test_negated_distances(self):
        m = from_components(np.eye(1))
        dec = m.decision_function_pairs([[[0.0], [0.5]], [[0.0], [1.5]]])
        assert np.array_equal(dec, [-0.5, -1.5])

    def test_ordering_reversed(self, rng):
        m = from_components(rng.standard_normal((2, 2)))
        pairs = rng.standard_normal((20, 2, 2))
        d = m.score_pairs(pairs)
        dec = m.decision_function_pairs(pairs)
        assert np.array_equal(np.argsort(dec), np.argsort(-d))

    def test_consistent_with_predict(self, rng):
        m = MahalanobisModel(rng.standard_normal((2, 2)), threshold=0.9)
        pairs = rng.standard_normal((30, 2, 2))
        pred = m.predict_pairs(pairs)
        dec = m.decision_function_pairs(pairs)
        assert np.array_equal(pred, np.where(dec >= -0.9, 1, -1))


class TestPredictTriplets:
    def test_simple(self):
        m = from_components(np.eye(2))
        assert m.predict_triplets([[[0, 0], [1, 0], [3, 0]]])[0] == 1

    def test_tie_rule(self):
        m = from_components(np.eye(2))
        assert m.predict_triplets([[[0, 0], [1, 0], [1, 0]]])[0] == -1

    def test_metric_dependence(self):
        t = [[[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]]]
        assert from_components(np.eye(2)).predict_triplets(t)[0] == -1
        assert from_components([[1.0, 0.0], [0.0, 10.0]]).predict_triplets(t)[0] == 1

    def test_scale_invariance(self, rng):
        l = rng.standard_normal((3, 3))
        triplets = rng.standard_normal((30, 3, 3))
        p1 = from_components(l).predict_triplets(triplets)
        p2 = from_components(3.7 * l).predict_triplets(triplets)
        assert np.array_equal(p1, p2)


class TestPredictQuadruplets:
    def test_simple(self):
        m = from_components(np.eye(2))
        assert m.predict_quadruplets([[[0, 0], [1, 0], [0, 0], [3, 0]]])[0] == 1

    def test_tie_rule(self):
        m = from_components(np.eye(2))
        q = [[[1.0, 1.0], [1.0, 1.0], [2.0, 2.0], [2.0, 2.0]]]
        assert m.predict_quadruplets(q)[0] == -1

    def test_reduces_to_triplets(self, rng):
        m = from_components(rng.standard_normal((2, 3)))
        for _ in range(10):
            a, b, c = rng.standard_normal((3, 3))
            tp = m.predict_triplets([[a, b, c]])[0]
            qp = m.predict_quadruplets([[a, b, a, c]])[0]
            assert tp == qp


class TestBatchStableDistances:
    """Every distance comes from one kernel that is exact under batching."""

    @pytest.fixture(params=[1, 2, 7], ids=lambda c: f"n_components={c}")
    def model(self, request):
        r = np.random.default_rng(request.param)
        return from_components(r.standard_normal((request.param, 7)))

    @pytest.fixture
    def pairs(self):
        return np.random.default_rng(99).standard_normal((5000, 2, 7))

    def test_score_pairs_equals_metric_for_every_pair(self, model, pairs):
        dist = model.score_pairs(pairs)
        metric = model.get_metric()
        assert all(dist[i] == metric(*pairs[i]) for i in range(len(pairs)))

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 1000, 4097])
    def test_prefix_batches_are_exact(self, model, pairs, m):
        assert np.array_equal(model.score_pairs(pairs[:m]),
                              model.score_pairs(pairs)[:m])

    def test_tuple_predictions_equal_two_score_pairs_calls(self, model):
        r = np.random.default_rng(5)
        t = r.standard_normal((3000, 3, 7))
        q = r.standard_normal((3000, 4, 7))
        t[::3, 2] = t[::3, 1]  # exact ties, which must predict -1
        q[::3, 2:] = q[::3, :2]
        expected = np.where(model.score_pairs(t[:, [0, 1]])
                            < model.score_pairs(t[:, [0, 2]]), 1, -1)
        assert np.array_equal(model.predict_triplets(t), expected)
        assert np.all(expected[::3] == -1)
        expected = np.where(model.score_pairs(q[:, [0, 1]])
                            < model.score_pairs(q[:, [2, 3]]), 1, -1)
        assert np.array_equal(model.predict_quadruplets(q), expected)
        assert np.all(expected[::3] == -1)

    @pytest.mark.parametrize("method, arity", [("score_pairs", 2),
                                               ("predict_triplets", 3),
                                               ("predict_quadruplets", 4)])
    def test_wrong_arity_is_a_validation_error(self, method, arity):
        m = from_components(np.eye(2))
        with pytest.raises(ValidationError, match="arity"):
            getattr(m, method)(np.zeros((3, arity + 1, 2)))


_BLOCK = model_module._BLOCK


@st.composite
def kernel_cases(draw):
    """A model with 1 <= c <= d <= 40, n pairs up to about three chunks of
    two blocks each (with counts on both sides of every block and chunk
    boundary), values scaled by 10^e for |e| <= 100, a row to check, and
    triplets and quadruplets of the same size."""
    r = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.integers(1, 40))
    c = draw(st.integers(1, d))
    edges = [k * _BLOCK + e for k in range(1, 7) for e in (-1, 0, 1)]
    n = draw(st.one_of(st.integers(0, 6 * _BLOCK + 2), st.sampled_from(edges)))
    scale = 10.0 ** draw(st.integers(-100, 100))
    model = from_components(r.standard_normal((c, d)))
    t = scale * r.standard_normal((n, 4, d))
    t[: n // 3, 2:] = t[: n // 3, :2]  # exact ties, which must predict -1
    return model, t, draw(st.integers(0, max(n - 1, 0)))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=kernel_cases())
def test_kernel_rows_do_not_depend_on_their_batch(case):
    model, t, i = case
    x = t[:, 0]
    # the drawn row, the ends, and both sides of every block and chunk edge
    edges = {0, i, len(t) - 1} | {k * _BLOCK + e for k in range(1, 7) for e in (-1, 0)}
    rows = sorted(j for j in edges if 0 <= j < len(t))
    with mock.patch.object(model_module, "_CHUNK", 2 * _BLOCK):
        z = model.transform(x)
        assert z.shape == (len(t), model.n_components)
        for j in rows:
            assert np.array_equal(z[j], model.transform(x[j:j + 1])[0])
        if len(t):
            # two training points of two labels mirrored about each query:
            # near-ties, which a query's bits decide
            step = 1e-3 * t[:, 1]
            train = np.concatenate([x + step, x - step])
            labels = np.repeat([0, 1], len(t))
            pred = mlearn.knn_predict(train, labels, x, 1, model)
            for j in rows:
                assert pred[j] == mlearn.knn_predict(train, labels, x[j:j + 1], 1,
                                                     model)[0]
        near = model.score_pairs(t[:, [0, 1]])
        assert near.shape == (len(t),)
        if len(t):
            assert near[i] == model.get_metric()(*t[i, :2])
            assert near[i] == model.score_pairs(t[i:i + 1, :2])[0]
        triplet_far = model.score_pairs(t[:, [0, 2]])
        assert np.array_equal(model.predict_triplets(t[:, :3]),
                              np.where(near < triplet_far, 1, -1))
        quad_far = model.score_pairs(t[:, [2, 3]])
        assert np.array_equal(model.predict_quadruplets(t),
                              np.where(near < quad_far, 1, -1))


def _kernel_digest() -> str:
    """sha256 of score_pairs and transform over fixed models and data; the
    shapes cover c=1, d=1 and more than one chunk."""
    r = np.random.default_rng(11)
    h = hashlib.sha256()
    for c, d, n in [(1, 1, 300), (1, 7, 300), (3, 3, 5000), (7, 7, 9000),
                    (5, 20, 300), (20, 20, 9000), (40, 40, 300)]:
        model = from_components(r.standard_normal((c, d)))
        pairs = r.standard_normal((n, 2, d))
        h.update(model.score_pairs(pairs).tobytes())
        h.update(model.transform(pairs[:, 0]).tobytes())
    return h.hexdigest()


def test_kernel_bits_do_not_depend_on_the_blas_thread_count():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    paths = [str(pathlib.Path(mlearn.__file__).parents[1]),
             str(pathlib.Path(__file__).parent)]
    code = ("import sys; sys.path[:0] = " + repr(paths) + "; "
            "import test_model; print(test_model._kernel_digest())")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == _kernel_digest()


def test_score_pairs_memory_does_not_grow_with_the_pairs():
    pairs = np.random.default_rng(4).standard_normal((100_000, 2, 20))
    model = from_components(np.random.default_rng(5).standard_normal((20, 20)))
    tracemalloc.start()
    try:
        model.score_pairs(pairs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the result (0.8 MB) and the kernel's two 4096-row buffers (1.3 MB);
    # the finiteness check before them holds one 256 KiB chunk mask, where
    # a whole-input mask would take 4 MB and two n x d difference blocks 32
    assert peak < 2.5 * 2 ** 20


class TestPersistence:
    def test_round_trip_exact(self, rng, tmp_path):
        m = MahalanobisModel(rng.standard_normal((2, 3)), threshold=0.75,
                             algorithm="nca",
                             fit_report=FitReport(False, 7, -1.25, (-1.0, -1.25)))
        path = tmp_path / "m.json"
        m.save(path)
        m2 = MahalanobisModel.load(path)
        assert np.array_equal(m.components, m2.components)
        assert m2.threshold == 0.75
        assert m2.algorithm == "nca"
        assert m2.fit_report.converged is False
        assert m2.fit_report.n_iter == 7
        assert m2.fit_report.final_objective == -1.25
        pairs = rng.standard_normal((50, 2, 3))
        assert np.array_equal(m.score_pairs(pairs), m2.score_pairs(pairs))
        assert np.array_equal(m.predict_pairs(pairs), m2.predict_pairs(pairs))

    def test_document_schema(self, rng, tmp_path):
        import json
        m = from_components(rng.standard_normal((2, 4)))
        path = tmp_path / "m.json"
        m.save(path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"algorithm", "n_features", "n_components",
                            "components", "threshold", "fit_report"}
        assert doc["n_features"] == 4 and doc["n_components"] == 2
        assert doc["threshold"] is None
        assert set(doc["fit_report"]) == {"converged", "n_iter", "final_objective"}

    def test_shape_mismatch_detected(self, tmp_path):
        import json
        doc = {"algorithm": "manual", "n_features": 5, "n_components": 2,
               "components": [[1.0, 0.0], [0.0, 1.0]], "threshold": None,
               "fit_report": {"converged": True, "n_iter": 1,
                              "final_objective": 0.0}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            MahalanobisModel.load(path)

    @staticmethod
    def _doc(**changes):
        doc = {"algorithm": "manual", "n_features": 2, "n_components": 2,
               "components": [[1.0, 0.0], [0.0, 1.0]], "threshold": None,
               "fit_report": {"converged": True, "n_iter": 1,
                              "final_objective": 0.0}}
        for key, value in changes.items():
            if key in doc["fit_report"]:
                doc["fit_report"][key] = value
            else:
                doc[key] = value
        return doc

    @pytest.mark.parametrize("changes", [
        {"components": [[1.0, 0.0], [0.0]]}, {"components": "abc"},
        {"final_objective": "x"}, {"n_iter": "x"}, {"n_features": "x"},
        {"converged": "false"}, {"converged": 0}, {"converged": None},
        {"n_iter": 2.7}, {"n_iter": 2.0}, {"n_iter": True}, {"n_iter": -1},
        {"n_components": 2.7}, {"n_features": 2.0}, {"n_features": True}])
    def test_malformed_values_are_validation_errors(self, changes):
        with pytest.raises(ValidationError, match="^malformed model document"):
            MahalanobisModel.from_dict(self._doc(**changes))

    @pytest.mark.parametrize("converged", [True, False])
    @pytest.mark.parametrize("threshold", [None, 0.0, 1.25])
    def test_saved_documents_load_with_their_fields(self, tmp_path, rng,
                                                    converged, threshold):
        report = FitReport(converged, 37, -2.5, (1.0, -2.5))
        m = MahalanobisModel(rng.standard_normal((2, 3)), threshold=threshold,
                             algorithm="nca", fit_report=report)
        m.save(tmp_path / "m.json")
        back = MahalanobisModel.load(tmp_path / "m.json")
        assert back.fit_report.converged is converged
        assert back.fit_report.n_iter == 37
        assert back.components.tobytes() == m.components.tobytes()
        pairs = rng.standard_normal((20, 2, 3))
        assert back.score_pairs(pairs).tobytes() == m.score_pairs(pairs).tobytes()

    def test_component_errors_keep_their_message(self):
        with pytest.raises(ValidationError,
                           match="^components must be a non-empty 2-D matrix$"):
            MahalanobisModel.from_dict(self._doc(components=[1.0, 2.0]))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            MahalanobisModel.load(path)


class TestFitReport:
    def test_iteration_count_matches_trace(self):
        fr = FitReport(True, 3, 1.0, (3.0, 2.0, 1.0))
        assert fr.n_iter == len(fr.objective_trace)
