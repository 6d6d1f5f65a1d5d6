"""RDM construction tests: hand-computed Pearson distances, brute-force
pixel oracle, invariance properties, and the upper-triangle contract."""

import numpy as np
import pytest

from brainalign.errors import ConfigurationError, DataFormatError
from brainalign.rdm import (
    RDM,
    average_rdms,
    pixel_rdm,
    rdm_from_features,
    upper_triangle,
)

from helpers import stimulus_set


@pytest.fixture
def rng():
    return np.random.default_rng(33)


class TestRdmFromFeatures:
    def test_identical_rows_distance_zero(self):
        r = rdm_from_features(np.array([[1.0, 2, 3], [1, 2, 3]]), ("a", "b"))
        assert r.values[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_anticorrelated_rows_distance_two(self, rng):
        x = rng.normal(size=5)
        r = rdm_from_features(np.vstack([x, -x + 1.0]), ("a", "b"))
        assert r.values[0, 1] == pytest.approx(2.0, abs=1e-12)

    def test_hand_pearson_half(self):
        r = rdm_from_features(np.array([[1.0, 2, 3], [1, 3, 2]]), ("a", "b"))
        assert r.values[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_zero_variance_row_lists_ids(self):
        with pytest.raises(DataFormatError) as e:
            rdm_from_features(np.array([[1.0, 1, 1], [1, 2, 3]]), ("flat", "ok"))
        assert "flat" in str(e.value) and "ok" not in str(e.value)

    def test_needs_two_feature_dims(self):
        with pytest.raises(ConfigurationError):
            rdm_from_features(np.ones((3, 1)))

    def test_affine_rescaling_invariance(self, rng):
        x = rng.normal(size=(6, 20))
        a = rng.uniform(0.5, 2.0, size=(6, 1))
        b = rng.normal(size=(6, 1))
        d1 = rdm_from_features(x).values
        d2 = rdm_from_features(a * x + b).values
        assert np.abs(d1 - d2).max() < 1e-12

    def test_permutation_equivariance(self, rng):
        x = rng.normal(size=(7, 15))
        perm = rng.permutation(7)
        d = rdm_from_features(x).values
        dp = rdm_from_features(x[perm]).values
        assert np.abs(d[np.ix_(perm, perm)] - dp).max() < 1e-13

    def test_exact_invariants(self, rng):
        r = rdm_from_features(rng.normal(size=(10, 8)))
        assert np.array_equal(r.values, r.values.T)
        assert not np.diag(r.values).any()
        assert r.values.min() >= 0.0 and r.values.max() <= 2.0


class TestPixelRdm:
    def test_duplicate_image_zero(self, rng):
        img = rng.random(size=(1, 3, 4, 4))
        r = pixel_rdm(stimulus_set(np.concatenate([img, img, rng.random(size=(1, 3, 4, 4))])))
        assert r.values[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_inverted_image_two(self, rng):
        img = rng.random(size=(1, 3, 4, 4))
        r = pixel_rdm(stimulus_set(np.concatenate([img, 1.0 - img])))
        assert r.values[0, 1] == pytest.approx(2.0, abs=1e-12)

    def test_matches_flatten_pearson_oracle(self, rng):
        imgs = rng.random(size=(3, 3, 4, 4))
        r = pixel_rdm(stimulus_set(imgs)).values
        flat = imgs.reshape(3, -1)
        oracle = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                if i != j:
                    oracle[i, j] = 1 - np.corrcoef(flat[i], flat[j])[0, 1]
        assert np.abs(r - oracle).max() < 1e-12

    def test_constant_image_rejected(self):
        with pytest.raises(DataFormatError, match="zero-variance"):
            pixel_rdm(stimulus_set(np.full((2, 3, 4, 4), 0.5)))


class TestAverage:
    def test_single_rdm_identity(self, rng):
        r = rdm_from_features(rng.normal(size=(5, 6)))
        assert np.array_equal(average_rdms([r]).values, r.values)

    def test_duplicate_average_identity(self, rng):
        r = rdm_from_features(rng.normal(size=(5, 6)))
        assert np.abs(average_rdms([r, r]).values - r.values).max() < 1e-15

    def test_entrywise_mean(self):
        ids = ("a", "b")
        r1 = RDM(values=np.array([[0.0, 0.2], [0.2, 0.0]]), ids=ids)
        r2 = RDM(values=np.array([[0.0, 0.4], [0.4, 0.0]]), ids=ids)
        assert average_rdms([r1, r2]).values[0, 1] == pytest.approx(0.3, abs=1e-15)

    def test_id_order_mismatch_rejected(self):
        r1 = RDM(values=np.zeros((2, 2)), ids=("a", "b"))
        r2 = RDM(values=np.zeros((2, 2)), ids=("b", "a"))
        with pytest.raises(DataFormatError, match="reorder"):
            average_rdms([r1, r2])

    def test_preserves_symmetry_and_diagonal_exactly(self, rng):
        rdms = [rdm_from_features(rng.normal(size=(6, 5))) for _ in range(3)]
        avg = average_rdms(rdms)
        assert np.array_equal(avg.values, avg.values.T)
        assert not np.diag(avg.values).any()


class TestUpperTriangle:
    def test_n3_order(self):
        v = upper_triangle(np.arange(9).reshape(3, 3))
        assert v.tolist() == [1, 2, 5]  # (0,1), (0,2), (1,2)

    def test_n720_length(self):
        assert upper_triangle(np.zeros((720, 720))).shape == (258840,)
