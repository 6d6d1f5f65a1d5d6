"""RDM construction tests: hand-computed Pearson distances, brute-force
pixel oracle, invariance properties, and the upper-triangle vector layout."""

import numpy as np
import pytest

from brainalign.errors import ConfigurationError, DataFormatError
from brainalign.rdm import average_rdms, pixel_rdm, rdm_from_features

from helpers import square, stimulus_set


@pytest.fixture
def rng():
    return np.random.default_rng(33)


class TestRdmFromFeatures:
    def test_identical_rows_distance_zero(self):
        r = rdm_from_features(np.array([[1.0, 2, 3], [1, 2, 3]]), ("a", "b"))
        assert r[0] == pytest.approx(0.0, abs=1e-12)

    def test_anticorrelated_rows_distance_two(self, rng):
        x = rng.normal(size=5)
        r = rdm_from_features(np.vstack([x, -x + 1.0]), ("a", "b"))
        assert r[0] == pytest.approx(2.0, abs=1e-12)

    def test_hand_pearson_half(self):
        r = rdm_from_features(np.array([[1.0, 2, 3], [1, 3, 2]]), ("a", "b"))
        assert r.tolist() == [pytest.approx(0.5, abs=1e-12)]

    def test_pair_order_n3(self):
        # d(a,b) = 1 - 0.5, d(a,c) = 1 + 1, d(b,c) = 1 + 0.5
        r = rdm_from_features(np.array([[1.0, 2, 3], [1, 3, 2], [3, 2, 1]]))
        assert r == pytest.approx([0.5, 2.0, 1.5], abs=1e-12)  # (0,1), (0,2), (1,2)

    def test_n720_length(self, rng):
        assert rdm_from_features(rng.normal(size=(720, 3))).shape == (258840,)

    def test_is_upper_triangle_of_square_reference_bit_for_bit(self, rng):
        # tied values within rows, duplicate rows, and rows that are affine
        # copies of one another (distance 0 or 2 up to rounding)
        x = np.vstack([rng.normal(size=(5, 8)),
                       rng.integers(0, 3, size=(4, 8)).astype(float),
                       np.tile([1.0, 1, 2, 2, 3, 3, 0, 0], (3, 1))])
        x = np.vstack([x, x[:4], 2.0 * x[4:6] + 1.0, -x[6:8]])
        c = x - x.mean(axis=1, keepdims=True)
        norms = np.sqrt(np.einsum("ij,ij->i", c, c))
        d = 1.0 - (c @ c.T) / np.outer(norms, norms)
        reference = np.clip((d + d.T) / 2.0, 0.0, 2.0)
        want = reference[np.triu_indices(len(x), k=1)]
        assert np.array_equal(rdm_from_features(x), want)

    def test_zero_variance_row_lists_ids(self):
        with pytest.raises(DataFormatError) as e:
            rdm_from_features(np.array([[1.0, 1, 1], [1, 2, 3]]), ("flat", "ok"))
        assert "flat" in str(e.value) and "ok" not in str(e.value)

    @pytest.mark.filterwarnings("ignore:invalid value", "ignore:overflow")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_non_finite_row_lists_ids(self, bad):
        # 1e200 is finite, but its sum of squares overflows
        x = np.array([[1.0, 2, 3], [1, bad, 3], [3, 1, 2]])
        with pytest.raises(DataFormatError,
                           match=r"non-finite feature rows for stimuli \['b'\]$"):
            rdm_from_features(x, ("a", "b", "c"))

    def test_needs_two_feature_dims(self):
        with pytest.raises(ConfigurationError):
            rdm_from_features(np.ones((3, 1)))

    def test_affine_rescaling_invariance(self, rng):
        x = rng.normal(size=(6, 20))
        a = rng.uniform(0.5, 2.0, size=(6, 1))
        b = rng.normal(size=(6, 1))
        d1 = rdm_from_features(x)
        d2 = rdm_from_features(a * x + b)
        assert np.abs(d1 - d2).max() < 1e-12

    def test_permutation_equivariance(self, rng):
        x = rng.normal(size=(7, 15))
        perm = rng.permutation(7)
        d = square(rdm_from_features(x), 7)
        dp = square(rdm_from_features(x[perm]), 7)
        assert np.abs(d[np.ix_(perm, perm)] - dp).max() < 1e-13

    def test_exact_invariants(self, rng):
        r = rdm_from_features(rng.normal(size=(10, 8)))
        assert r.shape == (45,) and r.dtype == np.float64
        assert r.min() >= 0.0 and r.max() <= 2.0


class TestPixelRdm:
    def test_duplicate_image_zero(self, rng):
        img = rng.random(size=(1, 3, 4, 4))
        r = pixel_rdm(stimulus_set(np.concatenate([img, img, rng.random(size=(1, 3, 4, 4))])))
        assert r[0] == pytest.approx(0.0, abs=1e-12)

    def test_inverted_image_two(self, rng):
        img = rng.random(size=(1, 3, 4, 4))
        r = pixel_rdm(stimulus_set(np.concatenate([img, 1.0 - img])))
        assert r[0] == pytest.approx(2.0, abs=1e-12)

    def test_matches_flatten_pearson_oracle(self, rng):
        imgs = rng.random(size=(3, 3, 4, 4))
        r = square(pixel_rdm(stimulus_set(imgs)), 3)
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
        assert np.array_equal(average_rdms([r]), r)

    def test_duplicate_average_identity(self, rng):
        r = rdm_from_features(rng.normal(size=(5, 6)))
        assert np.abs(average_rdms([r, r]) - r).max() < 1e-15

    def test_entrywise_mean(self):
        mean = average_rdms([np.array([0.2, 0.0, 1.0]), np.array([0.4, 0.0, 2.0])])
        assert mean == pytest.approx([0.3, 0.0, 1.5], abs=1e-15)
