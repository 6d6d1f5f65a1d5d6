"""Filter spectral-peakedness tests: closed-form DFT of sinusoids, the
white-noise reference distribution, invariances, and the export grid."""

import numpy as np
import pytest
import scipy.stats as ss

from brainalign.errors import ConfigurationError
from brainalign.filters import gabor_peakedness, summarize_filters
from brainalign.network import init_he_normal


@pytest.fixture
def rng():
    return np.random.default_rng(77)


class TestPeakedness:
    def test_sinusoid_closed_form(self):
        # a pure sinusoid at a non-self-conjugate bin puts all energy into
        # two conjugate bins: score = (k^2 - 1) / 2
        k = 8
        i, j = np.mgrid[0:k, 0:k]
        filt = np.cos(2 * np.pi * (1 * i + 2 * j) / k)
        res = gabor_peakedness(filt)
        assert not res["degenerate"]
        assert res["score"] == pytest.approx((k * k - 1) / 2, rel=1e-9)

    def test_white_noise_range_and_mean(self, rng):
        scores = np.array([gabor_peakedness(rng.normal(size=(3, 3)))["score"]
                           for _ in range(1000)])
        assert scores.min() >= 1.0 - 1e-12
        assert scores.max() <= 8.0 + 1e-12  # max <= sum of 8 non-DC bins
        assert 1.5 < scores.mean() < 4.0

    def test_constant_filter_degenerate(self):
        res = gabor_peakedness(np.full((4, 4), 0.3))
        assert res["degenerate"] and res["score"] == 1.0

    def test_scale_and_shift_invariance(self, rng):
        f = rng.normal(size=(3, 5, 5))
        base = gabor_peakedness(f)["score"]
        assert abs(gabor_peakedness(3.7 * f)["score"] - base) < 1e-10
        assert abs(gabor_peakedness(f + 2.0)["score"] - base) < 1e-10

    def test_circular_shift_invariance(self):
        k = 6
        i, j = np.mgrid[0:k, 0:k]
        filt = np.cos(2 * np.pi * (2 * i + 1 * j) / k + 0.3)
        base = gabor_peakedness(filt)["score"]
        shifted = np.roll(filt, (2, 3), axis=(0, 1))
        assert abs(gabor_peakedness(shifted)["score"] - base) < 1e-10

    def test_channel_averaging(self, rng):
        f = rng.normal(size=(3, 4, 4))
        assert gabor_peakedness(f)["score"] == pytest.approx(
            gabor_peakedness(f.mean(axis=0))["score"], abs=1e-12)

    def test_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            gabor_peakedness(np.ones((1, 1)))


class TestSummarize:
    def test_he_init_scores_match_white_noise_reference(self, rng):
        state = init_he_normal(0, channels=(32, 4, 4))
        summary = summarize_filters(state, rule="random")
        mc = np.array([gabor_peakedness(rng.normal(size=(3, 3, 3)))["score"]
                       for _ in range(1000)])
        assert abs(summary["mean"] - mc.mean()) < 3 * mc.std()

    def test_two_seeds_differ_but_overlap(self):
        s0 = summarize_filters(init_he_normal(0, channels=(64, 4, 4)), rule="random")
        s1 = summarize_filters(init_he_normal(1, channels=(64, 4, 4)), rule="random")
        assert not np.array_equal(s0["scores"], s1["scores"])
        assert ss.ks_2samp(s0["scores"], s1["scores"]).pvalue > 0.01

    def test_grid_in_unit_interval_with_16_filters(self):
        state = init_he_normal(2, channels=(32, 4, 4))
        summary = summarize_filters(state, rule="random")
        assert summary["grid"].shape == (16, 3, 3, 3)
        assert summary["grid"].min() >= 0.0 and summary["grid"].max() <= 1.0
        # min-max normalization is exact: each filter spans [0, 1]
        for g in summary["grid"]:
            assert g.min() == 0.0 and g.max() == 1.0

    def test_score_count_matches_filters(self):
        state = init_he_normal(3, channels=(8, 4, 4))
        summary = summarize_filters(state, rule="bp")
        assert summary["scores"].shape == (8,)
        assert summary["grid"].shape[0] == 8
        assert summary["rule"] == "bp"

    def test_csv_writers(self, tmp_path):
        from brainalign.filters import write_filter_grid_csv, write_filter_scores_csv

        state = init_he_normal(4, channels=(4, 4, 4))
        summary = summarize_filters(state, rule="pc")
        write_filter_scores_csv(summary, tmp_path / "scores.csv")
        write_filter_grid_csv(summary, tmp_path / "grid.csv")
        lines = (tmp_path / "scores.csv").read_text().splitlines()
        assert lines[0] == "rule,filter,peakedness,degenerate"
        assert len(lines) == 1 + 4 + 2  # header + filters + mean/std rows
        grid_lines = (tmp_path / "grid.csv").read_text().splitlines()
        assert len(grid_lines) == 1 + 4
