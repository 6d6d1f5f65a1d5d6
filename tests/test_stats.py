"""Statistics tests. Every routine is checked against an independent
implementation: scipy for ranks/Spearman/FDR, a hand step-up loop for BH,
closed-form arithmetic for Spearman-Brown and Cohen's d, and null
simulations for the permutation and bootstrap machinery."""

import math

import numpy as np
import pytest
import scipy.stats as ss

from brainalign import stats
from brainalign.errors import ConfigurationError, UndefinedStatisticError


@pytest.fixture
def rng():
    return np.random.default_rng(55)


# ---------------------------------------------------------------------------
# Ranks and Spearman
# ---------------------------------------------------------------------------

class TestSpearman:
    def test_identity(self, rng):
        x = rng.normal(size=20)
        assert stats.spearman(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_reversal(self, rng):
        x = np.sort(rng.normal(size=20))
        assert stats.spearman(x, x[::-1]) == pytest.approx(-1.0, abs=1e-12)

    def test_rank_difference_formula(self):
        # 1 - 6*sum(d^2)/(n(n^2-1)) with d^2 summing to 4
        assert stats.spearman([1, 2, 3, 4, 5], [1, 3, 2, 5, 4]) == pytest.approx(0.8)

    def test_matches_scipy_on_200_random_instances(self, rng):
        for _ in range(200):
            n = int(rng.integers(5, 60))
            x = rng.integers(0, 8, n).astype(float) if rng.random() < 0.5 else rng.normal(size=n)
            y = rng.integers(0, 8, n).astype(float) if rng.random() < 0.5 else rng.normal(size=n)
            if np.ptp(x) == 0 or np.ptp(y) == 0:
                continue
            assert stats.spearman(x, y) == pytest.approx(
                ss.spearmanr(x, y).statistic, abs=1e-10)

    def test_monotone_transform_invariance(self, rng):
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        base = stats.spearman(x, y)
        assert stats.spearman(np.exp(x), y**3) == pytest.approx(base, abs=1e-12)

    def test_constant_vector_rejected(self):
        with pytest.raises(UndefinedStatisticError):
            stats.spearman(np.ones(5), np.arange(5.0))

    def test_short_vectors_rejected(self):
        with pytest.raises(ConfigurationError):
            stats.spearman([1.0, 2.0], [2.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        x = np.arange(6.0)
        x[2] = bad
        # a plain float, not numpy 2's repr np.float64(nan)
        with pytest.raises(ConfigurationError, match=f"non-finite value at index 2: {bad}$"):
            stats.spearman(x, np.arange(6.0))
        with pytest.raises(ConfigurationError, match="second vector"):
            stats.spearman(np.arange(6.0), x)

    def test_rank_rows_matches_scipy_rankdata(self, rng):
        m = rng.integers(0, 5, size=(40, 25)).astype(float)
        mine = _ranks(m)
        ref = np.vstack([ss.rankdata(row) for row in m])
        assert np.array_equal(mine, ref)


def _ranks(m):
    """rank_rows' ranks of each row of a 2D array."""
    return np.vstack([stats.rank_rows(row)[0] for row in m])


def _stable_rank_rows(m):
    """The stable-argsort ranking rank_rows replaced, kept as a reference:
    each element's tie group start and end from running max/min scans."""
    m = np.asarray(m, dtype=np.float64)
    rows, n = m.shape
    order = np.argsort(m, axis=1, kind="stable")
    s = np.take_along_axis(m, order, axis=1)
    pos = np.broadcast_to(np.arange(n), (rows, n))
    new_group = np.ones((rows, n), dtype=bool)
    new_group[:, 1:] = s[:, 1:] != s[:, :-1]
    start = np.maximum.accumulate(np.where(new_group, pos, 0), axis=1)
    nxt = np.where(new_group, pos, n)
    nxt = np.concatenate([nxt[:, 1:], np.full((rows, 1), n)], axis=1)
    end = np.flip(np.minimum.accumulate(np.flip(nxt, axis=1), axis=1), axis=1) - 1
    avg = (start + end) / 2.0 + 1.0
    ranks = np.empty_like(avg)
    np.put_along_axis(ranks, order, avg, axis=1)
    return ranks


_RANK_CASES = {
    "integer_ties": [[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0]],
    "all_equal": [[2.5] * 9],
    "signed_zeros": [[0.0, -0.0, 1.0, -0.0, 0.0, -1.0, 0.0, -0.0]],
    "infinities": [[np.inf, -1.0, -np.inf, np.inf, 0.0, -np.inf, np.inf, 2.0]],
    "n1": [[7.0]],
    "n2_tied": [[7.0, 7.0]],
    "n2": [[8.0, 7.0]],
    "rows_with_different_ties": [[1.0, 1.0, 2.0, 2.0, 3.0, 3.0],
                                 [5.0, 4.0, 3.0, 2.0, 1.0, 0.0],
                                 [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
                                 [9.0, 9.0, 9.0, 9.0, 9.0, 9.0],
                                 [2.0, 1.0, 2.0, 1.0, 2.0, 1.0]],
}


class TestRankRows:
    @pytest.mark.parametrize("case", sorted(_RANK_CASES))
    def test_matches_rankdata_and_stable_reference(self, case):
        m = np.array(_RANK_CASES[case])
        ranks = _ranks(m)
        assert np.array_equal(ranks, _stable_rank_rows(m))
        assert np.array_equal(ranks, np.vstack([ss.rankdata(row) for row in m]))

    @pytest.mark.parametrize("case", sorted(_RANK_CASES))
    def test_returns_its_sort_and_tie_runs(self, case):
        for row in np.array(_RANK_CASES[case]):
            ranks, order, bounds = stats.rank_rows(row)
            assert np.array_equal(np.sort(order), np.arange(row.size))
            assert np.all(row[order][1:] >= row[order][:-1])
            # a run holds equal values, and each bound starts a new value
            assert bounds[0] == 0 and bounds[-1] == row.size
            for start, stop in zip(bounds[:-1], bounds[1:]):
                assert np.all(row[order[start:stop]] == row[order[start]])
                assert np.all(ranks[order[start:stop]] == (start + stop + 1) / 2.0)
            assert np.all(row[order[bounds[1:-1]]] != row[order[bounds[1:-1] - 1]])

    def test_long_tied_row(self):
        # the pair count of 720 stimuli, in about 400 tie runs
        m = np.round(np.random.default_rng(3).normal(size=(1, 258840)), 2)
        ranks = _ranks(m)
        assert np.array_equal(ranks, _stable_rank_rows(m))
        assert np.array_equal(ranks[0], ss.rankdata(m[0]))

    def test_permuting_columns_permutes_ranks(self, rng):
        m = np.vstack([rng.integers(0, 6, 200).astype(float), rng.normal(size=200),
                       np.round(rng.normal(size=200), 1)])
        ranks = _ranks(m)
        for _ in range(5):
            perm = rng.permutation(200)
            assert np.array_equal(_ranks(m[:, perm]), ranks[:, perm])


# ---------------------------------------------------------------------------
# Bootstrap
# ---------------------------------------------------------------------------

def _bootstrap_oracle(x, y, n_boot, seed, level=0.95):
    """Replays bootstrap_ci's draws, scoring each kept resample with scipy.
    Returns the percentile CI and the number of degenerate rows drawn."""
    rng = np.random.default_rng(seed)
    n = len(x)
    rhos, degenerate = [], 0
    while len(rhos) < n_boot:
        for row in rng.integers(0, n, size=(stats._BOOT_CHUNK, n)):
            if np.ptp(x[row]) == 0 or np.ptp(y[row]) == 0:
                degenerate += 1
            elif len(rhos) < n_boot:
                rhos.append(ss.spearmanr(x[row], y[row]).statistic)
    alpha = (1.0 - level) / 2.0
    lo, hi = np.percentile(rhos, [100 * alpha, 100 * (1 - alpha)])
    return (lo, hi), degenerate


def _tied_pair(n, seed):
    r = np.random.default_rng(seed)
    return np.round(r.normal(size=n), 1), np.round(r.normal(size=n), 1)


def _integer_pair(n, seed):
    r = np.random.default_rng(seed)
    return r.integers(0, 4, n).astype(float), r.integers(0, 3, n).astype(float)


class TestBootstrap:
    @pytest.mark.parametrize("make", [_tied_pair, _integer_pair])
    def test_tie_layout_bounds_match_searchsorted(self, make):
        for v in make(500, 4):
            order, below, through = stats._tie_layout(v)
            ranks = stats.rank_rows(v)[0]
            assert np.array_equal(np.sort(order), np.arange(v.size))
            assert np.all(np.diff(v[order]) >= 0)
            sorted_ranks = np.sort(ranks)
            assert np.array_equal(below, np.searchsorted(sorted_ranks, ranks, "left"))
            assert np.array_equal(through, np.searchsorted(sorted_ranks, ranks, "right"))

    @pytest.mark.parametrize("make, n_boot, seed", [
        (lambda: np.random.default_rng(1).normal(size=(2, 45)), 300, 0),
        (lambda: np.random.default_rng(2).normal(size=(2, 30)), 100, 1),
        (lambda: _tied_pair(60, 3), 300, 2),
        (lambda: _tied_pair(25, 4), 100, 3),
        (lambda: _integer_pair(50, 5), 300, 4),
        (lambda: _integer_pair(20, 6), 100, 5),
    ], ids=["free-2chunks", "free-partial", "tied-2chunks", "tied-partial",
            "integer-2chunks", "integer-partial"])
    def test_matches_scipy_replay(self, make, n_boot, seed):
        # n_boot 300 draws two chunks; n_boot 100 keeps part of one
        x, y = make()
        (lo, hi), degenerate = _bootstrap_oracle(x, y, n_boot, seed)
        assert degenerate <= max(1, int(0.01 * n_boot))
        assert stats.bootstrap_ci(x, y, n_boot=n_boot, seed=seed) == \
            pytest.approx((lo, hi), abs=1e-12, rel=0)

    def test_matches_scipy_replay_with_degenerate_rows(self):
        # one x value in 8: about 1 resample in 200 draws only zeros
        x = np.zeros(40)
        x[[3, 11, 19, 27, 35]] = 1.0
        y = (np.arange(40) % 5).astype(float)
        (lo, hi), degenerate = _bootstrap_oracle(x, y, 1000, seed=1)
        assert 0 < degenerate <= 10
        assert stats.bootstrap_ci(x, y, n_boot=1000, seed=1) == \
            pytest.approx((lo, hi), abs=1e-12, rel=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        y = np.arange(8.0)
        y[5] = bad
        with pytest.raises(ConfigurationError, match="non-finite"):
            stats.bootstrap_ci(np.arange(8.0), y, n_boot=10)

    def test_self_correlation_ci_near_one(self, rng):
        x = rng.normal(size=300)
        lo, hi = stats.bootstrap_ci(x, x, n_boot=400, seed=0)
        assert lo > 0.99 and hi <= 1.0

    def test_null_cis_straddle_zero(self, rng):
        hits = 0
        for i in range(100):
            r = np.random.default_rng(i)
            u, v = r.normal(size=(2, 1000))
            lo, hi = stats.bootstrap_ci(u, v, n_boot=300, seed=i)
            hits += lo < 0 < hi
        assert hits >= 90

    def test_width_shrinks_with_sample_size(self, rng):
        # resampling theory: CI width ~ 1/sqrt(n) in the vector length
        def width(n, seed):
            r = np.random.default_rng(seed)
            z = r.normal(size=n)
            x = z + r.normal(size=n)
            y = z + r.normal(size=n)
            lo, hi = stats.bootstrap_ci(x, y, n_boot=500, seed=seed)
            return hi - lo

        assert width(10000, 3) < width(100, 3)

    def test_deterministic_per_seed(self, rng):
        x, y = rng.normal(size=(2, 200))
        assert stats.bootstrap_ci(x, y, n_boot=300, seed=9) == \
            stats.bootstrap_ci(x, y, n_boot=300, seed=9)

    def test_cap_counts_only_the_draws_it_uses(self):
        # 45 of 50 x values tie, so a resample is constant with p = 0.9**50,
        # about 0.5 %. Seed 1's one 256-row round holds 2 constant rows, but
        # only 1 before the 100th kept resample: within the cap of 1.
        x = np.ones(50)
        x[45:] = [2.0, 3.0, 4.0, 5.0, 6.0]
        y = np.arange(50.0)
        (lo, hi), degenerate = _bootstrap_oracle(x, y, 100, seed=1)
        assert degenerate == 2
        assert stats.bootstrap_ci(x, y, n_boot=100, seed=1) == \
            pytest.approx((lo, hi), abs=1e-12, rel=0)

    @pytest.mark.parametrize("n", [45, 780])
    def test_int32_draws_are_the_int64_stream(self, n):
        # bootstrap_ci draws int32 indices; the oracle replays int64 ones
        a, b = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(2):
            assert np.array_equal(
                a.integers(0, n, size=(stats._BOOT_CHUNK, n), dtype=np.int32),
                b.integers(0, n, size=(stats._BOOT_CHUNK, n)))
        assert a.random() == b.random()

    def test_degenerate_resamples_capped(self):
        # all-but-one identical values: most resamples are constant
        x = np.zeros(50)
        x[0] = 1.0
        y = np.arange(50.0)
        with pytest.raises(UndefinedStatisticError, match="degenerate"):
            stats.bootstrap_ci(x, y, n_boot=200, seed=0)


# ---------------------------------------------------------------------------
# Permutation test
# ---------------------------------------------------------------------------

def _gather_permutation(a, b, brain, n_perm, seed, chunk=stats._PERM_CHUNK):
    """The permutation p-value as it was computed before the rows of
    z-ranks were shuffled directly: index permutations drawn `chunk` rows at
    a time, then a gather, each null the sum of its own row. Also returns
    the drawn permutations."""
    za, zb, zbr = stats._zranks(a), stats._zranks(b), stats._zranks(brain)
    delta_obs = float(za @ zbr) - float(zb @ zbr)
    rng = np.random.default_rng(seed)
    base = np.broadcast_to(np.arange(brain.shape[0]), (chunk, brain.shape[0]))
    perms, exceed, done = [], 0, 0
    while done < n_perm:
        take = min(chunk, n_perm - done)
        perms.append(rng.permuted(base[:take], axis=1))
        null = (zbr[perms[-1]] * (za - zb)).sum(axis=1)
        exceed += int(np.count_nonzero(np.abs(null) >= abs(delta_obs)))
        done += take
    return (exceed + 1) / (n_perm + 1), np.concatenate(perms)


class TestPermutation:
    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("n_perm", [1, 129, 300])
    def test_matches_gather_reference(self, tied, n_perm):
        for seed in (0, 1, 2, 3):
            r = np.random.default_rng(100 + seed)
            a, b, brain = r.normal(size=(3, 45))
            if tied:
                a, b, brain = np.round(a), np.round(b, 1), np.round(brain)
            t = stats.permutation_test(a, b, brain, n_perm=n_perm, seed=seed)
            assert t["p_value"] == _gather_permutation(a, b, brain, n_perm, seed)[0]

    def test_cell_bound_keeps_the_stream(self, monkeypatch):
        # 5-row chunks (the cell bound at 45 values) draw the same permutations
        # as 128-row ones.
        r = np.random.default_rng(104)
        a, b, brain = r.normal(size=(3, 45))
        p, perms = _gather_permutation(a, b, brain, 129, seed=5)
        assert np.array_equal(_gather_permutation(a, b, brain, 129, seed=5, chunk=5)[1], perms)

        shapes = []
        default_rng = np.random.default_rng

        class Spy:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def permuted(self, x, axis, out=None):
                shapes.append(x.shape)
                return self.rng.permuted(x, axis=axis, out=out)

        monkeypatch.setattr(stats, "_PERM_CHUNK_CELLS", 45 * 5 + 4)
        monkeypatch.setattr(stats.np.random, "default_rng", Spy)
        assert stats.permutation_test(a, b, brain, n_perm=129, seed=5)["p_value"] == p
        assert shapes == [(5, 45)] * 25 + [(4, 45)]

    def test_chunk_rows_do_not_change_the_nulls(self, monkeypatch):
        # b differs from a in three entries, so the contrast is sparse and
        # many nulls tie the observed delta in exact arithmetic: a null
        # rounded differently by chunk size shows as a changed p-value
        for seed in range(150):
            r = np.random.default_rng(seed)
            a = r.normal(size=45)
            b = a.copy()
            b[:3] = r.normal(size=3)
            brain = r.normal(size=45)
            p_values = set()
            for chunk in (1, 5, 128):
                monkeypatch.setattr(stats, "_PERM_CHUNK", chunk)
                p_values.add(stats.permutation_test(a, b, brain, n_perm=200, seed=seed)["p_value"])
            assert len(p_values) == 1, seed

    def test_identical_models_give_p_one(self, rng):
        x = rng.normal(size=100)
        b = rng.normal(size=100)
        t = stats.permutation_test(x, x, b, n_perm=99, seed=0)
        assert t["delta_rho"] == 0.0
        assert t["p_value"] == 1.0

    def test_swap_symmetry_exact(self, rng):
        a, b, brain = rng.normal(size=(3, 150))
        t1 = stats.permutation_test(a, b, brain, n_perm=300, seed=4)
        t2 = stats.permutation_test(b, a, brain, n_perm=300, seed=4)
        assert t1["delta_rho"] == -t2["delta_rho"]
        assert t1["p_value"] == t2["p_value"]

    def test_minimum_p_is_one_over_n_plus_one(self, rng):
        # a strong true difference should bottom out at 1/(n_perm+1)
        z = rng.normal(size=400)
        brain = z + 0.1 * rng.normal(size=400)
        unrelated = rng.normal(size=400)
        t = stats.permutation_test(z, unrelated, brain, n_perm=199, seed=0)
        assert t["p_value"] == pytest.approx(1 / 200)

    def test_null_calibration_and_fpr(self):
        ps = []
        for i in range(300):
            r = np.random.default_rng(10_000 + i)
            a, b, brain = r.normal(size=(3, 120))
            ps.append(stats.permutation_test(a, b, brain, n_perm=200, seed=i)["p_value"])
        ps = np.array(ps)
        assert ss.kstest(ps, "uniform").statistic < 0.1
        assert 0.02 <= np.mean(ps <= 0.05) <= 0.08

    def test_same_seed_shares_permutations(self, rng):
        # two pairs at one ROI share a null stream: identical models must
        # then give identical null distributions, hence identical p-values
        a, b, brain = rng.normal(size=(3, 80))
        t1 = stats.permutation_test(a, b, brain, n_perm=100, seed=77)
        t2 = stats.permutation_test(a, b, brain, n_perm=100, seed=77)
        assert t1["p_value"] == t2["p_value"] and t1["delta_rho"] == t2["delta_rho"]


# ---------------------------------------------------------------------------
# FDR
# ---------------------------------------------------------------------------

def bh_oracle(p, alpha):
    """Literal step-up: try every k and keep the largest valid one."""
    m = len(p)
    order = sorted(range(m), key=lambda i: p[i])
    best_k = 0
    for k in range(1, m + 1):
        if p[order[k - 1]] <= k * alpha / m:
            best_k = k
    flags = [False] * m
    for i in range(best_k):
        flags[order[i]] = True
    return flags


class TestFdr:
    def test_hand_example(self):
        assert stats.fdr_bh([0.001, 0.02, 0.03, 0.2]) == [True, True, True, False]

    def test_all_small(self):
        assert stats.fdr_bh([0.001] * 40) == [True] * 40

    def test_all_one(self):
        assert stats.fdr_bh([1.0] * 7) == [False] * 7

    def test_empty(self):
        assert stats.fdr_bh([]) == []

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            stats.fdr_bh([0.5, 0.0])

    def test_exhaustive_vs_oracle_up_to_m12(self, rng):
        for _ in range(400):
            m = int(rng.integers(1, 13))
            p = rng.random(m).clip(1e-9, 1.0).tolist()
            alpha = float(rng.choice([0.01, 0.05, 0.1, 0.25]))
            assert stats.fdr_bh(p, alpha) == bh_oracle(p, alpha)

    def test_matches_scipy_adjusted_pvalues(self, rng):
        for _ in range(200):
            m = int(rng.integers(1, 13))
            p = rng.random(m).clip(1e-9, 1.0)
            ref = (ss.false_discovery_control(p, method="bh") <= 0.05).tolist()
            assert stats.fdr_bh(p, 0.05) == ref


# ---------------------------------------------------------------------------
# Partial Spearman
# ---------------------------------------------------------------------------

class TestPartialSpearman:
    def test_independent_control_changes_little(self, rng):
        m = rng.normal(size=3000)
        b = 0.6 * m + rng.normal(size=3000)
        c = rng.normal(size=3000)
        res = stats.partial_spearman(m, b, c)
        assert not res["degenerate"]
        assert res["rho"] == pytest.approx(stats.spearman(m, b), abs=0.02)

    def test_self_control_annihilates(self, rng):
        m = rng.normal(size=100)
        b = rng.normal(size=100)
        res = stats.partial_spearman(m, b, m)
        assert res["rho"] == 0.0 and res["degenerate"]

    def test_constant_control_falls_back_with_warning(self, rng):
        m, b = rng.normal(size=(2, 100))
        with pytest.warns(UserWarning, match="constant control"):
            res = stats.partial_spearman(m, b, np.full(100, 2.0))
        assert res["rho"] == pytest.approx(stats.spearman(m, b), abs=1e-12)
        assert not res["degenerate"]

    def test_orthogonal_control_leaves_spearman_exact(self):
        # control ranks [-1, 1, 1, -1] (centered) are orthogonal to the
        # centered ranks of both model and brain
        model = np.array([1.0, 2.0, 3.0, 4.0])
        brain = np.array([2.0, 1.0, 4.0, 3.0])
        control = np.array([1.0, 2.0, 2.0, 1.0])
        res = stats.partial_spearman(model, brain, control)
        assert res["rho"] == pytest.approx(stats.spearman(model, brain), abs=1e-12)

    def test_matches_manual_rank_regression(self, rng):
        # brute-force oracle: rank, OLS-residualize, Pearson
        m, b, c = rng.normal(size=(3, 200))
        rm, rb, rc = (ss.rankdata(v) for v in (m, b, c))
        em = rm - np.polyval(np.polyfit(rc, rm, 1), rc)
        eb = rb - np.polyval(np.polyfit(rc, rb, 1), rc)
        oracle = np.corrcoef(em, eb)[0, 1]
        assert stats.partial_spearman(m, b, c)["rho"] == pytest.approx(oracle, abs=1e-10)


# ---------------------------------------------------------------------------
# Noise ceiling
# ---------------------------------------------------------------------------

class TestNoiseCeiling:
    def test_spearman_brown_formula(self):
        # two subjects whose vectors have Spearman r = 0.5
        nc = stats.noise_ceiling([np.array([1.0, 2, 3]), np.array([1.0, 3, 2])])
        assert nc["lower"] == pytest.approx(0.5, abs=1e-12)
        assert nc["upper"] == pytest.approx(2 * 0.5 / 1.5, abs=1e-12)

    def test_identical_subjects_ceiling_one(self, rng):
        v = rng.normal(size=45)
        nc = stats.noise_ceiling([v, v, v])
        assert nc["lower"] == pytest.approx(1.0, abs=1e-9)
        assert nc["upper"] == pytest.approx(1.0, abs=1e-9)

    def test_negative_reliability_flattens_upper_to_lower(self, caplog):
        # two subjects with Spearman r = -0.5: Spearman-Brown gives -2/3 < r,
        # so the upper bound is flattened to the lower one, with a warning
        with caplog.at_level("WARNING", logger="brainalign.stats"):
            nc = stats.noise_ceiling([np.array([1.0, 2, 3]), np.array([2.0, 3, 1])])
        assert nc["lower"] == pytest.approx(-0.5, abs=1e-12)
        assert nc["upper"] == nc["lower"]
        assert "negative split-half reliability" in caplog.text

    def test_three_subjects_enumerates_all_splits(self, rng):
        vecs = [rng.normal(size=40) for _ in range(3)]
        a = stats.noise_ceiling(vecs, seed=0)
        b = stats.noise_ceiling(vecs, seed=999)  # enumeration ignores the seed
        assert a == b

    def test_single_subject_rejected(self, rng):
        with pytest.raises(UndefinedStatisticError):
            stats.noise_ceiling([rng.normal(size=10)])

    def test_square_matrices_rejected(self, rng):
        # subjects come as upper-triangle vectors, never as RDM matrices
        with pytest.raises(ConfigurationError, match="1D"):
            stats.noise_ceiling([rng.random(size=(6, 6)) for _ in range(2)])


# ---------------------------------------------------------------------------
# Cohen's d
# ---------------------------------------------------------------------------

class TestCohensD:
    def test_hand_arithmetic(self):
        res = stats.cohens_d_paired([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])
        assert res["d"] == pytest.approx(2.0, abs=1e-12)
        assert not res["degenerate"]

    def test_equal_scores_flagged_sentinel(self):
        res = stats.cohens_d_paired([1.0, 2.0], [1.0, 2.0])
        assert res["degenerate"] and math.isinf(res["d"])

    def test_constant_positive_difference(self):
        res = stats.cohens_d_paired([3.0, 4.0, 5.0], [1.0, 2.0, 3.0])
        assert res["degenerate"] and res["d"] == math.inf

    def test_constant_negative_difference(self):
        res = stats.cohens_d_paired([1.0, 2.0], [4.0, 5.0])
        assert res["degenerate"] and res["d"] == -math.inf

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            stats.cohens_d_paired([1.0], [1.0, 2.0])


@pytest.mark.parametrize("call", [
    lambda v: stats.bootstrap_ci(v, v[::-1], n_boot=0),
    lambda v: stats.permutation_test(v, v[::-1], v, n_perm=0),
    lambda v: stats.noise_ceiling([v, v[::-1], v], n_splits=0),
], ids=["bootstrap_ci", "permutation_test", "noise_ceiling"])
def test_count_below_one_rejected(call):
    with pytest.raises(ConfigurationError, match=">= 1, got 0"):
        call(np.arange(10.0))
