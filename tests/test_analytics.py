import pytest
from hypothesis import given
from hypothesis import strategies as st

from verisim.analytics import PowerProfile, VerificationParams, reward_table, slowdown
from verisim.config import standard_miners


def lineup(n, nonverifier_alpha=None):
    return PowerProfile(standard_miners(n, nonverifier_alpha))


NINE_VERIFIERS_ONE_SKIP = lineup(10, nonverifier_alpha=0.1)


def alpha_verifying(profile):
    return sum(m.alpha for m in profile.miners if m.verifies)


def fractions(profile, t_v, t_b=12.0, verifies=None):
    """Expected fractions of a sequential reward table, by miner id."""
    rows = reward_table(profile, VerificationParams(t_v=t_v, t_b=t_b), "sequential")
    return {r.id: r.expected_fraction for r in rows if verifies is None or r.verifies == verifies}


class TestSeqSlowdown:
    def test_worked_example(self):
        assert slowdown(alpha_verifying(NINE_VERIFIERS_ONE_SKIP), 3.18) == pytest.approx(0.318, abs=1e-12)

    def test_zero_verification_time(self):
        assert slowdown(alpha_verifying(NINE_VERIFIERS_ONE_SKIP), 0.0) == 0.0

    def test_all_verify_means_no_slowdown(self):
        assert slowdown(alpha_verifying(lineup(5)), 3.18) == pytest.approx(0.0, abs=1e-12)

    def test_single_nonverifier_burden(self):
        # with one non-verifier of power alpha, the network slowdown equals
        # the per-block verification burden (1 - alpha_V) * t_v
        profile = lineup(4, nonverifier_alpha=0.3)
        assert slowdown(alpha_verifying(profile), 2.0) == pytest.approx(0.3 * 2.0, abs=1e-12)


# one non-verifier of power 0.25: the slowdown is 0.25 t_v
QUARTER_SKIP = PowerProfile.make([("v", 0.25, True), ("w", 0.1, True), ("x", 0.4, True), ("skip", 0.25, False)])


class TestVerifierReward:
    def test_worked_example_total(self):
        total = sum(fractions(NINE_VERIFIERS_ONE_SKIP, 3.18, verifies=True).values())
        assert total == pytest.approx(0.877, abs=0.002)

    def test_zero_delta_identity(self):
        assert fractions(QUARTER_SKIP, 0.0)["v"] == pytest.approx(0.25)

    def test_large_interval_limit(self):
        # slowdown 0.3 against a 1e12 s block interval
        assert fractions(QUARTER_SKIP, 1.2, t_b=1e12)["v"] == pytest.approx(0.25, abs=1e-9)

    def test_never_exceeds_alpha(self):
        # slowdown 5 against a 12 s block interval
        assert fractions(QUARTER_SKIP, 20.0)["x"] < 0.4


class TestNonverifierReward:
    def test_worked_example(self):
        r_s = fractions(NINE_VERIFIERS_ONE_SKIP, 3.18)["skip"]
        assert r_s == pytest.approx(0.122, abs=0.002)

    def test_no_verifier_loss_means_no_gain(self):
        profile = PowerProfile.make([("s1", 0.1, False), ("s2", 0.1, False), ("v", 0.8, True)])
        assert fractions(profile, 0.0)["s1"] == pytest.approx(0.1)

    def test_two_nonverifiers_split_surplus_equally(self):
        verifiers = [(f"v{i}", 0.1, True) for i in range(9)]
        profile = PowerProfile.make([("s1", 0.05, False), ("s2", 0.05, False), *verifiers])
        frac = fractions(profile, 3.18)
        surplus = 0.9 - sum(f for i, f in frac.items() if i.startswith("v"))
        assert surplus > 0
        for each in (frac["s1"], frac["s2"]):
            assert each - 0.05 == pytest.approx(surplus / 2, rel=1e-9)


class TestParSlowdown:
    def test_worked_example(self):
        delta = slowdown(alpha_verifying(NINE_VERIFIERS_ONE_SKIP), 3.18, c=0.4, p=4)
        assert delta == pytest.approx(0.1749, abs=1e-4)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 100.0))
    def test_single_processor_equals_sequential(self, c, alpha_v, t_v):
        # c + (1 - c) / 1 is exactly 1.0: one processor is sequential, bit for bit
        assert slowdown(alpha_v, t_v, c, 1) == slowdown(alpha_v, t_v)
        parallel = reward_table(NINE_VERIFIERS_ONE_SKIP, VerificationParams(t_v=t_v, t_b=12.0, c=c, p=1), "parallel")
        sequential = reward_table(NINE_VERIFIERS_ONE_SKIP, VerificationParams(t_v=t_v, t_b=12.0), "sequential")
        assert parallel == sequential

    def test_full_conflict_equals_sequential(self):
        alpha_v = alpha_verifying(NINE_VERIFIERS_ONE_SKIP)
        for p in (1, 4, 64):
            assert slowdown(alpha_v, 2.5, c=1.0, p=p) == pytest.approx(slowdown(alpha_v, 2.5), abs=1e-12)

    @given(st.floats(0.0, 1.0), st.integers(1, 128), st.floats(0.0, 10.0))
    def test_never_exceeds_sequential(self, c, p, t_v):
        alpha_v = alpha_verifying(NINE_VERIFIERS_ONE_SKIP)
        par = slowdown(alpha_v, t_v, c, p)
        seq = slowdown(alpha_v, t_v)
        assert par <= seq + 1e-12
        if p > 1 and c < 1.0 and t_v > 1e-9:
            assert par < seq


class TestRewardTable:
    def test_sequential_gain_22_pct(self):
        params = VerificationParams(t_v=3.18, t_b=12.0)
        rows = reward_table(NINE_VERIFIERS_ONE_SKIP, params, "sequential")
        skip = [r for r in rows if not r.verifies][0]
        assert skip.relative_gain_pct == pytest.approx(22.0, abs=2.0)
        assert skip.expected_fraction == pytest.approx(0.122, abs=0.002)

    def test_parallel_gain_12_pct(self):
        params = VerificationParams(t_v=3.18, t_b=12.0, c=0.4, p=4)
        rows = reward_table(NINE_VERIFIERS_ONE_SKIP, params, "parallel")
        skip = [r for r in rows if not r.verifies][0]
        assert skip.expected_fraction == pytest.approx(0.112, abs=0.002)
        assert skip.relative_gain_pct == pytest.approx(12.0, abs=2.0)

    def test_small_miner_small_blocks(self):
        profile = lineup(10, nonverifier_alpha=0.05)
        rows = reward_table(profile, VerificationParams(t_v=0.23, t_b=12.42), "sequential")
        skip = [r for r in rows if not r.verifies][0]
        assert skip.relative_gain_pct == pytest.approx(1.7, abs=0.3)

    def test_all_verifiers_gain_nothing(self):
        rows = reward_table(lineup(6), VerificationParams(t_v=3.0, t_b=12.0), "sequential")
        assert all(abs(r.relative_gain_pct) < 1e-9 for r in rows)

    @given(st.floats(0.01, 5.0), st.floats(5.0, 60.0), st.floats(0.05, 0.6))
    def test_conservation(self, t_v, t_b, alpha_skip):
        profile = lineup(8, nonverifier_alpha=alpha_skip)
        rows = reward_table(profile, VerificationParams(t_v=t_v, t_b=t_b), "sequential")
        assert sum(r.expected_fraction for r in rows) == pytest.approx(1.0, abs=1e-9)

    @given(st.floats(0.1, 4.0), st.floats(0.1, 4.0))
    def test_nonverifier_gain_monotone_in_tv(self, tv_lo, tv_hi):
        lo, hi = sorted((tv_lo, tv_hi))
        def gain(tv):
            rows = reward_table(NINE_VERIFIERS_ONE_SKIP, VerificationParams(t_v=tv, t_b=12.0), "sequential")
            return [r for r in rows if not r.verifies][0].relative_gain_pct
        assert gain(hi) >= gain(lo) - 1e-9

    @given(st.floats(6.0, 30.0), st.floats(6.0, 30.0))
    def test_nonverifier_gain_antitone_in_tb(self, tb_lo, tb_hi):
        lo, hi = sorted((tb_lo, tb_hi))
        def gain(tb):
            rows = reward_table(NINE_VERIFIERS_ONE_SKIP, VerificationParams(t_v=2.0, t_b=tb), "sequential")
            return [r for r in rows if not r.verifies][0].relative_gain_pct
        assert gain(hi) <= gain(lo) + 1e-9

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            reward_table(NINE_VERIFIERS_ONE_SKIP, VerificationParams(t_v=1.0, t_b=12.0), "warp")


class TestProfileValidation:
    def test_alphas_must_sum_to_one(self):
        with pytest.raises(ValueError):
            PowerProfile.make([("a", 0.5, True), ("b", 0.4, True)])

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            PowerProfile.make([("a", 0.0, True), ("b", 1.0, True)])

    def test_verifier_power_split(self):
        rows = reward_table(NINE_VERIFIERS_ONE_SKIP, VerificationParams(t_v=1.0, t_b=12.0))
        assert sum(r.alpha for r in rows if r.verifies) == pytest.approx(0.9)
        assert sum(r.alpha for r in rows if not r.verifies) == pytest.approx(0.1)


class TestParamsValidation:
    @pytest.mark.parametrize(
        "kw, error",
        [
            (dict(c=1.5), r"^c \(the conflict rate\)"),
            (dict(c=float("nan")), r"^c \(the conflict rate\)"),
            (dict(p=0), r"^p \(the processor count\)"),
            (dict(p=2.5), r"^p \(the processor count\)"),
            (dict(p=True), r"^p \(the processor count\)"),
        ],
    )
    def test_params_name_the_field(self, kw, error):
        with pytest.raises(ValueError, match=error):
            VerificationParams(t_v=1.0, t_b=12.0, **kw)
