import math

import pytest
from hypothesis import given, settings, strategies as st

import piglm as pg
from piglm.decision import (
    AnalystParams,
    ClientParams,
    evaluate_decision,
    evpi_pure,
    evpi_recalibrated,
    pi_critical,
    recalibration_loss,
)


REFERENCE_CLIENT = ClientParams(epsilon=0.01, epsilon_loss=0.5, c=0.001)


class TestCriticalThreshold:
    def test_reference_scenario_frozen(self):
        # closed form evaluated by hand:
        # 2 [ln 1.01 - ln 0.999] / [ln 1.01 - ln 0.999 - ln 0.5] = 0.031106
        assert pi_critical(REFERENCE_CLIENT) == pytest.approx(0.031105985257891162, rel=1e-12)

    def test_capped_at_one(self):
        client = ClientParams(epsilon=10.0, epsilon_loss=0.01, c=0.0)
        assert pi_critical(client) == 1.0

    @given(st.floats(min_value=1e-4, max_value=5.0),
           st.floats(min_value=1e-4, max_value=0.99),
           st.floats(min_value=0.0, max_value=0.5),
           st.floats(min_value=0.01, max_value=1e6))
    @settings(max_examples=60, deadline=None)
    def test_capital_invariance_and_range(self, eps, eps_loss, c, capital):
        a = pi_critical(ClientParams(epsilon=eps, epsilon_loss=eps_loss, c=c, capital=1.0))
        b = pi_critical(ClientParams(epsilon=eps, epsilon_loss=eps_loss, c=c, capital=capital))
        assert a == b
        assert 0.0 < a <= 1.0

    def test_threshold_grows_with_opportunity_cost(self):
        lo = pi_critical(ClientParams(epsilon=0.01, epsilon_loss=0.5, c=0.0))
        hi = pi_critical(ClientParams(epsilon=0.01, epsilon_loss=0.5, c=0.005))
        assert hi > lo


class TestEvpi:
    def test_linear_utility_proportional_to_tail_mass(self):
        analyst = AnalystParams(capital=100.0, alpha=5.0, utility="linear")
        assert evpi_pure(analyst, 0.2) == pytest.approx(5.0 * 0.2)

    def test_log_utility_difference_quotient(self):
        analyst = AnalystParams(capital=100.0, alpha=5.0, utility="log")
        cdq = (math.log(105.0) - math.log(95.0)) / 10.0
        assert evpi_pure(analyst, 0.5) == pytest.approx(cdq * 5.0 * 0.5, rel=1e-12)

    def test_recalibrated_clamps(self):
        analyst = AnalystParams(capital=100.0, alpha=5.0, utility="linear")
        crit = pi_critical(REFERENCE_CLIENT)
        assert evpi_recalibrated(analyst, 0.5, crit) == pytest.approx(5.0 * crit)
        assert evpi_recalibrated(analyst, crit / 2, crit) == pytest.approx(5.0 * crit / 2)

    def test_pi_validation(self):
        analyst = AnalystParams(capital=100.0, alpha=5.0)
        with pytest.raises(pg.DomainError):
            evpi_pure(analyst, 0.0)
        with pytest.raises(pg.DomainError):
            evpi_pure(analyst, 1.5)


class TestRecalibrationLoss:
    def test_near_linear_reduction(self):
        # with linear utility the loss is exactly g/(g+1) * threshold, g = alpha/C
        analyst = AnalystParams(capital=100.0, alpha=10.0, utility="linear")
        crit = 0.031105985257891162
        out = recalibration_loss(analyst, crit)
        g = 10.0 / 100.0
        assert out["loss"] == pytest.approx(g / (g + 1.0) * crit, rel=1e-12)
        assert out["factor"] == pytest.approx(1.0 - out["loss"], rel=1e-12)

    def test_small_for_small_stakes(self):
        analyst = AnalystParams(capital=100.0, alpha=1.0, utility="log")
        out = recalibration_loss(analyst, 0.0311)
        assert 0.0 < out["loss"] < 0.001


class TestDecision:
    def test_act_below_threshold_sleep_above(self):
        crit = pi_critical(REFERENCE_CLIENT)
        assert evaluate_decision(REFERENCE_CLIENT, crit * 0.5)["action"] == "act"
        assert evaluate_decision(REFERENCE_CLIENT, min(1.0, crit * 1.5))["action"] == "sleep"

    def test_tie_resolves_to_sleep(self):
        # exact bitwise tie: unit capital, free sitting out, and a gamble whose
        # log win and log loss cancel exactly at pi = 1
        client = ClientParams(epsilon=1.0, epsilon_loss=0.5, c=0.0, capital=1.0)
        out = evaluate_decision(client, 1.0)
        assert out["utilities"]["act"] == out["utilities"]["sleep"]
        assert out["action"] == "sleep"

    @given(st.floats(min_value=1e-4, max_value=2.0),
           st.floats(min_value=1e-4, max_value=0.9),
           st.floats(min_value=0.0, max_value=0.3),
           st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=80, deadline=None)
    def test_consistency_with_threshold(self, eps, eps_loss, c, pi):
        client = ClientParams(epsilon=eps, epsilon_loss=eps_loss, c=c)
        crit = pi_critical(client)
        out = evaluate_decision(client, pi)
        margin = out["utilities"]["act"] - out["utilities"]["sleep"]
        if pi < crit * (1 - 1e-9) and crit < 1.0:
            assert margin > 0
        elif pi > crit * (1 + 1e-9):
            assert margin < 0

    def test_parameter_validation(self):
        with pytest.raises(pg.DomainError):
            ClientParams(epsilon=0.0, epsilon_loss=0.5, c=0.0)
        with pytest.raises(pg.DomainError):
            ClientParams(epsilon=0.1, epsilon_loss=1.0, c=0.0)
        with pytest.raises(pg.DomainError):
            ClientParams(epsilon=0.1, epsilon_loss=0.5, c=1.0)
        with pytest.raises(pg.DomainError):
            AnalystParams(capital=10.0, alpha=20.0, utility="log")
        with pytest.raises(pg.DomainError):
            AnalystParams(capital=10.0, alpha=1.0, utility="custom")

    @pytest.mark.parametrize("field,value", [("epsilon", math.inf), ("epsilon", math.nan),
                                             ("capital", math.inf), ("capital", math.nan)])
    def test_client_fields_must_be_finite(self, field, value):
        # an infinite gain acted with "act": Infinity; an infinite capital gave NaN utilities
        kwargs = {"epsilon": 0.01, "epsilon_loss": 0.5, "c": 0.001, "capital": 1.0, field: value}
        with pytest.raises(pg.DomainError, match=field):
            ClientParams(**kwargs)

    @pytest.mark.parametrize("utility", ["linear", "log"])
    @pytest.mark.parametrize("field,value", [("capital", math.inf), ("capital", -math.inf),
                                             ("capital", math.nan), ("alpha", math.inf),
                                             ("alpha", math.nan)])
    def test_analyst_fields_must_be_finite(self, utility, field, value):
        # an infinite capital or alpha gave NaN EVPIs and a NaN recalibration loss
        kwargs = {"capital": 100.0, "alpha": 1.0, "utility": utility, field: value}
        with pytest.raises(pg.DomainError, match=field):
            AnalystParams(**kwargs)
