"""Decision layer: acting thresholds and the expected value of information.

A client with log utility, fractional gain epsilon, fractional loss
epsilon_loss and opportunity cost c acts on a finding when its pi-value falls
below a critical threshold; an analyst values resolving the residual
directional uncertainty in proportion to the pi-value.
"""

from __future__ import annotations

import dataclasses
import math

from .errors import DomainError

__all__ = [
    "ClientParams",
    "AnalystParams",
    "pi_critical",
    "evpi_pure",
    "evpi_recalibrated",
    "recalibration_loss",
    "evaluate_decision",
]


@dataclasses.dataclass(frozen=True)
class ClientParams:
    epsilon: float          # fractional gain when acting on a true finding
    epsilon_loss: float     # fractional loss when acting on a false one
    c: float                # fractional opportunity cost of sitting out
    capital: float = 1.0

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise DomainError("epsilon must be positive and finite")
        if not 0.0 < self.epsilon_loss < 1.0:
            raise DomainError("epsilon_loss must be in (0, 1)")
        if not 0.0 <= self.c < 1.0:
            raise DomainError("c must be in [0, 1)")
        if not 0 < self.capital < math.inf:
            raise DomainError("capital must be positive and finite")


@dataclasses.dataclass(frozen=True)
class AnalystParams:
    capital: float
    alpha: float
    utility: str = "linear"                      # 'linear' or 'log'

    def __post_init__(self):
        if not math.isfinite(self.capital):
            raise DomainError("capital must be finite")
        if not 0 < self.alpha < math.inf:
            raise DomainError("alpha must be positive and finite")
        if self.utility not in ("linear", "log"):
            raise DomainError("utility must be linear/log")
        if self.utility == "log" and not self.capital - self.alpha > 0:
            raise DomainError("log utility needs capital > alpha")

    def u(self, x: float) -> float:
        """Utility of wealth x; C - alpha > 0 keeps log utility's arguments positive."""
        return x if self.utility == "linear" else math.log(x)


def pi_critical(client: ClientParams) -> float:
    """Critical pi-value below which the log-utility client prefers to act.

    min{1, 2 [log(1+eps) - log(1-c)] / [log(1+eps) - log(1-c) - log(1-eps')]};
    the client's capital cancels, so the threshold is capital-invariant.
    """
    num = math.log1p(client.epsilon) - math.log1p(-client.c)
    den = num - math.log1p(-client.epsilon_loss)
    return min(1.0, 2.0 * num / den)


def _cdq(analyst: AnalystParams) -> float:
    """Central difference quotient [U(C+a) - U(C-a)] / (2a)."""
    u = analyst.u
    return (u(analyst.capital + analyst.alpha) - u(analyst.capital - analyst.alpha)) / (
        2.0 * analyst.alpha
    )


def evpi_pure(analyst: AnalystParams, pi: float) -> float:
    """Expected value of perfect information for the pure analyst: CDQ * alpha * pi."""
    if not 0.0 < pi <= 1.0:
        raise DomainError("pi must be in (0, 1]")
    return _cdq(analyst) * analyst.alpha * pi


def evpi_recalibrated(analyst: AnalystParams, pi: float, pi_crit: float) -> float:
    """EVPI for the analyst recalibrated to the client: clamps pi at pi_crit."""
    if not 0.0 < pi <= 1.0:
        raise DomainError("pi must be in (0, 1]")
    return _cdq(analyst) * analyst.alpha * min(pi, pi_crit)


def recalibration_loss(analyst: AnalystParams, pi_crit: float) -> dict:
    """Fractional utility loss f = [(U(C+a) - U(C-a)) / (2 U(C+a))] * pi_crit.

    Returns both f and the recalibration factor 1 - f. With near-linear
    utility this reduces to g/(g+1) * pi_crit where g = alpha/C.
    """
    u = analyst.u
    u_hi = u(analyst.capital + analyst.alpha)
    if not u_hi > 0:
        raise DomainError("recalibration loss needs U(C + alpha) > 0")
    delta2 = u_hi - u(analyst.capital - analyst.alpha)
    f = delta2 / (2.0 * u_hi) * pi_crit
    return {"loss": f, "factor": 1.0 - f}


def evaluate_decision(client: ClientParams, pi: float) -> dict:
    """Expected log utilities of acting vs sitting out; ties resolve to sleep."""
    if not 0.0 <= pi <= 1.0:
        raise DomainError("pi must be in [0, 1]")
    m = client.capital
    u_act = (1.0 - pi / 2.0) * math.log(m * (1.0 + client.epsilon)) + (
        pi / 2.0
    ) * math.log(m * (1.0 - client.epsilon_loss))
    u_sleep = (1.0 - pi / 2.0) * math.log(m * (1.0 - client.c)) + (pi / 2.0) * math.log(m)
    return {
        "action": "act" if u_act > u_sleep else "sleep",
        "utilities": {"act": u_act, "sleep": u_sleep},
    }
