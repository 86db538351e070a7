"""Compliant normal-force laws and the discrete impulse they define.

A normal law gives the contact force f_n(x, xdot) as a function of the
penetration distance x (positive when bodies overlap) and its rate xdot.
Three laws are provided:

* HuntCrossley -- linear stiffness with rate-dependent dissipation,
  f_n = k * max(x, 0) * max(1 + d * xdot, 0)
* LogBarrier   -- interior-point style barrier, f_n = -kappa / x for x < 0
* IpcBarrier   -- smooth clamped barrier active only on -dhat < x < 0

For implicit velocity stepping the penetration is linearized as
x = x0 - dt * v_n (separation velocity v_n positive), which turns the force
law into a discrete impulse

    n(v_n) = dt * f_n(x0 - dt * v_n, -v_n)

whose antiderivative N (with N' = n) supplies the normal part of the
per-contact cost.  `discrete_impulse` is that definition, for every law.
For Hunt & Crossley the contact-model kernel (`batch.ContactBatch`)
evaluates n, n' and N in closed form; the impulse vanishes for
v_n >= vhat = min(x0/dt, 1/d) and N is constant there.

The cost -N(v_n) is convex wherever df/dx >= 0 and df/dxdot >= 0, since its
curvature is dt^2 * df/dx + dt * df/dxdot.  `convexity_margin` returns those
two partial derivatives so the condition can be checked pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "HuntCrossley",
    "LogBarrier",
    "IpcBarrier",
    "NormalLaw",
    "DiscreteNormal",
    "BarrierBreach",
    "UnsupportedLaw",
    "normal_force",
    "convexity_margin",
    "discrete_impulse",
]


class BarrierBreach(ValueError):
    """A barrier law was evaluated at a penetrating state (x >= 0)."""


class UnsupportedLaw(TypeError):
    """The requested operation is not defined for this force law."""


@dataclass(frozen=True)
class HuntCrossley:
    """Linear elastic contact with Hunt & Crossley dissipation.

    stiffness k in N/m, dissipation d in s/m.
    """

    stiffness: float
    dissipation: float = 0.0

    def __post_init__(self):
        if self.stiffness < 0.0:
            raise ValueError(f"stiffness must be >= 0, got {self.stiffness}")
        if self.dissipation < 0.0:
            raise ValueError(f"dissipation must be >= 0, got {self.dissipation}")


@dataclass(frozen=True)
class LogBarrier:
    """Logarithmic barrier -kappa * ln(-x); kappa has units of energy."""

    kappa: float

    def __post_init__(self):
        if not self.kappa > 0.0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")


@dataclass(frozen=True)
class IpcBarrier:
    """Clamped smooth barrier, active only within a layer of thickness dhat."""

    kappa: float
    dhat: float

    def __post_init__(self):
        if not self.kappa > 0.0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if not self.dhat > 0.0:
            raise ValueError(f"dhat must be positive, got {self.dhat}")


NormalLaw = Union[HuntCrossley, LogBarrier, IpcBarrier]


def normal_force(law: NormalLaw, x: float, xdot: float) -> float:
    """Continuous normal force f_n(x, xdot) in N.

    Raises BarrierBreach for a LogBarrier evaluated at x >= 0; the clamped
    IpcBarrier returns 0 outside its active layer -dhat < x < 0.
    """
    if isinstance(law, HuntCrossley):
        return law.stiffness * max(x, 0.0) * max(1.0 + law.dissipation * xdot, 0.0)
    if isinstance(law, LogBarrier):
        if x >= 0.0:
            raise BarrierBreach(f"log barrier breached: x = {x} >= 0")
        return -law.kappa / x
    if isinstance(law, IpcBarrier):
        if x <= -law.dhat or x >= 0.0:
            return 0.0
        # Repulsive derivative of the clamped barrier potential
        # -kappa * (x + dhat)^2 * ln(-x / dhat).
        w = x + law.dhat
        return law.kappa * w * (-w / x - 2.0 * np.log(-x / law.dhat))
    raise UnsupportedLaw(f"unknown normal law {law!r}")


def convexity_margin(law: NormalLaw, x: float, xdot: float) -> tuple[float, float]:
    """Analytic (df/dx, df/dxdot); both >= 0 certifies a convex cost there."""
    if isinstance(law, HuntCrossley):
        damp = 1.0 + law.dissipation * xdot
        if x <= 0.0 or damp <= 0.0:
            return (0.0, 0.0)
        return (law.stiffness * damp, law.stiffness * x * law.dissipation)
    if isinstance(law, LogBarrier):
        if x >= 0.0:
            raise BarrierBreach(f"log barrier breached: x = {x} >= 0")
        return (law.kappa / (x * x), 0.0)
    if isinstance(law, IpcBarrier):
        if x <= -law.dhat or x >= 0.0:
            return (0.0, 0.0)
        w = x + law.dhat
        dfdx = law.kappa * (-2.0 * np.log(-x / law.dhat) - 4.0 * w / x + (w / x) ** 2)
        return (dfdx, 0.0)
    raise UnsupportedLaw(f"unknown normal law {law!r}")


@dataclass(frozen=True)
class DiscreteNormal:
    """Frozen per-step data for the discrete impulse n(v_n; x0): the law,
    the previous-step penetration x0 and the time step dt."""

    law: NormalLaw
    x0: float
    dt: float

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")


def discrete_impulse(dn: DiscreteNormal, v_n: float) -> float:
    """Discrete normal impulse n(v_n) = dt * f_n(x0 - dt*v_n, -v_n), in N s."""
    return dn.dt * normal_force(dn.law, dn.x0 - dn.dt * v_n, -v_n)
