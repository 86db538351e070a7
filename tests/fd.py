"""Central finite-difference helpers shared by the test suite.

Step size follows h = 1e-6 * max(1, |x|), which balances truncation and
round-off at double precision for the magnitudes exercised here.  These
helpers are the independent oracle against which analytic gradients,
impulses and Hessians are checked; they must stay free of any code from
the package under test.  So is `hc_impulse`, the defining discrete
Hunt & Crossley impulse written out on scalars.
"""

import numpy as np


def fd_step(x, scale=1e-6):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return scale * max(1.0, float(np.linalg.norm(x)))


def _directional(f, x, i, h, order):
    xs = []
    for k in (-2, -1, 1, 2) if order == 4 else (-1, 1):
        xk = x.copy()
        xk[i] += k * h
        xs.append(np.asarray(f(xk), dtype=float))
    if order == 4:
        fm2, fm1, fp1, fp2 = xs
        # Differences first so constant stretches cancel exactly.
        return ((fm2 - fp2) + 8.0 * (fp1 - fm1)) / (12.0 * h)
    fm1, fp1 = xs
    return (fp1 - fm1) / (2.0 * h)


def fd_gradient(f, x, h=None, order=2):
    """Central-difference gradient of a scalar function (order 2 or 4)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if h is None:
        h = fd_step(x)
    return np.array([_directional(f, x, i, h, order) for i in range(x.size)])


def fd_jacobian(f, x, h=None, order=2):
    """Central-difference Jacobian of a vector function, columns d f / d x_i."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if h is None:
        h = fd_step(x)
    return np.stack([_directional(f, x, i, h, order) for i in range(x.size)], axis=-1)


def fd_derivative(f, x, h=None):
    """Central difference of a scalar function of a scalar."""
    if h is None:
        h = fd_step([x])
    return (f(x + h) - f(x - h)) / (2.0 * h)


def hc_impulse(k, d, x0, dt, v_n):
    """n(v_n) = dt * f_n(x0 - dt*v_n, -v_n) for the Hunt & Crossley force
    f_n(x, xdot) = k * max(x, 0) * max(1 + d*xdot, 0): stiffness k,
    dissipation d, previous-step penetration x0 and step dt."""
    return dt * (k * max(x0 - dt * v_n, 0.0) * max(1.0 - d * v_n, 0.0))
