"""Newton solver with exact line search for the per-step cost.

Minimizes

    l_p(v) = 0.5 * |v - v*|_A^2 + sum_i l_c,i(J_i v + b_i)

which is strongly convex whenever every per-contact cost is convex.  The
Newton system (A + J' G J) dv = -grad uses the per-contact model Hessians G,
so the system matrix is symmetric positive definite and a Cholesky solve
applies.  The matrix is built in one shot from the problem's stacked J:
one batched product G_i @ J_i over the (n, dim, dim) Hessian blocks, then
one GEMM J' (G J) added to the cached dense A.  The solver checks that
matrix for non-finite entries itself (a `SolverFailure`), so scipy's own
finiteness checks of the Cholesky calls are off.  The per-step condition
number reuses the Hessians the solver holds at its final iterate, and the
per-contact stiction tolerances of `Solution` come from the same kernel
build, the one of the step.

Line search: exact, on the convex section phi(a) = l_p(v + a*step), and
driven by phi'(a) alone (see _line_search).  The per-contact potentials sit
on large constant offsets, so near the optimum the true decrease can drop
below one ulp of the cost and no comparison of costs by value certifies a
step; phi' is free of the offsets and monotone on the section.

The stopping criterion is the momentum-balance residual in relative form:

    |A(v - v*) - J' gamma| <= rel_tol * max(|A(v - v*)|, |J' gamma|)
                              + 1e-14 * |A v*|

recorded in Solution.stop_criterion for traceability, since tolerance
semantics otherwise tend to drift between implementations.  The norms are
taken by `safe_norm`, so impulses too large to square still compare as
finite numbers instead of reading inf <= inf.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .batch import ContactBatch
from .dynamics import StepProblem

__all__ = ["SolveOptions", "Solution", "SolverFailure", "solve_step", "condition_number",
           "safe_norm"]

STOP_CRITERION = "momentum_residual <= rel_tol*max(|A(v-v*)|,|J'gamma|) + 1e-14*|A v*|"


class SolverFailure(RuntimeError):
    """Internal invariant broke (non-finite input, non-PSD or singular system)."""


@dataclass(frozen=True)
class SolveOptions:
    rel_tol: float = 1e-5
    max_iters: int = 100
    compute_condition_number: bool = False

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class Solution:
    v: np.ndarray
    impulses: np.ndarray  # (n_contacts, dim)
    iterations: int
    converged: bool
    cost: float
    # Per-contact stick-slip transition speed at the solution, from the
    # solver's own kernel (`ContactBatch.stiction_tolerance`).
    stiction_tolerance: np.ndarray
    cost_history: list = field(default_factory=list)
    condition_number: Optional[float] = None
    stop_criterion: str = STOP_CRITERION
    diagnostic: str = ""
    step_lengths: list = field(default_factory=list)  # line-search alpha per iteration
    contact_evaluations: int = 0  # contact-term evaluations, line-search probes included


def safe_norm(x: np.ndarray, axis: Optional[int] = None):
    """np.linalg.norm(x, axis=axis), bitwise wherever that is finite.

    A vector (a row, for axis=1) whose squares overflow is scaled by its
    largest entry first; one holding inf gets inf.  Emits no warnings.
    """
    if axis is None:
        # np.linalg.norm takes sqrt(x.dot(x)); np.vdot is that same dot
        # but raises no floating-point warnings, so the finite case needs
        # no errstate.
        sq = np.vdot(x, x)
        if sq < np.inf:
            return np.sqrt(sq)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(x, axis=axis)
        if (norm < np.inf).all():
            return norm
        peak = np.abs(x).max(axis=axis, keepdims=True)
        scale = np.where((peak > 0.0) & (peak < np.inf), peak, 1.0)
        scaled = np.squeeze(scale, axis) * np.linalg.norm(x / scale, axis=axis)
    return np.where(norm < np.inf, norm, scaled)


# Relative slope tolerance of the exact line search, |phi'(a)| <= tol*|phi'(0)|.
_LS_TOL = 1e-3
# Bracket width at which the search stops: float resolution of a near 1.
_EPS = np.finfo(float).eps


def _newton_matrix(problem: StepProblem, hessians: np.ndarray) -> np.ndarray:
    """A + J' G J with G = blockdiag(hessians): one batched G @ J_i, one GEMM."""
    j3 = problem.J.reshape(len(hessians), problem.dim, problem.n_v)
    return problem.A + problem.J.T @ (hessians @ j3).reshape(problem.J.shape)


def _line_search(problem: StepProblem, batch: ContactBatch, v, step, momentum, slope):
    """Exact search for the minimizer of phi(a) = l_p(v + a*step) on (0, 1].

    Works on phi' alone, which is monotone on the convex section and free of
    the potentials' constant offsets.  Each probe evaluates the contact terms
    once, with Hessians, at v + a*step and gives

        phi'(a)  = step' A (v + a*step - v*) - gamma(a) . J step
        phi''(a) = step' A step + sum_i (J step)_i' G_i(a) (J step)_i

    The full step is taken when phi'(1) <= tol*|phi'(0)|; otherwise Newton
    steps on phi', kept inside the sign-change bracket by bisection, run until
    |phi'(a)| <= tol*|phi'(0)| or the bracket reaches float resolution.
    Returns (a, trial, probe terms at trial, probe count); the caller reuses
    the accepted probe as the next iterate's gradient and Hessians.
    """
    base = float(step @ momentum)
    curve = float(step @ problem.apply_A(step))
    dv_c = (problem.J @ step).reshape(problem.bias.shape)
    target = _LS_TOL * abs(slope)

    def probe(alpha):
        trial = v + alpha * step
        out = batch.terms(problem.contact_velocities(trial))
        _, gammas, hessians = out
        dphi = base + alpha * curve - float(gammas.ravel() @ dv_c.ravel())
        if not np.isfinite(dphi):
            raise SolverFailure(f"non-finite line-search slope phi'({alpha:.6g}) = {dphi}")
        d2phi = curve + float(np.einsum("ni,nij,nj->", dv_c, hessians, dv_c))
        return trial, out, dphi, d2phi

    alpha, lo, hi = 1.0, 0.0, 1.0
    trial, out, dphi, d2phi = probe(alpha)
    probes = 1
    # Bracket widths one and two probes back: Newton steps that fail to
    # halve the bracket over two probes give way to bisection.
    width, width_before = np.inf, np.inf
    while dphi > target or (dphi < -target and alpha < 1.0):
        if dphi < 0.0:
            lo = alpha
        else:
            hi = alpha
        if hi - lo <= _EPS:
            break
        # phi'' > 0 on the convex section unless it underflows to 0; then bisect.
        newton = alpha - dphi / d2phi if d2phi != 0.0 else np.nan
        if lo < newton < hi and hi - lo <= 0.5 * width_before:
            alpha = newton
        else:
            alpha = 0.5 * (lo + hi)
        width, width_before = hi - lo, width
        trial, out, dphi, d2phi = probe(alpha)
        probes += 1
    return alpha, trial, out, probes


def solve_step(problem: StepProblem, opts: SolveOptions = SolveOptions()) -> Solution:
    """Solve one implicit step; warm starts at the previous velocities v0."""
    if not np.isfinite(problem.v0).all():
        raise SolverFailure("non-finite warm start v0")

    batch = ContactBatch.build(problem)
    v = problem.v0.copy()
    av_star = safe_norm(problem.apply_A(problem.v_star))
    abs_floor = 1e-14 * av_star

    contact_cost, gammas, hessians = batch.terms(problem.contact_velocities(v))
    evaluations = 1
    momentum = problem.apply_A(v - problem.v_star)
    cost = 0.5 * float((v - problem.v_star) @ momentum) + contact_cost
    history = [cost]
    step_lengths = []

    converged = False
    diagnostic = f"no convergence within max_iters={opts.max_iters}"
    for _ in range(opts.max_iters):
        jt_gamma = problem.J.T @ gammas.ravel()
        grad = momentum - jt_gamma
        if not np.isfinite(grad).all():
            raise SolverFailure("non-finite cost gradient")
        scale = max(safe_norm(momentum), safe_norm(jt_gamma))
        if safe_norm(grad) <= opts.rel_tol * scale + abs_floor:
            converged = True
            diagnostic = ""
            break

        hess = _newton_matrix(problem, hessians)
        # The one finiteness check of the Newton system; scipy's own checks
        # are off.
        if not np.isfinite(hess).all():
            raise SolverFailure("non-finite Newton matrix")
        try:
            step = cho_solve(cho_factor(hess, lower=True, check_finite=False), -grad,
                             check_finite=False)
        except np.linalg.LinAlgError as err:
            raise SolverFailure(f"Newton system not SPD: {err}") from err

        slope = float(grad @ step)
        if slope >= 0.0:
            raise SolverFailure("Newton direction is not a descent direction")

        alpha, trial, (contact_cost, gammas, hessians), probes = _line_search(
            problem, batch, v, step, momentum, slope)
        evaluations += probes
        if np.array_equal(trial, v):
            diagnostic = "line search stalled at numerical precision"
            break
        v = trial
        step_lengths.append(alpha)
        momentum = problem.apply_A(v - problem.v_star)
        cost = 0.5 * float((v - problem.v_star) @ momentum) + contact_cost
        # The section minimizer descends by convexity even when the decrease
        # is below the float resolution of the offset-laden cost, so the
        # history records strict decreases only.
        if cost < history[-1]:
            history.append(cost)

    cond = None
    if opts.compute_condition_number:
        cond = condition_number(problem, v, hessians=hessians)
    return Solution(v=v, impulses=gammas,
                    iterations=len(step_lengths), converged=converged, cost=cost,
                    stiction_tolerance=batch.stiction_tolerance(gammas[:, -1]),
                    cost_history=history, condition_number=cond,
                    diagnostic=diagnostic, step_lengths=step_lengths,
                    contact_evaluations=evaluations)


def condition_number(problem: StepProblem, v: np.ndarray,
                     hessians: Optional[np.ndarray] = None) -> float:
    """Spectral condition number of A + J' G J at v.

    hessians, when given, are the contact Hessians G at v (the solver hands
    over the ones it holds at its final iterate); otherwise they are
    evaluated here.  A non-finite matrix or an eigensolver failure raises
    `SolverFailure`.
    """
    if hessians is None:
        hessians = ContactBatch.build(problem).terms(problem.contact_velocities(v))[2]
    matrix = _newton_matrix(problem, hessians)
    if not np.isfinite(matrix).all():
        raise SolverFailure("non-finite Newton matrix")
    try:
        eigs = np.linalg.eigvalsh(matrix)
    except np.linalg.LinAlgError as err:
        raise SolverFailure(f"condition number: {err}") from err
    return float(eigs[-1] / eigs[0])
