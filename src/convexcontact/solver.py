"""Newton solver with exact line search for the per-step cost.

Minimizes

    l_p(v) = 0.5 * |v - v*|_A^2 + sum_i l_c,i(J_i v + b_i)

which is strongly convex whenever every per-contact cost is convex.  The
Newton system (A + J' G J) dv = -grad uses the per-contact model Hessians G,
so the system matrix is symmetric positive definite and a Cholesky solve
applies.  The matrix is built in one shot from the problem's stacked J:
one batched product G_i @ J_i over the (n, dim, dim) Hessian blocks, then
one GEMM J' (G J) added to the cached dense A.  The per-step condition
number reuses the Hessians the solver holds at its final iterate.

Line search: the full Newton step is tried with an Armijo test first (it
wins in smooth regimes and preserves quadratic convergence); when contacts
chatter between regimes the model Hessian underestimates curvature across
the impulse kinks and full steps overshoot, so the solver switches to an
exact search on the convex section phi(a) = l_p(v + a*step), bracketing the
root of phi'.  Because the per-contact potentials sit on large constant
offsets, near the optimum the true decrease can drop below one ulp of the
cost; the bracketed section minimizer is then taken on the strength of the
convexity argument alone (phi' < 0 up to it), with a cap on consecutive
value-blind steps.  Plain backtracking is kept as a safety net.

The stopping criterion is the momentum-balance residual in relative form:

    |A(v - v*) - J' gamma| <= rel_tol * max(|A(v - v*)|, |J' gamma|)
                              + 1e-14 * |A v*|

recorded in Solution.stop_criterion for traceability, since tolerance
semantics otherwise tend to drift between implementations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .batch import ContactBatch
from .dynamics import StepProblem
from .potentials import evaluate

__all__ = ["SolveOptions", "Solution", "SolverFailure", "solve_step", "condition_number"]

STOP_CRITERION = "momentum_residual <= rel_tol*max(|A(v-v*)|,|J'gamma|) + 1e-14*|A v*|"


class SolverFailure(RuntimeError):
    """Internal invariant broke (non-PSD contact Hessian, singular system)."""


@dataclass(frozen=True)
class SolveOptions:
    rel_tol: float = 1e-5
    max_iters: int = 100
    ls_backtrack: float = 0.5
    armijo_c: float = 1e-4
    ls_max_backtracks: int = 40
    compute_condition_number: bool = False

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class Solution:
    v: np.ndarray
    impulses: list
    iterations: int
    converged: bool
    cost: float
    cost_history: list = field(default_factory=list)
    condition_number: Optional[float] = None
    stop_criterion: str = STOP_CRITERION
    diagnostic: str = ""


class _Terms:
    """Per-problem contact evaluation engine (batched when uniform)."""

    def __init__(self, problem: StepProblem):
        self.problem = problem
        self.n = len(problem.contacts)
        self.dim = problem.dim
        self.batch = ContactBatch.build(problem)

    def velocities(self, v: np.ndarray) -> np.ndarray:
        return self.problem.contact_velocities(v)

    def terms(self, v_c: np.ndarray, need_hessian: bool):
        """(contact cost, gammas (n, dim), hessians (n, dim, dim) | None)."""
        if self.n == 0:
            return 0.0, np.zeros((0, self.dim)), np.zeros((0, self.dim, self.dim))
        if self.batch is not None:
            return self.batch.terms(v_c, need_hessian)
        cost = 0.0
        gammas = np.zeros((self.n, self.dim))
        hessians = np.zeros((self.n, self.dim, self.dim)) if need_hessian else None
        for i, (_, data) in enumerate(self.problem.contacts):
            out = evaluate(self.problem.model, data, v_c[i], need_hessian=need_hessian)
            cost += out.cost
            gammas[i] = out.gamma
            if need_hessian:
                hessians[i] = out.hessian
        return cost, gammas, hessians

    def scatter(self, gammas: np.ndarray) -> np.ndarray:
        return self.problem.J.T @ gammas.ravel()

    def cost(self, v: np.ndarray) -> float:
        dv = v - self.problem.v_star
        quad = 0.5 * float(dv @ self.problem.apply_A(dv))
        return quad + self.terms(self.velocities(v), need_hessian=False)[0]


def _newton_matrix(problem: StepProblem, hessians: np.ndarray) -> np.ndarray:
    """A + J' G J with G = blockdiag(hessians): one batched G @ J_i, one GEMM."""
    j3 = problem.J.reshape(len(hessians), problem.dim, problem.n_v)
    return problem.A + problem.J.T @ (hessians @ j3).reshape(problem.J.shape)


def _section_minimum(terms: _Terms, v, step, slope0,
                     tol: float = 1e-3, max_bisect: int = 60) -> Optional[float]:
    """Step length minimizing the cost along the Newton direction, in (0, 1].

    phi' is continuous and non-decreasing (convex section); if phi'(1) <= 0
    the capped full step is optimal, otherwise bisect the sign change and
    polish with one secant step.  Tolerance is loose: the outer Newton loop
    only needs near-optimal progress.
    """
    problem = terms.problem
    a_step = problem.apply_A(step)
    base = float(a_step @ (v - problem.v_star))
    curve = float(a_step @ step)
    v_c0 = terms.velocities(v)
    dv_c = (problem.J @ step).reshape(v_c0.shape)

    def dphi(a):
        contact = 0.0
        if terms.n:
            gammas = terms.terms(v_c0 + a * dv_c, need_hessian=False)[1]
            contact = float(gammas.ravel() @ dv_c.ravel())
        return base + a * curve - contact

    hi_slope = dphi(1.0)
    if hi_slope <= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    lo_slope = slope0
    for _ in range(max_bisect):
        if (hi - lo) <= tol * hi:
            break
        mid = 0.5 * (lo + hi)
        ms = dphi(mid)
        if ms <= 0.0:
            lo, lo_slope = mid, ms
        else:
            hi, hi_slope = mid, ms
    if hi_slope > lo_slope:
        alpha = lo - lo_slope * (hi - lo) / (hi_slope - lo_slope)
        if lo < alpha < hi:
            return alpha
    return lo if lo > 0.0 else None


def solve_step(problem: StepProblem, model: Optional[str] = None,
               opts: SolveOptions = SolveOptions()) -> Solution:
    """Solve one implicit step; warm starts at the previous velocities v0."""
    if model is not None and model != problem.model:
        raise ValueError(f"problem was assembled for {problem.model!r}, not {model!r}")

    terms = _Terms(problem)
    v = problem.v0.copy()
    av_star = np.linalg.norm(problem.apply_A(problem.v_star))
    abs_floor = 1e-14 * av_star

    cost = terms.cost(v)
    _, gammas, hessians = terms.terms(terms.velocities(v), need_hessian=True)
    history = [cost]

    converged = False
    diagnostic = ""
    iterations = 0
    uncertified = 0
    for _ in range(opts.max_iters):
        momentum = problem.apply_A(v - problem.v_star)
        jt_gamma = terms.scatter(gammas)
        grad = momentum - jt_gamma
        scale = max(np.linalg.norm(momentum), np.linalg.norm(jt_gamma))
        if np.linalg.norm(grad) <= opts.rel_tol * scale + abs_floor:
            converged = True
            break

        hess = _newton_matrix(problem, hessians)
        try:
            step = cho_solve(cho_factor(hess, lower=True), -grad)
        except np.linalg.LinAlgError as err:
            raise SolverFailure(f"Newton system not SPD: {err}") from err

        slope = float(grad @ step)
        if slope >= 0.0:
            raise SolverFailure("Newton direction is not a descent direction")

        # Full step with Armijo first; exact section search on failure.
        alpha = 1.0
        trial = v + step
        trial_cost = terms.cost(trial)
        # Strict decrease required: a bitwise-equal cost would pass the
        # Armijo inequality (the slope term underflows) and the iteration
        # would spin on microscopic steps.
        accepted = trial_cost < cost and trial_cost <= cost + opts.armijo_c * slope
        if not accepted:
            alpha = _section_minimum(terms, v, step, slope)
            if alpha is not None:
                trial = v + alpha * step
                trial_cost = terms.cost(trial)
                accepted = trial_cost < cost
        if not accepted:
            bt_alpha = 1.0
            for _ in range(opts.ls_max_backtracks):
                trial = v + bt_alpha * step
                trial_cost = terms.cost(trial)
                if trial_cost < cost and trial_cost <= cost + opts.armijo_c * bt_alpha * slope:
                    accepted = True
                    break
                bt_alpha *= opts.ls_backtrack
        if accepted:
            v = trial
            cost = trial_cost
            history.append(cost)
            uncertified = 0
            iterations += 1
            _, gammas, hessians = terms.terms(terms.velocities(v), need_hessian=True)
            continue

        # No alpha is certifiable by cost value (decrease below the float
        # resolution of the offset-laden cost).  The bracketed section
        # minimizer still descends by convexity; take it value-blind, with
        # a cap that bounds float pathologies.
        if alpha is not None and uncertified < 30:
            uncertified += 1
            v = v + alpha * step
            trial_cost = terms.cost(v)
            if trial_cost < history[-1]:
                cost = trial_cost
                history.append(cost)
            iterations += 1
            _, gammas, hessians = terms.terms(terms.velocities(v), need_hessian=True)
            continue
        diagnostic = "line search stalled at numerical precision"
        break
    else:
        diagnostic = f"no convergence within max_iters={opts.max_iters}"

    if not converged and not diagnostic:
        diagnostic = f"no convergence within max_iters={opts.max_iters}"

    cond = None
    if opts.compute_condition_number:
        cond = condition_number(problem, v, hessians=hessians)
    return Solution(v=v, impulses=[gammas[i] for i in range(terms.n)],
                    iterations=iterations, converged=converged,
                    cost=cost, cost_history=history, condition_number=cond,
                    diagnostic=diagnostic)


def condition_number(problem: StepProblem, v: np.ndarray,
                     hessians: Optional[np.ndarray] = None) -> float:
    """Spectral condition number of A + J' G J at v.

    hessians, when given, are the contact Hessians G at v (the solver hands
    over the ones it holds at its final iterate); otherwise they are
    evaluated here.
    """
    if hessians is None:
        terms = _Terms(problem)
        _, _, hessians = terms.terms(terms.velocities(v), need_hessian=True)
    eigs = np.linalg.eigvalsh(_newton_matrix(problem, hessians))
    return float(eigs[-1] / eigs[0])
