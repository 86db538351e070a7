"""Newton solver with exact line search for the per-step cost.

Minimizes

    l_p(v) = 0.5 * |v - v*|_A^2 + sum_i l_c,i(J_i v + b_i)

which is strongly convex whenever every per-contact cost is convex.  The
Newton system (A + J' G J) dv = -grad uses the per-contact model Hessians G,
so the system matrix is symmetric positive definite and a Cholesky solve
applies.  The matrix is built in one shot from the problem's stacked J:
one batched product G_i @ J_i over the (n, dim, dim) Hessian blocks, then
one GEMM J' (G J) added to the world's cached dense A.  The solver checks
that matrix for non-finite entries itself (a `SolverFailure`), then factors
and solves it with LAPACK's dpotrf / dpotrs called directly (`cho_factor`,
`cho_solve`), without scipy's wrappers and their checks.  The per-step
condition number reuses the Hessians the solver holds at its final iterate,
and the per-contact stiction tolerances of `Solution` come from the same
kernel build, the one of the step.

Line search: exact, on the convex section phi(a) = l_p(v + a*step), and
driven by phi'(a) alone (see _line_search).  The per-contact potentials sit
on large constant offsets, so near the optimum the true decrease can drop
below one ulp of the cost and no comparison of costs by value certifies a
step; phi' is free of the offsets and monotone on the section.  Along the
step every contact velocity is affine in a, so each contact's breakpoints --
where its friction turns over (stiction points) or its normal impulse
switches on -- are known before any probe.  A failed full step places its
next probe from them, at the jump or smooth piece of phi' that holds the
root, and safeguarded Newton steps finish there: most searches that cut
the step short take three probes, instead of bisecting [0, 1] down to a
stiction band ~4e-5 wide.  The search has one rule for every model: SAP's
kernel reports no breakpoints (all nan), so its searches run the same
Newton steps under the same rtsafe safeguard from a = 1.
`Solution.probes` records each search's count.

The stopping criterion is the momentum-balance residual in relative form:

    |A(v - v*) - J' gamma| <= rel_tol * max(|A(v - v*)|, |J' gamma|)
                              + 1e-14 * |A v*|

recorded in Solution.stop_criterion for traceability, since tolerance
semantics otherwise tend to drift between implementations.  The norms are
taken by `safe_norm`, so impulses too large to square still compare as
finite numbers instead of reading inf <= inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.linalg._umath_linalg import eigvalsh_lo
from scipy.linalg.lapack import dpotrf, dpotrs

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
    # Kernel calls of each line search, in order; one more entry than
    # step_lengths when the last search stalls at numerical precision.
    probes: list = field(default_factory=list)
    contact_evaluations: int = 0  # contact-term evaluations: 1 + sum(probes)


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


def cho_factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the SPD matrix a (LAPACK dpotrf); the strict
    upper triangle is left as it was.  Raises np.linalg.LinAlgError when a
    is not positive definite."""
    factor, info = dpotrf(a, lower=1, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return factor


def cho_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solution x of a x = b from the lower factor of `cho_factor` (dpotrs)."""
    x, info = dpotrs(factor, b, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return x


# Relative slope tolerance of the exact line search, |phi'(a)| <= tol*|phi'(0)|.
_LS_TOL = 1e-3
# Bracket width at which the search stops: float resolution of a near 1.
_EPS = np.finfo(float).eps
# Widest stiction band, in units of the step, that the search treats as a
# jump of phi'.
_BAND = 1e-2
# A probe within this many band widths of a stiction point takes its Newton
# step in that contact's slip-direction coordinate.
_NEAR = 5.0


def _newton_matrix(problem: StepProblem, hessians: np.ndarray) -> np.ndarray:
    """A + J' G J with G = blockdiag(hessians): one batched G @ J_i, one GEMM."""
    j3 = problem.J.reshape(len(hessians), problem.dim, problem.n_v)
    return problem.A + problem.J.T @ (hessians @ j3).reshape(problem.J.shape)


def _line_search(problem: StepProblem, batch: ContactBatch, v, step, momentum, slope, gammas):
    """Exact search for the minimizer of phi(a) = l_p(v + a*step) on (0, 1].

    Works on phi' alone, which is monotone on the convex section and free of
    the potentials' constant offsets.  Each probe evaluates the contact terms
    once, with Hessians, at v + a*step and gives

        phi'(a)  = step' A (v + a*step - v*) - gamma(a) . J step
        phi''(a) = step' A step + sum_i (J step)_i' G_i(a) (J step)_i

    (phi'' only for a probe that is not accepted).

    The full step is taken when phi'(1) <= tol*|phi'(0)|.  Otherwise the
    search reads each contact's breakpoints off the line, v_c(a) = v_c +
    a*dv_c with dv_c = J step, with no kernel call (`ContactBatch.breakpoints`):

    * stiction points, where a contact's slip passes closest to zero.  In a
      band narrower than _BAND its friction turns over and phi' jumps by the
      change of -gamma_t . dv_t between a = 0 (gammas, the impulses at v)
      and a = 1;
    * switch-on points, where a contact's normal impulse turns on and
      phi'' jumps.

    A model of phi' from phi'(0) = slope, phi''(0) = -slope (the Newton
    matrix is the Hessian at v), phi'(1), phi''(1) and these points places
    the first probe after a = 1 (`_first_step`): at the stiction point whose
    jump crosses zero, or at the model's root on its smooth piece.  From
    then on Newton steps on phi' -- taken in the slip-direction coordinate of
    a stiction point within _NEAR band widths (`_newton_step`) -- run inside
    the sign-change bracket.  One safeguard serves every model: a Newton
    point outside the bracket, one that makes no progress over two probes (a
    step longer than half the one before last, as in rtsafe), or an
    underflowed phi'' gives way to the middle stiction point inside the
    bracket, else to bisection.  SAP reports no breakpoints (all nan), so its
    searches go from a = 1 by Newton steps under the same safeguard.  The
    search ends when |phi'(a)| <= tol*|phi'(0)| or the bracket reaches float
    resolution; every probe lies strictly inside the bracket.  Returns
    (a, trial, probe terms at trial, probe count); the caller reuses the
    accepted probe as the next iterate's gradient and Hessians.
    """
    base = float(step @ momentum)
    curve = float(step @ problem.apply_A(step))
    dv_c = (problem.J @ step).reshape(problem.bias.shape)
    target = _LS_TOL * abs(slope)

    def probe(alpha):
        trial = v + alpha * step
        out = batch.terms(problem.contact_velocities(trial))
        dphi = base + alpha * curve - float(out[1].ravel() @ dv_c.ravel())
        if not np.isfinite(dphi):
            raise SolverFailure(f"non-finite line-search slope phi'({alpha:.6g}) = {dphi}")
        return trial, out, dphi

    def curvature(hessians):
        return curve + float(np.einsum("ni,nij,nj->", dv_c, hessians, dv_c))

    alpha, lo, hi = 1.0, 0.0, 1.0
    trial, out, dphi = probe(alpha)
    probes = 1
    if dphi <= target:
        return alpha, trial, out, probes
    d2phi = curvature(out[2])

    at, width, on = batch.breakpoints(problem.contact_velocities(v), dv_c)
    # phi' jumps at a stiction point by its contact's friction turnover,
    # the change of -gamma_t . dv_t from a = 0 to a = 1.  Kept: points
    # inside (0, 1) with a narrow band and a jump above the tolerance.
    turn = np.einsum("ij,ij->i", (gammas - out[1])[:, :-1], dv_c[:, :-1])
    rows = np.flatnonzero((np.abs(turn) > target) & (width <= _BAND)
                          & (at > 0.0) & (at < 1.0))
    rows = rows[np.argsort(at[rows])]
    stick = list(zip(at[rows].tolist(), width[rows].tolist()))
    on = on[(on > 0.0) & (on < 1.0)]
    newton = _first_step(stick, turn[rows].tolist(), float(on.max()) if on.size else None,
                         slope, dphi, d2phi)
    # A Newton point is taken inside the bracket if it makes progress over
    # two probes: Newton converges from one side of a friction turnover, so
    # its step must be at most half the step before last (rtsafe).
    progress, progress_before = np.inf, np.inf
    while True:
        if dphi < 0.0:
            lo = alpha
        else:
            hi = alpha
        if hi - lo <= _EPS:
            break
        if newton is None:
            newton = _newton_step(alpha, dphi, d2phi, stick)
        if not (lo < newton < hi and abs(newton - alpha) <= 0.5 * progress_before):
            # The middle stiction point inside the bracket, else its midpoint.
            inside = [a for a, _ in stick if lo < a < hi]
            newton = inside[len(inside) // 2] if inside else 0.5 * (lo + hi)
        progress, progress_before = abs(newton - alpha), progress
        alpha, newton = newton, None
        trial, out, dphi = probe(alpha)
        probes += 1
        if abs(dphi) <= target:
            break
        d2phi = curvature(out[2])
    return alpha, trial, out, probes


def _newton_step(alpha, dphi, d2phi, stick):
    """Next Newton point on phi' from the probe (alpha, phi', phi'').

    Within _NEAR band widths of a stiction point (a_j, w_j), phi' is a smooth
    part plus A * s / sqrt(1 + s^2) in s = (alpha - a_j) / w_j; there the
    step is taken in tau = s / sqrt(1 + s^2), in which phi' is close to
    linear, and mapped back.  nan when phi'' underflows to 0 or tau leaves
    (-1, 1), i.e. the root is not in that band.
    """
    if d2phi == 0.0:
        return math.nan
    if stick:
        a_j, w_j = min(stick, key=lambda point: abs(alpha - point[0]) / point[1])
        s = (alpha - a_j) / w_j
        if abs(s) <= _NEAR:
            q2 = 1.0 + s * s
            tau = s / math.sqrt(q2) - dphi / (d2phi * w_j * q2 * math.sqrt(q2))
            if not -1.0 < tau < 1.0:
                return math.nan
            return a_j + w_j * tau / math.sqrt(1.0 - tau * tau)
    return alpha - dphi / d2phi


def _first_step(stick, jumps, b, slope, dphi1, d2phi1):
    """Model root of phi' on (0, 1) once the full step has failed, or None.

    Below b, the last switch-on point (1 when there is none), phi' is
    modelled as a line plus a step of jumps[j] at each stiction point
    stick[j] (sorted): the line rises as phi''(0) = -slope when contacts
    switch on, else so that the model meets phi'(1).  Above b it is the
    quadratic that meets the model at b and matches phi'(1) and phi''(1).
    Returns the stiction point in whose jump the model crosses zero, else the
    model's root.  None (a plain Newton step from a = 1) when there are no
    breakpoints or the model has no root.
    """
    if b is None:
        if not stick:
            return None
        b, rise = 1.0, dphi1 - slope - sum(jumps)
    else:
        rise = -slope
    level = slope
    for (a, _), jump in zip(stick, jumps):
        if a >= b or level + rise * a > 0.0:
            break
        if level + jump + rise * a > 0.0:
            return a
        level += jump
    if b == 1.0 or level + rise * b > 0.0:
        return -level / rise if rise > 0.0 else None
    x = b - 1.0
    curv = (level + rise * b - dphi1 - d2phi1 * x) / (x * x)
    disc = d2phi1 * d2phi1 - 4.0 * curv * dphi1
    if disc < 0.0:
        return None
    return 1.0 - 2.0 * dphi1 / (d2phi1 + math.sqrt(disc))


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
    step_lengths, probe_counts = [], []

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
        # The one finiteness check of the Newton system; LAPACK makes none.
        if not np.isfinite(hess).all():
            raise SolverFailure("non-finite Newton matrix")
        try:
            step = cho_solve(cho_factor(hess), -grad)
        except np.linalg.LinAlgError as err:
            raise SolverFailure(f"Newton system not SPD: {err}") from err

        slope = float(grad @ step)
        if slope >= 0.0:
            raise SolverFailure("Newton direction is not a descent direction")

        alpha, trial, (contact_cost, gammas, hessians), probes = _line_search(
            problem, batch, v, step, momentum, slope, gammas)
        evaluations += probes
        probe_counts.append(probes)
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
                    diagnostic=diagnostic, step_lengths=step_lengths, probes=probe_counts,
                    contact_evaluations=evaluations)


def condition_number(problem: StepProblem, v: np.ndarray,
                     hessians: Optional[np.ndarray] = None) -> float:
    """Spectral condition number of A + J' G J at v.

    hessians, when given, are the contact Hessians G at v (the solver hands
    over the ones it holds at its final iterate); otherwise they are
    evaluated here.  A non-finite matrix, or eigenvalues that do not
    converge or are not finite, raise `SolverFailure`.
    """
    if hessians is None:
        hessians = ContactBatch.build(problem).terms(problem.contact_velocities(v))[2]
    matrix = _newton_matrix(problem, hessians)
    if not np.isfinite(matrix).all():
        raise SolverFailure("non-finite Newton matrix")
    # The gufunc behind np.linalg.eigvalsh, the same LAPACK call and bits
    # without the wrapper's checks (the matrix is a finite float64 square).
    # Where LAPACK does not converge it returns NaN and raises the invalid
    # flag, which would otherwise warn.
    with np.errstate(invalid="ignore"):
        eigs = eigvalsh_lo(matrix, signature="d->d")
    if not np.isfinite(eigs).all():
        raise SolverFailure("condition number: eigenvalues did not converge or overflowed")
    return float(eigs[-1] / eigs[0])
