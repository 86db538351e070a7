"""Benchmark scenarios with paper-grade default parameters.

Four parameterized setups:

belt
    A 1 kg, 5 cm box resting on a conveyor surface oscillating along x at
    1 Hz with 0.2 m amplitude (peak surface speed ~1.26 m/s), mu = 0.7.
    The belt is a prescribed half-space; its surface velocity enters the
    contact bias only.  The box contacts through its two lower corners.

falling_sphere
    A 0.5 kg disk, 5 cm diameter, released with its center 5 cm above the
    ground and horizontal speed 2 m/s, mu = 0.5.  It impacts, slides, and
    rolls once friction has spun it up.  Disk inertia m r^2 / 2.

sliding_rod
    A slender rod (0.5 m, 0.3 kg, inertia m L^2 / 12) starts at 30 degrees
    with its lower tip on the ground, sliding at 10 m/s with mu = 2.3
    (above the 4/3 threshold): friction drives the tip into the ground,
    the normal force blows up, the rod jams and then jumps.

clutter
    Spheres (10 cm diameter, 0.524 kg) dropped in columns into an
    80x80x80 cm box of half-space walls; 3D, seeded layout jitter.

All scenarios default to k = 1e7 N/m, v_s = 1e-4 m/s, sigma = 1e-3.
Detection margins are sized per scenario so that the coupled models'
action-at-distance contacts stay in the active set at the largest study
time steps.  The per-scenario defaults (`_DEFAULTS`) are read in one place,
`ScenarioSpec.__post_init__`: a spec holds its resolved values from the
moment it is built.

`Simulation.step` assembles, solves and advances the world through the
module attributes `assemble_problem`, `solve_step` and `advance_state`,
once each.  Its impulse memory (`dynamics.ImpulseMemory`) is the step's own
packed contact keys and normal impulses; it records each step's packed keys
and contact channels as arrays, and takes the state rows from the world's
state arrays; `trajectory()` unpacks the keys once, at the end of a run.
A `Trajectory` names its free bodies in dof order; `Trajectory.body_rows`
alone splits their state rows into per-body blocks and labels them.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .batch import ContactBatch, FrictionParams, HuntCrossley, check_integer, model_id
from .collision import Box, HalfSpace, Rod, Sphere, quaternion_matrix, unpack_keys
from .dynamics import (Body, ImpulseMemory, NonFinitePose, World, advance_state,
                       assemble_problem)
from .solver import SolveOptions, SolverFailure, safe_norm, solve_step

__all__ = [
    "SCENARIO_IDS",
    "ScenarioSpec",
    "Trajectory",
    "CHANNELS",
    "ScenarioError",
    "Simulation",
    "run_scenario",
]

SCENARIO_IDS = ("belt", "falling_sphere", "sliding_rod", "clutter")

# scenario -> defaults of the fields in _DEFAULTED, in that order
_DEFAULTED = ("dt", "duration", "dissipation", "tau_d", "mu", "margin")
_DEFAULTS = {
    "belt": (1e-2, 3.0, 500.0, 1e-3, 0.7, 0.045),
    "falling_sphere": (2e-3, 0.45, 500.0, 1e-3, 0.5, 0.03),
    "sliding_rod": (1e-5, 0.15, 0.2, 4e-6, 2.3, 0.02),
    "clutter": (2e-3, 3.0, 10.0, 1e-4, 1.0, 0.05),
}


class ScenarioError(RuntimeError):
    """A scenario step failed or did not converge; carries the step index."""


@dataclass(frozen=True)
class ScenarioSpec:
    """Scenario id, model id, step size and physical parameter overrides.

    A spec is resolved when it is built: fields passed as None take the
    scenario's defaults above, so `ScenarioSpec("belt").dt == 0.01`.  The
    spec is frozen and hashable.  `dataclasses.replace` keeps the resolved
    values; replacing a field with None takes its scenario default again.
    """

    scenario: str
    model: str = "lagged"
    dt: Optional[float] = None
    duration: Optional[float] = None
    stiffness: float = 1e7
    dissipation: Optional[float] = None
    tau_d: Optional[float] = None
    mu: Optional[float] = None
    v_s: float = 1e-4
    sigma: float = 1e-3
    seed: int = 0
    n_bodies: int = 12
    margin: Optional[float] = None

    def __post_init__(self):
        if self.scenario not in SCENARIO_IDS:
            raise ValueError(f"unknown scenario {self.scenario!r}; expected one of {SCENARIO_IDS}")
        model_id(self.model)
        for name in ("seed", "n_bodies"):
            check_integer(name, getattr(self, name))
        for name, default in zip(_DEFAULTED, _DEFAULTS[self.scenario]):
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)
        # Comparisons, not math.isfinite: they reject NaN too, and take an int
        # of any size where math.isfinite raises OverflowError (a huge seed).
        for name in ("dt", "duration", "stiffness", "v_s", "sigma"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        for name in ("mu", "dissipation", "tau_d", "margin", "seed"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if self.dt > self.duration:
            raise ValueError(f"dt = {self.dt} exceeds duration = {self.duration}")
        if self.duration / self.dt == math.inf:
            raise ValueError(f"duration / dt = {self.duration} / {self.dt} overflows")
        if self.scenario == "clutter" and not 1 <= self.n_bodies <= 40:
            raise ValueError(f"clutter supports 1..40 spheres, got {self.n_bodies}")

    def resolve(self) -> "ScenarioSpec":
        """The spec itself, resolved when it was built; kept for older callers."""
        return self

    def as_dict(self) -> dict:
        return asdict(self)


def _friction(spec: ScenarioSpec) -> FrictionParams:
    return FrictionParams(mu=spec.mu, v_s=spec.v_s, sigma=spec.sigma, tau_d=spec.tau_d)


def build_world(spec: ScenarioSpec) -> World:
    dim, bodies = _BUILDERS[spec.scenario](spec)
    return World(dim=dim, bodies=bodies, stiffness=spec.stiffness,
                 dissipation=spec.dissipation, friction=_friction(spec),
                 margin=spec.margin)


def _build_belt(spec: ScenarioSpec) -> tuple:
    freq, amplitude = 1.0, 0.2
    peak = 2.0 * math.pi * freq * amplitude

    # Belt position A*sin(w t): the surface starts at full speed, so the
    # run opens with an energetic slip episode that exercises the models'
    # sliding artifacts before settling into the stick-slip cycle.
    # math.cos raises on an infinite phase (t past ~3e307 s); NaN instead
    # reaches the solver, which reports the non-finite input.
    def surface_velocity(t, _peak=peak, _w=2.0 * math.pi * freq):
        phase = _w * t
        return np.array([_peak * math.cos(phase) if phase < math.inf else math.nan, 0.0, 0.0])

    belt = Body("belt", HalfSpace((0.0, 1.0), 0.0), np.zeros(2),
                motion="prescribed", prescribed_velocity=surface_velocity)
    side = 0.05
    mass = 1.0
    inertia = mass * (side ** 2 + side ** 2) / 12.0
    # The box starts on the model's own sliding-equilibrium branch for the
    # initial surface speed: the coupled models support a sliding contact at
    # a slip-dependent height, and dropping them at the resting penetration
    # would fire a large vertical transient at t = 0.
    half = side / 2.0
    w = (2.0 / mass + half ** 2 / inertia + 1.0 / mass) / 2.0
    x0 = _sliding_equilibrium_penetration(spec, load=0.5 * mass * 9.81,
                                          slip=peak, w=w)
    box = Body("box", Box((half, half)), np.array([0.0, half - x0]), 0.0,
               mass=mass, inertia=inertia)
    return 2, [belt, box]


def _build_falling_sphere(spec: ScenarioSpec) -> tuple:
    ground = Body("ground", HalfSpace((0.0, 1.0), 0.0), np.zeros(2), motion="prescribed")
    radius, mass = 0.025, 0.5
    disk = Body("disk", Sphere(radius), np.array([0.0, 0.05]), 0.0,
                velocity=np.array([2.0, 0.0, 0.0]),
                mass=mass, inertia=0.5 * mass * radius ** 2)
    return 2, [ground, disk]


def _sliding_equilibrium_penetration(spec: ScenarioSpec, load: float,
                                     slip: float, w: float) -> float:
    """Penetration at which the model's impulse carries `load` under steady slide.

    The strongly coupled models support a sliding contact at a finite
    negative penetration (the gliding artifact), so starting a fast-sliding
    body at zero gap would put it far off its own equilibrium branch and
    fire it ballistic.  Solved by bisection on the monotone impulse, which
    stops once the bracket reaches float resolution and stops moving.
    """
    law, friction = HuntCrossley(spec.stiffness, spec.dissipation), _friction(spec)
    v_c = np.array([[-slip, 0.0]])
    target = spec.dt * load

    def impulse(x0):
        kernel = ContactBatch(spec.model, 2, spec.dt, law, friction, x0=np.full(1, x0),
                              gamma_n0=np.full(1, target), w=np.full(1, w))
        return kernel.evaluate(v_c)[1][0, -1] - target

    lo, hi = -0.5, 0.02
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        bracket = (mid, hi) if impulse(mid) < 0.0 else (lo, mid)
        if bracket == (lo, hi):  # every later probe would repeat this one
            break
        lo, hi = bracket
    return 0.5 * (lo + hi)


def _build_sliding_rod(spec: ScenarioSpec) -> tuple:
    ground = Body("ground", HalfSpace((0.0, 1.0), 0.0), np.zeros(2), motion="prescribed")
    length, mass = 0.5, 0.3
    inertia = mass * length ** 2 / 12.0
    phi0 = math.radians(30.0)
    speed = 10.0
    # Axis points down-forward: the leading (+x) tip touches the ground and
    # the center of mass trails above and behind it.  Friction then torques
    # the tip into the ground (the jam regime needs mu > 4/3).
    r_x = 0.5 * length * math.cos(phi0)
    r_y = -0.5 * length * math.sin(phi0)
    # Quasi-static tip load during steady slide (tip acceleration zero).
    load = 9.81 / (1.0 / mass + r_x * (r_x + spec.mu * r_y) / inertia)
    w = (2.0 / mass + (r_x ** 2 + r_y ** 2) / inertia) / 2.0
    x0 = _sliding_equilibrium_penetration(spec, load, speed, w)
    rod = Body("rod", Rod(length),
               np.array([0.0, 0.5 * length * math.sin(phi0) - x0]), -phi0,
               velocity=np.array([speed, 0.0, 0.0]),
               mass=mass, inertia=inertia)
    return 2, [ground, rod]


# Near-touching triangular cluster first (drops into a wedged pile that
# actually settles), outer ring for larger counts.
_COLUMN_XY = [(0.0, 0.0), (0.105, 0.0), (0.0525, 0.0909), (-0.105, 0.0),
              (-0.0525, 0.0909), (0.0, -0.105), (0.21, 0.0), (-0.21, 0.0),
              (0.105, -0.105), (0.0, 0.21)]


def _build_clutter(spec: ScenarioSpec) -> tuple:
    half = 0.4
    walls = [
        Body("floor", HalfSpace((0.0, 0.0, 1.0), 0.0), np.zeros(3), motion="prescribed"),
        Body("wall-x", HalfSpace((1.0, 0.0, 0.0), -half), np.zeros(3), motion="prescribed"),
        Body("wall+x", HalfSpace((-1.0, 0.0, 0.0), -half), np.zeros(3), motion="prescribed"),
        Body("wall-y", HalfSpace((0.0, 1.0, 0.0), -half), np.zeros(3), motion="prescribed"),
        Body("wall+y", HalfSpace((0.0, -1.0, 0.0), -half), np.zeros(3), motion="prescribed"),
    ]
    rng = np.random.default_rng(spec.seed)
    radius, mass = 0.05, 0.524
    spheres = []
    for i in range(spec.n_bodies):
        cx, cy = _COLUMN_XY[(i // 4) % len(_COLUMN_XY)]
        level = i % 4
        jitter = rng.uniform(-2e-3, 2e-3, size=2)
        center = np.array([cx + jitter[0], cy + jitter[1], 0.055 + 0.105 * level])
        spheres.append(Body(f"sphere{i}", Sphere(radius), center,
                            np.array([1.0, 0.0, 0.0, 0.0]),
                            mass=mass, inertia=0.4 * mass * radius ** 2))
    return 3, walls + spheres


# scenario id -> builder of (dim, bodies)
_BUILDERS = {"belt": _build_belt, "falling_sphere": _build_falling_sphere,
             "sliding_rod": _build_sliding_rod, "clutter": _build_clutter}


@dataclass
class Trajectory:
    """Uniformly sampled run: states at step boundaries, contact channels per step.

    Contact channels are (n_steps, n_keys) arrays aligned with `keys`, NaN
    where a contact is absent.  Forces are reported as impulse / dt.
    """

    spec: ScenarioSpec
    times: np.ndarray
    q: np.ndarray
    v: np.ndarray
    bodies: list  # free-body names in dof order (`body_rows`)
    masses: list
    inertias: list
    keys: list
    v_n: np.ndarray
    v_t: np.ndarray
    f_n: np.ndarray
    f_t: np.ndarray
    x0: np.ndarray
    eps_s: np.ndarray
    iterations: np.ndarray
    condition_number: np.ndarray
    cost: np.ndarray
    rel_tol: float  # the solver's stopping tolerance (SolveOptions.rel_tol)

    @property
    def dt(self) -> float:
        return self.spec.dt

    @property
    def step_times(self) -> np.ndarray:
        """End-of-step times aligned with the contact channel arrays."""
        return self.times[1:]

    def active(self) -> np.ndarray:
        """(n_steps, n_keys) mask of contacts carrying a positive impulse."""
        return np.nan_to_num(self.f_n, nan=0.0) > 0.0

    def body_rows(self) -> list:
        """Each free body's state rows in dof order: (name, dim, q, v, labels).

        q and v are the body's column blocks of `q` and `v`, the first dim
        columns of each its translation; labels names the q columns, then
        the v ones.  A q row is x, y, th in 2D and x, y, z, qw, qx, qy, qz
        in 3D (`World.free_state`); a v row is vx, vy, w in 2D and
        vx, vy, vz, wx, wy, wz in 3D.
        """
        nv = self.v.shape[1] // len(self.bodies)
        dim = 2 if nv == 3 else 3
        labels = (("x", "y", "th", "vx", "vy", "w") if dim == 2 else
                  ("x", "y", "z", "qw", "qx", "qy", "qz", "vx", "vy", "vz", "wx", "wy", "wz"))
        nq = len(labels) - nv
        return [(name, dim, self.q[:, i * nq:(i + 1) * nq], self.v[:, i * nv:(i + 1) * nv], labels)
                for i, name in enumerate(self.bodies)]

    def kinetic_energy(self) -> np.ndarray:
        """Total kinetic energy of the free bodies at every recorded state.

        A 3x3 body-frame inertia I gives 0.5 w' R I R' w, with R from the
        recorded quaternion; a scalar one gives 0.5 I |w|^2.
        """
        ke = np.zeros(self.v.shape[0])
        for (_, dim, q, v, _), mass, inertia in zip(self.body_rows(), self.masses, self.inertias):
            omega = v[:, dim:]
            ke += 0.5 * mass * np.einsum("ij,ij->i", v[:, :dim], v[:, :dim])
            if np.ndim(inertia) == 0:
                ke += 0.5 * float(inertia) * np.einsum("ij,ij->i", omega, omega)
            else:
                # Body-frame angular velocity R' w, one row per state.
                body = np.einsum("tji,tj->ti", quaternion_matrix(q[:, dim:]), omega)
                ke += 0.5 * np.einsum("ti,ij,tj->t", body, np.asarray(inertia, dtype=float), body)
        return ke


# Contact channels recorded per step, in record column order.
CHANNELS = ("v_n", "v_t", "f_n", "f_t", "x0", "eps_s")


class Simulation:
    """Owns the world, the contact-impulse memory (an `ImpulseMemory`) and
    the recorders, which take each step's state rows from the world's state
    arrays."""

    def __init__(self, spec: ScenarioSpec, options: Optional[SolveOptions] = None):
        self.spec = spec
        self.world = build_world(self.spec)
        self.options = options or SolveOptions(compute_condition_number=True)
        self.memory = self._seed_memory()
        self.step_index = 0
        # Per step: packed contact keys (n,), channels (n, 6) in CHANNELS
        # order, iterations, condition number and cost.
        self._records: list = []
        self._states = [self.world.free_state()]

    def _seed_memory(self) -> ImpulseMemory:
        """Previous-step impulses for contacts already present at t = 0.

        A body initialized resting or sliding has been in contact before the
        run started, so the lag seeds from the state-based impulse
        dt * f_n(x0, xdot0) instead of zero (zero would give the lagged
        model one friction-free step at t = 0, a large transient when the
        run starts mid-slip).
        """
        problem = assemble_problem(self.world, self.spec.dt, self.spec.model)
        v_n = problem.contact_velocities(problem.v0)[:, -1]
        impulses = ContactBatch.build(problem).hunt_crossley(v_n)[1]
        return ImpulseMemory(problem.key, impulses)

    def assemble(self):
        return assemble_problem(self.world, self.spec.dt, self.spec.model,
                                prev_impulses=self.memory)

    def _error(self, message: str) -> ScenarioError:
        """A ScenarioError for the current step: its index and time, then
        message, then the config."""
        return ScenarioError(f"step {self.step_index} (t = {self.world.time:.6g}){message}; "
                             f"config {self.spec.as_dict()}")

    def step(self):
        try:
            problem = self.assemble()
        except NonFinitePose as err:
            raise self._error(f": {err}") from err
        try:
            sol = solve_step(problem, opts=self.options)
        except SolverFailure as err:
            raise self._error(f": {err}") from err
        if not sol.converged:
            raise self._error(f" did not converge: {sol.diagnostic}")

        dt = self.spec.dt
        v_c = problem.contact_velocities(sol.v)
        gammas = sol.impulses
        gamma_n = gammas[:, -1]
        # The v_t and f_t row norms in one call.
        slip = safe_norm(np.concatenate([v_c[:, :-1], gammas[:, :-1]]), axis=1)
        rows = np.column_stack([
            v_c[:, -1],
            slip[:len(v_c)],
            gamma_n / dt,
            slip[len(v_c):] / dt,
            problem.x0,
            sol.stiction_tolerance,
        ])
        cond = sol.condition_number
        if not (np.isfinite(rows).all() and math.isfinite(sol.cost)
                and (cond is None or math.isfinite(cond))):
            raise self._error(": non-finite contact channel (v_n, v_t, f_n, f_t, x0, eps_s), "
                              "cost or condition number")
        try:
            state = advance_state(self.world, sol.v, dt)
        except ValueError as err:
            raise self._error(f": {err}") from err
        # A copy: the memory must not alias the Solution that step returns.
        self.memory = ImpulseMemory(problem.key, gamma_n.copy())
        self.world.time += dt
        self.step_index += 1
        self._records.append((problem.key, rows, sol.iterations, sol.condition_number,
                              sol.cost))
        self._states.append(state)
        return sol

    def run(self) -> "Trajectory":
        n_steps = int(round(self.spec.duration / self.spec.dt))
        while self.step_index < n_steps:
            self.step()
        return self.trajectory()

    def trajectory(self) -> "Trajectory":
        spec = self.spec
        n = len(self._records)
        times = spec.dt * np.arange(n + 1)
        q = np.array([row[0] for row in self._states]).reshape(n + 1, -1)
        v = np.array([row[1] for row in self._states]).reshape(n + 1, -1)

        free = [self.world.bodies[i] for i in self.world.free_bodies]

        records = self._records
        # Sorted unique packed keys (lexicographic, as for the tuples) and the
        # column of every recorded contact among them.
        every_key = np.concatenate([r[0] for r in records] + [np.zeros(0, dtype=np.int64)])
        keys, column = np.unique(every_key, return_inverse=True)
        step = np.repeat(np.arange(n), [len(r[0]) for r in records])
        chan = np.full((len(CHANNELS), n, len(keys)), np.nan)
        chan[:, step, column] = np.concatenate(
            [r[1] for r in records] + [np.zeros((0, len(CHANNELS)))]).T
        chan = dict(zip(CHANNELS, chan))
        keys = unpack_keys(keys)
        iters = np.array([r[2] for r in records], dtype=int)
        cond = np.array([np.nan if r[3] is None else r[3] for r in records], dtype=float)
        cost = np.array([r[4] for r in records], dtype=float)

        return Trajectory(
            spec=spec, times=times, q=q, v=v, bodies=[b.name for b in free],
            masses=[b.mass for b in free], inertias=[b.inertia for b in free], keys=keys,
            v_n=chan["v_n"], v_t=chan["v_t"], f_n=chan["f_n"], f_t=chan["f_t"],
            x0=chan["x0"], eps_s=chan["eps_s"],
            iterations=iters, condition_number=cond, cost=cost,
            rel_tol=self.options.rel_tol,
        )


def run_scenario(spec: ScenarioSpec, options: Optional[SolveOptions] = None) -> Trajectory:
    """Run a scenario to completion; raises ScenarioError on non-convergence."""
    return Simulation(spec, options).run()
