"""The README's Python examples run as written, every name a module
exports in its __all__ exists, every attribute the benchmark's tracer
wraps exists and is the one the library calls, and the validation checks
load without scipy."""

import importlib
import importlib.util
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import convexcontact

README = Path(__file__).resolve().parents[1] / "README.md"
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = sorted(info.name for info in pkgutil.iter_modules(convexcontact.__path__,
                                                           "convexcontact."))


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md, python block {i}", "exec"), {})


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_tracer_targets_resolve():
    # perfbench/tracing.py swaps each (owner, attribute) of TARGETS for a
    # timing wrapper; a renamed attribute would fail only inside a benchmark
    # run.  getattr_static finds the attribute without calling descriptors.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = object()
    assert tracing.TARGETS
    assert [(owner.__name__, attribute) for owner, attribute, *_ in tracing.TARGETS
            if inspect.getattr_static(owner, attribute, missing) is missing] == []


def test_traced_attributes_are_the_ones_called(monkeypatch):
    # The tracer times collision and the condition number by wrapping
    # dynamics.detect_contacts and solver.condition_number, and a step's
    # assembly, solve and advance by wrapping scenarios.assemble_problem,
    # solve_step and advance_state; a call that bypassed one of those
    # attributes would leave its span reading 0, and a second call would
    # misstate it.
    from convexcontact import dynamics, scenarios, solver
    from convexcontact.scenarios import ScenarioSpec, Simulation

    calls = []
    for owner, name in ((dynamics, "detect_contacts"), (solver, "condition_number"),
                        (scenarios, "assemble_problem"), (scenarios, "solve_step"),
                        (scenarios, "advance_state")):
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    sim = Simulation(ScenarioSpec("clutter", n_bodies=4))
    calls.clear()
    problem = sim.assemble()
    assert calls == ["assemble_problem", "detect_contacts"]
    calls.clear()
    sol = solver.solve_step(problem, sim.options)
    assert calls == ["condition_number"] and sol.condition_number > 1.0
    for _ in range(3):
        calls.clear()
        sim.step()
        assert calls == ["assemble_problem", "detect_contacts", "solve_step",
                         "condition_number", "advance_state"]


def test_validation_imports_no_scipy():
    # Criterion 1 needs numpy and the kernel only; scipy would add most of
    # its start-up time and memory to every process that runs the checks,
    # and so would any other module of the package.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys, convexcontact.validation; print('scipy' in sys.modules); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'convexcontact'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    scipy, package = out.stdout.splitlines()
    assert scipy == "False"
    assert package == str(["convexcontact", "convexcontact.batch", "convexcontact.validation"])
