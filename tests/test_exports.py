"""Every exported name resolves, so a deleted function cannot linger in an
export list, and every callable the benchmark's tracer wraps still exists
with the signature it reads."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import dissipon

PACKAGE = Path(dissipon.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"dissipon.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_resolve():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert imported
    for module, name in imported:
        assert hasattr(dissipon, name)
        # the package re-exports only what its module exports
        exported = getattr(importlib.import_module(f"dissipon.{module}"), "__all__", None)
        assert exported is None or name in exported, f"{module}.{name}"


def test_tracer_wraps_the_package():
    """``perfbench/tracing.py`` looks every target up as
    ``owner.__dict__[attr]`` and reads arguments by position (``args[3]`` as
    the field method, ``args[1]`` as the grid or coupling): a removed,
    renamed or reordered callable breaks every traced benchmark run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing
    try:
        spec.loader.exec_module(tracing)
        for name in MODULES:
            importlib.import_module(f"dissipon.{name}")
        from dissipon import field, langevin, oscillator, reservoir
        originals = {name: vars(field)[name]
                     for name in ("evolve_field_with_source", "lattice_memory_kernel")}
        grid = field.FieldGrid(n=4, dx=1.0, uv_cutoff=2.0)
        coupling = reservoir.CouplingFunction.canonical(0.1, uv_cutoff=2.0)
        # the reservoir tests' Ohmic log-grid table, whose sweep has a plateau
        w = np.geomspace(1e-6, 60.0, 20000)
        table = reservoir.CouplingFunction.tabulated(
            w, np.sqrt(0.3 / (4.0 * np.pi**2 * w**5)) * np.exp(-((w / 30.0) ** 8) / 2))
        times = np.arange(4) * 0.1
        traj = langevin.Trajectory(times, np.zeros((4, 3)), np.ones((4, 3)))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            field.lattice_memory_kernel(coupling, grid, times)
            reservoir.MemoryKernel.sample(coupling, times)
            for method in ("kspace", "leapfrog"):
                field.evolve_field_with_source(traj, coupling, grid, method)
            reservoir.MemoryKernel.sample(table, times)
            reservoir.friction_coefficient(table)
            damped = oscillator.OscillatorParams(1.0, 1.0, 0.1)
            oscillator.asymptotic_reservoir_energy(damped, oscillator.FockTriple())
            oscillator.thermal_steady_energy(damped, 1.0, oracle_modes=(20, 20))
        finally:
            tracer.uninstall()
    finally:
        del sys.modules[spec.name]
    assert [s.name for s in tracer.spans] == [
        "field.lattice_kernel", "reservoir.kernel_sample", "field.kspace", "field.leapfrog",
        "reservoir.tabulated_sample", "reservoir.friction", "oscillator.reservoir_energy",
        "oscillator.thermal"]
    # a tabulated kernel and friction sweep are exact panel sums, and the
    # oscillator's moments partial fractions in closed form: no QUADPACK
    exact = {i for i, s in enumerate(tracer.spans) if s.name in (
        "reservoir.tabulated_sample", "reservoir.friction", "oscillator.reservoir_energy",
        "oscillator.thermal")}
    assert not [s.name for s in tracer.spans
                if s.parent in exact and s.name.startswith("quadrature.")]
    assert [s.info.get("energy_evals") for s in tracer.spans[2:4]] == [4, 4]
    assert all(s.error is None for s in tracer.spans)
    assert {name: vars(field)[name] for name in originals} == originals


def test_no_bath_path_imports_an_adaptive_integrator():
    """No module but ``quadrature`` names a ``quadrature.integrate_*`` routine
    (the package's re-export aside): every bath integral is a closed form
    or an exact panel sum, and the adaptive routines are the tests' oracles."""
    importers = set()
    for name in MODULES:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 \
                    and node.module == "quadrature" \
                    and any(a.name.startswith("integrate_") for a in node.names):
                importers.add(name)
            if isinstance(node, (ast.Name, ast.Attribute)) and name != "quadrature" \
                    and getattr(node, "id", getattr(node, "attr", "")).startswith("integrate_"):
                importers.add(name)
    assert importers == set()


def test_no_private_scipy_module_is_named():
    """The package uses scipy's public API only: no module names
    ``_quadpack`` or a private scipy module (a ``scipy.*._name`` path)."""
    named = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            words = []
            if isinstance(node, ast.Import):
                words = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                words = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                words = [node.value]
            elif isinstance(node, (ast.Name, ast.Attribute)):
                words = [getattr(node, "id", getattr(node, "attr", ""))]
            named += [(path.name, w) for w in words
                      if "_quadpack" in w or (w.startswith("scipy.") and any(
                          part.startswith("_") for part in w.split(".")))]
    assert named == []


def _function(module, name):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_bath_formulas_hold_one_prefactor_and_no_coupling_branch():
    """``reservoir`` integrates against either coupling kind: ``tls`` and
    ``rates`` import nothing private from ``quadrature``, and the level
    shifts and finite-time emission read no ``.kind``, so each states its
    physical prefactor once."""
    for module in ("tls", "rates"):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        private = [alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "quadrature"
                   for alias in node.names if alias.name.startswith("_")]
        assert private == [], module
    for module, name in (("tls", "level_shifts"),
                         ("rates", "finite_time_emission_probability")):
        kinds = [node for node in ast.walk(_function(module, name))
                 if isinstance(node, ast.Attribute) and node.attr == "kind"]
        assert kinds == [], name
