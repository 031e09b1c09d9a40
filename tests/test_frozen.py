"""Every model and report type is immutable: its fields cannot be reassigned,
so what the package derives from them once (the eigendecomposition of A,
the split of a model, the Cantor grid weights) cannot go stale."""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import delaylab as dl
from delaylab.scenario_io import RunParams, Scenario
from delaylab.spectral import _log_det


def _package_dataclasses():
    for info in pkgutil.iter_modules(dl.__path__):
        module = importlib.import_module(f"delaylab.{info.name}")
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__:
                yield obj


def test_every_dataclass_is_frozen():
    found = {cls.__name__: cls.__dataclass_params__.frozen for cls in _package_dataclasses()}
    assert len(found) >= 14
    assert [name for name, frozen in found.items() if not frozen] == []


def _delayed_diffusion():
    op = dl.laplacian_dirichlet_1d(4)
    return dl.SystemModel(op, dl.single_delay(0.5 * op.matrix, -1.0))


#: A 4 x 4 weight that is not diagonal in the eigenbasis of the 4-point Laplacian.
COUPLING = np.array([[0.3, 0.1, 0.0, 0.0], [0.2, -0.1, 0.05, 0.0], [0.0, 0.1, 0.2, 0.3], [0.1, 0.0, 0.0, -0.2]])


def test_fields_cannot_be_reassigned():
    model = _delayed_diffusion()
    assert model.decoupled is not None
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.phi = dl.single_delay(COUPLING, -1.0)
    op = dl.SpatialOperator(np.diag([-1.0, -2.0]))
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.matrix = np.diag([-5.0, -7.0])
    np.testing.assert_array_equal(np.sort(op.spectrum().real), [-2.0, -1.0])
    kernel = dl.CantorKernel(1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        kernel.depth = 99
    assert kernel.depth == 24


def test_replace_builds_a_fresh_split():
    model = _delayed_diffusion()
    lam = 0.3, 0.2
    split_log_det = _log_det(model, *lam)[0]
    varied = dataclasses.replace(model, phi=dl.single_delay(COUPLING, -1.0))
    fresh = dl.SystemModel(model.A, dl.single_delay(COUPLING, -1.0))
    assert varied.decoupled is None
    assert varied.A is model.A
    np.testing.assert_array_equal(_log_det(varied, *lam)[0], _log_det(fresh, *lam)[0])
    assert _log_det(varied, *lam)[0][0] == pytest.approx(14.513, abs=1e-3)
    np.testing.assert_array_equal(_log_det(model, *lam)[0], split_log_det)


def test_derived_values_are_computed_once():
    model = _delayed_diffusion()
    assert model.decoupled is model.decoupled
    assert model.A._eigen is model.A._eigen
    assert dl.cantor_grid_weights(64, 24) is dl.cantor_grid_weights(64, 30)


def test_array_holders_compare_and_hash_by_identity():
    # value equality would compare arrays elementwise and raise, and a hash over them would fail
    op = dl.laplacian_dirichlet_1d(4)
    model = _delayed_diffusion()
    state = dl.random_compatible_state(4, 16, 2.0, np.random.default_rng(1))
    traj = dl.solve_steps(model, state, 0.5, 1.0 / 16)
    scenario = Scenario(model, state, RunParams(T=0.5, m=16))
    holders = [op, model, model.phi, state, state.history, traj, scenario, dl.DensityKernel(np.ones((3, 4, 4)))]
    for obj in holders:
        twin = dataclasses.replace(obj)
        assert obj == obj and obj != twin and hash(obj) != hash(twin)
        assert {obj: 1, twin: 2}[obj] == 1
    assert op != dl.laplacian_dirichlet_1d(4)
    rates = {model: 0.1}
    assert rates[model] == 0.1 and _delayed_diffusion() not in rates
    assert dl.CantorKernel(1.0) == dl.CantorKernel(1.0)
