"""The tags of the model zoo (``models.py``) against what the code computes."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

import delaylab as dl
from delaylab.evolution import DEFAULT_DT
from delaylab.functional import _atoms
from delaylab.scenario_io import load_scenario
from models import ZOO, select

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
#: per variant of functional: its tag and the fields that define it
VARIANTS = {
    dl.CantorKernel: ("cantor", "c depth"), dl.DensityKernel: ("density", "samples"), dl.DiscreteDelays: ("discrete", "matrices delays")
}


def _digest(phi, *arrays):
    """SHA-256 over the arrays, then the arrays and numbers that define phi."""
    digest = hashlib.sha256(type(phi).__name__.encode())
    for part in arrays + tuple(getattr(phi, field) for field in VARIANTS[type(phi)][1].split()):
        digest.update(np.asarray(part, dtype=float).tobytes())
    return digest.hexdigest()


def fingerprint(model):
    """SHA-256 over A, the functional's defining arrays and p."""
    return _digest(model.phi, model.A.matrix, model.p)


def functional_tags(phi):
    """The tags that the functional decides: its variant, no delay, and point masses at or next to zero."""
    atoms = _atoms(phi, 64)
    masses = atoms.offsets if atoms.point_masses else np.zeros(0)
    return {VARIANTS[type(phi)][0]} | {tag for tag, holds in {
        "no_delay": len(atoms.offsets) == 0,
        "atom0": np.any(masses >= -1e-12),
        "sub_step": np.any((masses < -1e-12) & (masses > -DEFAULT_DT)),
    }.items() if holds}


@pytest.mark.parametrize("name", sorted(ZOO))
def test_tags_hold(name):
    tags = ZOO[name].tags
    if "functional" in tags:
        assert tags - {"functional"} == functional_tags(ZOO[name].build())
        return
    model = ZOO[name].build()
    split, weights = model.decoupled, _atoms(model.phi, 1).weights
    structure = "coupled" if split is None else "scalar" if split[3] is None else "split"
    assert (structure == "scalar") == (weights.ndim == 1)
    commuting = False
    if weights.ndim == 3:
        a = model.A.matrix
        gap = np.abs(a @ weights - weights @ a).max(axis=(1, 2)) / np.abs(weights).max(axis=(1, 2))
        commuting = bool(np.all(gap <= 1e-6 * np.abs(a).max()))
    # solve_steps steps in the modes of A when the model splits and A keeps an eigenbasis
    modal = split is not None and split[1] is not None
    want = functional_tags(model.phi) | {structure, "modal" if modal else "matrix"} | ({"blows_up"} & tags)
    want |= {tag for tag, holds in {
        "commuting": commuting,
        "non_normal": model.A.modes() is None,
        "defective": model.A._eigen[1] is None,
        "shipped": (SCENARIOS / f"{name}.json").exists(),
        "frontier": name.startswith("frontier_"),
    }.items() if holds}
    assert tags == want
    if "shipped" in tags:
        assert fingerprint(load_scenario(SCENARIOS / f"{name}.json").model) == fingerprint(model)
    if "blows_up" in tags:
        state = dl.random_compatible_state(model.n, 64, model.p, np.random.default_rng(0))
        with pytest.raises(dl.BlowUpError):
            dl.solve_steps(model, state, 10.0)


def test_one_name_per_model():
    models = [build() for build in select().values()]
    assert len({fingerprint(model) for model in models}) == len(models)
    functionals = [build() for build in select("functional").values()]
    assert len({_digest(phi) for phi in functionals}) == len(functionals)
