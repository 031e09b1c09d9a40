"""Models whose delay weights are not scalars, split into modes or not.

The split models have weights that commute with A, so that every weight
is diagonal in the eigenbasis of A and the characteristic equation splits
into one scalar equation per mode.  The coupled models break that by a
small non-commuting part, or by an eigenbasis of A that does not
diagonalise the weight.
"""

from __future__ import annotations

import numpy as np

import delaylab as dl

#: J with J^2 = -I: a I + b J commutes with every 2 x 2 rotation block.
_J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _rotation_blocks(a1, b1, a2, b2):
    out = np.zeros((4, 4))
    out[:2, :2] = a1 * np.eye(2) + b1 * _J
    out[2:, 2:] = a2 * np.eye(2) + b2 * _J
    return out


def rotation_operator():
    """Normal but not symmetric: two rotation blocks, complex eigenbasis."""
    return dl.SpatialOperator(_rotation_blocks(-0.3, 2.0, -0.7, 0.9))


def _scaled_laplacian(n):
    # h^2 L: eigenvalues in (-4, 0), so polynomials in it stay of order one
    return dl.laplacian_dirichlet_1d(n).matrix / (n + 1) ** 2


def delayed_diffusion(n=15):
    """u' = L u + 0.5 L u(t - 1): the delay term commutes with L."""
    A = dl.laplacian_dirichlet_1d(n)
    return dl.SystemModel(A, dl.single_delay(0.5 * A.matrix, -1.0))


def rotation_commuting_delays():
    """Two delays in the algebra of the rotation blocks: complex per-mode weights."""
    mats = np.stack([_rotation_blocks(0.4, 0.5, -0.2, 0.1), _rotation_blocks(-0.3, 0.2, 0.6, -0.4)])
    return dl.SystemModel(rotation_operator(), dl.DiscreteDelays(mats, np.array([-1.0, -0.37])))


def commuting_density(n=7):
    """Density kernel cos(3 sigma) (0.5 I + 2 h^2 L) on 17 nodes, nodes off the step grid."""
    sigma = -1.0 + np.arange(17) / 16
    b = 0.5 * np.eye(n) + 2.0 * _scaled_laplacian(n)
    return dl.SystemModel(dl.laplacian_dirichlet_1d(n), dl.DensityKernel(np.cos(3.0 * sigma)[:, None, None] * b))


def commuting_atom_at_zero(n=7):
    """A point mass at sigma = 0 and one at -0.6, both polynomials in L."""
    s = _scaled_laplacian(n)
    mats = np.stack([-0.5 * np.eye(n) + 0.3 * s, 0.2 * s @ s - 0.4 * s])
    return dl.SystemModel(dl.laplacian_dirichlet_1d(n), dl.DiscreteDelays(mats, np.array([0.0, -0.6])))


def nearly_commuting_diffusion(n=15):
    """Delayed diffusion plus a 1e-6 non-commuting part: it stays coupled."""
    A = dl.laplacian_dirichlet_1d(n)
    noise = 1e-6 * np.random.default_rng(18).standard_normal((n, n))
    return dl.SystemModel(A, dl.single_delay(0.5 * A.matrix + noise, -1.0))


def swap_on_identity():
    """A = -I with a swap weight: diagonal in some eigenbasis of A, but not
    in the one ``_eigen`` keeps, so it stays coupled."""
    return dl.SystemModel(dl.SpatialOperator(-np.eye(2)), dl.single_delay(np.array([[0.0, 0.6], [0.6, 0.0]]), -1.0))


#: name -> builder of the models that split without scalar weights
SPLIT_MODELS = {
    "delayed_diffusion": delayed_diffusion,
    "rotation_commuting_delays": rotation_commuting_delays,
    "commuting_density": commuting_density,
    "commuting_atom_at_zero": commuting_atom_at_zero,
}

#: name -> builder of the models that stay coupled
COUPLED_MODELS = {
    "nearly_commuting_diffusion": nearly_commuting_diffusion,
    "swap_on_identity": swap_on_identity,
}
