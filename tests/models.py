"""The named models of the test suite, each built by one zero-argument builder.

``ZOO`` maps a name to its builder and tags.  ``select(*tags)`` returns
{name: builder} of the entries that carry every tag and none of those given
as ``-tag``, in name order; ``named(*names)`` returns the named entries.
Tests loop over these and keep their run inputs (dt, horizon, m, seed).
``test_models.py`` checks every tag against the code:

- ``scalar`` (every weight a multiple of Id), ``split`` (one weight per mode of A) or
  ``coupled`` (``decoupled`` is None); ``commuting``: matrix weights that commute with A;
- ``cantor``, ``density``, ``discrete``; ``no_delay``: no weighted atom; ``atom0``: a point
  mass at sigma = 0; ``sub_step``: one inside the first default step, (-2^-10, 0);
- ``non_normal``: ``A.modes()`` is None; ``defective``: A keeps no eigenbasis;
- ``modal`` or ``matrix``: the basis that ``solve_steps`` logs; ``blows_up`` by t = 10;
- ``shipped``: the model of ``scenarios/<name>.json``; ``frontier``: atoms at the
  frontier of the step that the name ends in; ``functional``: a functional on its own,
  returned only when asked for.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

import delaylab as dl

L = dl.laplacian_dirichlet_1d
Model = dl.SystemModel
Entry = NamedTuple("Entry", [("build", Callable), ("tags", frozenset)])


def _op(a):
    return dl.SpatialOperator(np.array(a))


def _h2_laplacian(n):
    # h^2 L: eigenvalues in (-4, 0), so polynomials in it stay of order one
    return L(n).matrix / (n + 1) ** 2


#: J with J^2 = -I: a I + b J commutes with every 2 x 2 rotation block.
_J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _rotation_blocks(a1, b1, a2, b2):
    out = np.zeros((4, 4))
    out[:2, :2] = a1 * np.eye(2) + b1 * _J
    out[2:, 2:] = a2 * np.eye(2) + b2 * _J
    return out


_R373 = np.array([[-0.01, 3.73], [-3.73, -0.01]])


def _double_pair():
    q = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))[0]
    return q @ np.kron(np.eye(2), _R373) @ q.T


def rotation_operator():
    """Normal but not symmetric: two rotation blocks, complex eigenbasis."""
    return dl.SpatialOperator(_rotation_blocks(-0.3, 2.0, -0.7, 0.9))


#: a non-normal 2 x 2 operator, and a weight that commutes neither with it nor with its transpose
_NN2, _B = [[-0.5, 0.3], [0.2, -0.8]], np.array([[0.4, -0.6], [0.3, 0.2]])
#: B and a weight that does not commute with it
_TWO_WEIGHTS = np.array([[[0.4, -0.6], [0.3, 0.2]], [[0.2, 0.15], [-0.3, 0.1]]])
_SIGMA41 = -1.0 + np.arange(41) / 40


def _nn2(phi, p=2.0):
    return Model(_op(_NN2), phi, p)


def _empty():
    return dl.DiscreteDelays(np.zeros((0, 0, 0)), np.zeros(0))


def _density41():
    """A 2 x 2 kernel on its own m = 40 grid: read from m = 64 histories, its nodes fall between theirs."""
    return dl.DensityKernel(np.array([[[np.cos(3.0 * s), 0.2], [-0.4 * s, 0.3]] for s in _SIGMA41]))


def _advection_diffusion(n=15, v=20.0):
    # central-difference drift on the Dirichlet Laplacian: non-normal, with
    # an eig basis of condition number about 3.1e4 at n = 15, v = 20
    h = 1.0 / (n + 1)
    drift = (np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1)) / (2.0 * h)
    return dl.SpatialOperator(L(n).matrix + v * drift)


def _rd(n, c_over_lam1):
    return dl.reaction_diffusion_scenario(n, c_over_lam1 * abs(dl.dirichlet_lambda1(n)))


def _seed7():
    """The draws of seed 7 in order: two 3 x 3 weights, a 3 x 3 operator and a 2 x 2 density weight."""
    rng = np.random.default_rng(7)
    b1, b2 = rng.standard_normal((3, 3)) * 0.3, rng.standard_normal((3, 3)) * 0.2
    return b1, b2, rng.standard_normal((3, 3)) * 0.4 - np.eye(3), 0.3 * rng.standard_normal((2, 2))


def _frontier(basis, offsets):
    """One point mass per offset, with weights that step in ``basis``:
    scalars shared by the modes, polynomials in A (one weight per mode), or
    matrices that couple the components."""
    c = 0.5 * np.cos(np.arange(1.0, len(offsets) + 1.0))
    if basis == "modal":
        A, mats = dl.diagonal_operator([-1.0, -2.5, 0.3]), c[:, None, None] * np.eye(3)
    elif basis == "per_mode":
        A = L(5)
        mats = c[:, None, None] * np.eye(5) + (0.3 + c)[:, None, None] * A.matrix / 36.0
    else:
        A, mats = _op(_NN2), c[:, None, None] * _B + (1.0 - c)[:, None, None] * _B.T
    return Model(A, dl.DiscreteDelays(mats, np.array(offsets)))


#: offsets as functions of dt at the split between atoms whose end-of-step
#: read is the stage-0 read one node later and frontier atoms, whose read
#: extrapolates: an atom within one step of the frontier, atoms 1e-12 either
#: side of that step's edge and of a grid node, and a point mass at 0 (folded
#: into A) next to a sub-step atom; then the tags of each
_FRONTIER_OFFSETS = {
    "sub_step": (lambda dt: [-dt / 3.0, -0.6], "sub_step"),
    "one_step_noise": (lambda dt: [-dt + 1e-12, -dt - 1e-12, -0.45], ""),
    "grid_node_noise": (lambda dt: [-300.0 * dt + 1e-12, -300.0 * dt - 1e-12, -0.45], ""),
    "folded_zero_and_sub_step": (lambda dt: [0.0, -dt / 3.0, -0.8], "atom0 sub_step"),
}
_FRONTIER_BASES = {"modal": "scalar modal", "per_mode": "split commuting modal", "matrix": "coupled non_normal matrix"}

_BUILDERS: dict[str, tuple[Callable, str]] = {
    # the shipped scenarios
    "scalar_single_delay": (lambda: dl.scalar_dde(0.0, -1.0), "shipped scalar discrete modal"),
    "reaction_diffusion_cantor": (lambda: dl.reaction_diffusion_scenario(15, 4.918968), "shipped scalar cantor modal"),
    # the n = 15 model at c = 4.9, c = 4.918968 (shipped) and c = |lambda_1| / 2 = 4.918968216773005
    "rd15_c4.9": (lambda: dl.reaction_diffusion_scenario(15, 4.9), "scalar cantor modal"),
    "rd15_c0.5lam1": (lambda: _rd(15, 0.5), "scalar cantor modal"),
    "rd64_c0.5lam1": (lambda: _rd(64, 0.5), "scalar cantor modal"),
    "rd8_c0.3lam1": (lambda: _rd(8, 0.3), "scalar cantor modal"),
    "rd9_c0.5lam1": (lambda: _rd(9, 0.5), "scalar cantor modal"),
    "rd7_c0.9": (lambda: Model(L(7), dl.CantorKernel(0.9), 2.0), "scalar cantor modal"),
    **{f"rd{n}_c0": (lambda n=n: dl.reaction_diffusion_scenario(n, 0.0), "scalar cantor no_delay modal") for n in (1, 2, 15, 31, 63, 127)},
    # the n = 31 Laplacian built from its entries alone, without tags
    "untagged31_cantor": (lambda: Model(dl.SpatialOperator(L(31).matrix), dl.CantorKernel(1.0)), "scalar cantor modal"),
    # weights that commute with A, one per mode
    "delayed_diffusion": (lambda: Model(L(15), dl.single_delay(0.5 * L(15).matrix, -1.0)), "split commuting discrete modal"),
    "rotation_commuting_delays": (lambda: Model(rotation_operator(), dl.DiscreteDelays(np.stack(
        [_rotation_blocks(0.4, 0.5, -0.2, 0.1), _rotation_blocks(-0.3, 0.2, 0.6, -0.4)]), np.array([-1.0, -0.37]))),
        "split commuting discrete modal"),
    "commuting_density": (lambda: Model(L(7), dl.DensityKernel(
        np.cos(3.0 * (-1.0 + np.arange(17) / 16))[:, None, None] * (0.5 * np.eye(7) + 2.0 * _h2_laplacian(7)))),
        "split commuting density modal"),
    "commuting_atom_at_zero": (lambda: Model(L(7), dl.DiscreteDelays(np.stack([
        -0.5 * np.eye(7) + 0.3 * _h2_laplacian(7), 0.2 * _h2_laplacian(7) @ _h2_laplacian(7) - 0.4 * _h2_laplacian(7)
    ]), np.array([0.0, -0.6]))), "split commuting discrete atom0 modal"),
    # weights that commute with A and still couple: a 1e-6 non-commuting part, or
    # A = -I, whose eigenbasis (the one ``_eigen`` keeps) does not diagonalise a swap
    "nearly_commuting_diffusion": (lambda: Model(L(15), dl.single_delay(
        0.5 * L(15).matrix + 1e-6 * np.random.default_rng(18).standard_normal((15, 15)), -1.0)), "coupled commuting discrete matrix"),
    "swap_on_identity": (lambda: Model(_op(-np.eye(2)), dl.single_delay(np.array([[0.0, 0.6], [0.6, 0.0]]), -1.0)),
                         "coupled commuting discrete matrix"),
    # scalar weights stored as matrices
    "scaled_identity": (lambda: Model(L(7), dl.single_delay(0.9 * np.eye(7), -1.0), 2.0), "scalar discrete modal"),
    "density_on_identity": (lambda: Model(L(7), dl.DensityKernel(np.cos(3.0 * (-1.0 + np.arange(17) / 16))[:, None, None] * np.eye(7))),
                            "scalar density modal"),
    "rotation2_identity_delay": (lambda: Model(_op([[-0.3, 2.0], [-2.0, -0.3]]), dl.single_delay(0.7 * np.eye(2), -0.4), 2.0),
                                 "scalar discrete modal"),
    "diagonal2_identity_delay": (lambda: Model(dl.diagonal_operator([-1.0, -2.0]), dl.single_delay(0.3 * np.eye(2), -1.0)),
                                 "scalar discrete modal"),
    "diagonal_1_3_identity_delay": (lambda: Model(dl.diagonal_operator([-1.0, -3.0]), dl.single_delay(0.25 * np.eye(2), -1.0), 2.0),
                                    "scalar discrete modal"),
    # normal and non-normal operators under a Cantor kernel
    "rotation_cantor": (lambda: Model(rotation_operator(), dl.CantorKernel(0.8)), "scalar cantor modal"),
    "triangular3_cantor": (lambda: Model(_op([[-1.0, 2.0, -0.5], [0.0, -2.0, 3.0], [0.0, 0.0, -0.5]]), dl.CantorKernel(0.7), 2.0),
                           "scalar cantor non_normal modal"),
    "non_normal3_cantor": (lambda: Model(_op([[-1.0, 2.0, 0.0], [0.0, -0.5, 1.0], [0.0, 0.0, -2.0]]), dl.CantorKernel(0.6)),
                           "scalar cantor non_normal modal"),
    "advection_cantor": (lambda: Model(_advection_diffusion(), dl.CantorKernel(50.0)), "scalar cantor non_normal modal"),
    "jordan_cantor": (lambda: Model(_op([[-1.0, 1.0], [0.0, -1.0]]), dl.CantorKernel(0.5), 2.0), "scalar cantor non_normal defective matrix"),
    "scalar_-2_cantor0.5": (lambda: Model(dl.scalar_operator(-2.0), dl.CantorKernel(0.5), 2.0), "scalar cantor modal"),
    "scalar_-1_cantor0.8": (lambda: Model(dl.scalar_operator(-1.0), dl.CantorKernel(0.8), 2.0), "scalar cantor modal"),
    "scalar_-0.3_cantor0.8": (lambda: Model(_op([[-0.3]]), dl.CantorKernel(0.8)), "scalar cantor modal"),
    "jordan_cantor0.8": (lambda: Model(_op([[-1.0, 1.0], [0.0, -1.0]]), dl.CantorKernel(0.8)), "scalar cantor non_normal defective matrix"),
    # normal: eigenvalues between the samples of the frequency grid, and the pair -0.01 +- 3.73i once and twice
    "rotation_between_samples": (lambda: Model(dl.SpatialOperator(_rotation_blocks(-0.3, 2.03, -0.7, 0.93)), dl.CantorKernel(0.1)),
                                 "scalar cantor modal"),
    "rotation373_delay": (lambda: Model(_op(_R373), dl.single_delay(-0.015 * np.eye(2), -1.0)), "scalar discrete modal"),
    # Q kron(I_2, R) Q^T with Q a random orthogonal matrix: eig's basis of the double eigenspaces is not orthonormal
    "double_pair_delay": (lambda: Model(dl.SpatialOperator(_double_pair()), dl.single_delay(-0.015 * np.eye(4), -1.0)),
                          "scalar discrete modal"),
    # one dimension, and no delay
    "scalar_-0.3_-0.8": (lambda: dl.scalar_dde(-0.3, -0.8), "scalar discrete modal"),
    "scalar_-0.6_0.8": (lambda: dl.scalar_dde(-0.6, 0.8), "scalar discrete modal"),
    "scalar_-1_0.3": (lambda: dl.scalar_dde(-1.0, 0.3), "scalar discrete modal"),
    "scalar_short_lag": (lambda: Model(dl.scalar_operator(-0.3), dl.single_delay(np.array([[-0.8]]), -0.0123)), "scalar discrete modal"),
    "ode_-0.5": (lambda: Model(dl.scalar_operator(-0.5), _empty(), 2.0), "scalar discrete no_delay modal"),
    "diagonal3_no_delay": (lambda: Model(dl.diagonal_operator([-1.0, -2.5, 0.3]), _empty()), "scalar discrete no_delay modal"),
    # the non-normal 2 x 2 operator with weights that couple
    "nn2_delay_0.3": (lambda: _nn2(dl.single_delay(_B, -0.3)), "coupled discrete non_normal matrix"),
    "nn2_delay_0.3337": (lambda: _nn2(dl.single_delay(_B, -0.3337)), "coupled discrete non_normal matrix"),
    "nn2_delay_2e-3": (lambda: _nn2(dl.single_delay(_B, -2e-3)), "coupled discrete non_normal matrix"),
    "nn2_sub_step": (lambda: _nn2(dl.single_delay(_B, -1e-3 / 3)), "coupled discrete non_normal sub_step matrix"),
    "nn2_atom_at_zero": (lambda: _nn2(dl.DiscreteDelays(np.stack([_B, 0.5 * _B.T]), np.array([0.0, -1.0]))),
                         "coupled discrete non_normal atom0 matrix"),
    "nn2_two_delays": (lambda: _nn2(dl.DiscreteDelays(np.stack([_B, 0.5 * _B.T]), np.array([-0.0237, -0.61]))),
                       "coupled discrete non_normal matrix"),
    "nn2_two_weights": (lambda: _nn2(dl.DiscreteDelays(_TWO_WEIGHTS, np.array([-0.31, -1.0]))), "coupled discrete non_normal matrix"),
    # K(sigma) commutes neither with A nor with K at other nodes
    "nn2_density": (lambda: _nn2(dl.DensityKernel(np.array([[[0.5 * np.cos(3.0 * s), 0.2], [-0.4 * s, 0.3 * np.sin(2.0 * s)]]
                                                           for s in _SIGMA41]))), "coupled density non_normal matrix"),
    "nn2_density41_p1": (lambda: _nn2(_density41(), 1.0), "coupled density non_normal matrix"),
    "nn2_cantor_p3": (lambda: _nn2(dl.CantorKernel(0.9), 3.0), "scalar cantor non_normal modal"),
    # other coupled models
    "coupled_delays": (lambda: Model(_op([[-1.0, 0.5], [0.2, -2.0]]), dl.DiscreteDelays(
        np.array([[[0.0, 0.6], [0.0, 0.0]], [[0.0, 0.0], [-0.4, 0.3]]]), np.array([-1.0, -0.3337])), 2.0),
        "coupled discrete non_normal matrix"),
    "coupled_density": (lambda: Model(_op([[-1.0, 0.5], [0.2, -2.0]]), dl.DensityKernel(
        np.cos(2.0 * (-1.0 + np.arange(9) / 8))[:, None, None] * np.array([[0.4, -0.3], [0.2, 0.1]])
        + (-1.0 + np.arange(9) / 8)[:, None, None] * np.array([[0.0, 0.5], [0.0, -0.2]])), 2.0), "coupled density non_normal matrix"),
    # the coupled 2 x 2 model of the CI smoke run: a sub-step delay and one at -0.6
    "coupled_sub_step": (lambda: Model(_op([[-1.0, 2.0], [-0.5, -0.3]]), dl.DiscreteDelays(
        np.array([[[0.4, -0.2], [0.1, 0.3]], [[-0.5, 0.0], [0.2, -0.1]]]), np.array([-0.0003, -0.6]))),
        "coupled discrete non_normal sub_step matrix"),
    "random3_delays": (lambda: Model(dl.SpatialOperator(_seed7()[2]), dl.DiscreteDelays(np.stack(_seed7()[:2]), np.array([-1.0, -0.37])), 2.0),
                       "coupled discrete non_normal matrix"),
    "diagonal2_random_density": (lambda: Model(_op(np.diag([-1.0, -2.0])), dl.DensityKernel(
        np.exp(-1.0 + np.arange(65) / 64)[:, None, None] * _seed7()[3]), 2.0), "coupled density matrix"),
    # models that blow up; rd15_c40 is the n = 15 scenario at c = 40, rightmost root +3.49
    "ode_40": (lambda: Model(dl.scalar_operator(40.0), _empty(), 2.0), "scalar discrete no_delay modal blows_up"),
    "scalar_30_2": (lambda: dl.scalar_dde(30.0, 2.0), "scalar discrete modal blows_up"),
    **{f"{name}_cantor3": (lambda a=a: Model(_op(a), dl.CantorKernel(3.0)), f"scalar cantor{tag} modal blows_up") for name, a, tag in (
        ("diagonal_2_9", np.diag([2.0, 9.0]), ""), ("diagonal_2_40", np.diag([2.0, 40.0]), ""), ("diagonal_2_8", np.diag([2.0, 8.0]), ""),
        ("triangular_2_5_9", [[2.0, 5.0], [0.0, 9.0]], " non_normal"),
    )},
    "rd15_c40": (lambda: dl.reaction_diffusion_scenario(15, 40.0), "scalar cantor modal blows_up"),
    # atoms at the frontier of the step grid, for each step and basis
    **{f"frontier_{case}_{basis}_dt{label}": (
        lambda offsets=offsets, basis=basis, dt=dt: _frontier(basis, offsets(dt)),
        f"frontier discrete {tags} {_FRONTIER_BASES[basis]}" + (" sub_step" if (case, label) == ("one_step_noise", "2^-10") else ""),
    ) for case, (offsets, tags) in _FRONTIER_OFFSETS.items() for basis in _FRONTIER_BASES
        for label, dt in (("1e-3", 1e-3), ("2^-10", 2.0**-10))},
    # functionals used on their own
    "empty": (_empty, "functional discrete no_delay"),
    "two_weights_at_zero": (lambda: dl.DiscreteDelays(_TWO_WEIGHTS, np.array([-0.3337, 0.0])), "functional discrete atom0"),
    "cantor_0.7": (lambda: dl.CantorKernel(0.7), "functional cantor"),
    "density41": (_density41, "functional density"),
}

#: the lam at which the Cantor transform is checked against recursive subdivision
CANTOR_POINTS = [0.0, 1.0, -1.0, 2.0, -2.0, 3.0j, 1.0 + 5.0j]


def cantor_accuracy_sets():
    """Arguments of the Cantor product's accuracy checks: a sample of the seed
    grid of ``stability`` at alpha = 0, the imaginary axis, the real axis
    and a disk of radius 700."""
    rng = np.random.default_rng(14)
    seeds = np.linspace(-12.0, 5.0, 171)[:, None] + 1j * np.linspace(-20.0, 20.0, 401)[None, :]
    radius, angle = 700.0 * np.sqrt(rng.uniform(0.0, 1.0, 200)), rng.uniform(0.0, 2.0 * np.pi, 200)
    return {
        "stability_seeds": rng.choice(seeds.ravel(), 200, replace=False),
        "imaginary_axis": 1j * np.linspace(-50.0, 50.0, 201),
        "real_axis": np.linspace(-60.0, 5.0, 131).astype(complex),
        "disk_700": radius * np.exp(1j * angle),
    }


ZOO: dict[str, Entry] = {name: Entry(build, frozenset(tags.split())) for name, (build, tags) in sorted(_BUILDERS.items())}


def named(*names: str) -> dict[str, Callable]:
    """{name: builder} of the named entries, in name order."""
    return {name: ZOO[name].build for name in sorted(names)}


def select(*tags: str) -> dict[str, Callable]:
    """{name: builder} of the entries that carry every tag and none of the
    ``-`` prefixed ones, in name order; functionals only when asked for."""
    want = {t for t in tags if not t.startswith("-")}
    drop = {t[1:] for t in tags if t.startswith("-")} | ({"functional"} - want)
    return {name: e.build for name, e in ZOO.items() if want <= e.tags and not drop & e.tags}
