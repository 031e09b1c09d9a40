"""No value depends on its batch (``BATCH_RUNS``), nor on whether its lam came
in a grid or in a list, alone or among others (``GRID_RUNS``): one table of
runs per rule, each read by one test body."""

import functools
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import delaylab as dl
from delaylab import history, scenario_io, spectral
from delaylab.functional import _cantor_product, _symbol
from delaylab.spectral import _log_det, _newton_polish
from reference_loops import reference_cantor_derivative, reference_cantor_transform
from models import ZOO, cantor_accuracy_sets, named, select

#: the models whose weights commute with A, and one model of each other log det
#: path: a matrix symbol (non-commuting 2 x 2 delays), scalar symbols stored as
#: matrices and the Cantor product
BATCH = sorted({**select("commuting", "-frontier"), **named("coupled_delays", "scaled_identity", "density_on_identity", "rd15_c4.9")})
#: ``history._BATCH_ENTRIES``: one item per batch, and every item in one
SIZES = (1, 10**9)
#: the shipped one, for the grid rows checked at it alone
SHIPPED = (history._BATCH_ENTRIES,)
_rng = np.random.default_rng(26)
#: the lam of the Cantor product's rows.  600 lam: 0, 1e-9, moduli near 1
#: (where the level counts step) and up to 3e3 (past overflow on the left), in
#: every direction; 542 of them moved with the largest |lam| of their array
#: while it set the counts.  40 lam of the seed grid of ``stability`` at alpha
#: = 0, and the 200 lam of a disk of radius 700.
CANTOR_SETS = {"600_lams": np.concatenate([[0.0, 1e-9], _rng.uniform(0.9, 1.1, 98), 10.0 ** _rng.uniform(-3.0, np.log10(3e3), 500)])
               * np.exp(1j * _rng.uniform(0.0, 2.0 * np.pi, 600)), "stability_seeds": cantor_accuracy_sets()["stability_seeds"][:40],
               "disk_700": cantor_accuracy_sets()["disk_700"]}
CANTOR_SETS["600_real_parts"] = CANTOR_SETS["600_lams"].real


def _bytes(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


@functools.cache
def trajectory(name, p=None, seed=27, horizon=4.0):
    """The zoo model at p (its own by default) from the state of the seed, to the horizon."""
    model = ZOO[name].build()
    p = p or model.p
    return dl.solve_steps(dl.SystemModel(model.A, model.phi, p), dl.random_compatible_state(model.n, 64, p, np.random.default_rng(seed)), horizon)


def log_det(name, derivative=True):
    # the split paths (the Cantor product, a scalar symbol, per-mode weights) and the slogdet path
    model, rng = ZOO[name].build(), np.random.default_rng(24)
    lams = rng.uniform(-4.0, 2.0, 900) + 1j * rng.uniform(-30.0, 30.0, 900)
    return _bytes(*_log_det(model, lams.real, lams.imag, derivative=derivative)[: 1 + derivative])


def log_det_without_derivative(name):
    return log_det(name, derivative=False)


def find_roots(name):
    # the wide box holds roots of every model but the two delayed diffusions,
    # whose search misses there the roots the small box finds
    reports = [dl.find_roots(ZOO[name].build(), dl.Region(*box), spacing).to_dict() for box, spacing in (((-3.0, 1.0, 4.0), 0.1), ((-12.0, 1.0, 6.0), 0.2))]
    assert any(report["roots"] for report in reports)
    return repr(reports).encode()


def resolvent_singular_values(name):
    op, lams = ZOO[name].build().A, np.linspace(-3.0, 2.0, 300) + 1j * np.linspace(0.0, 9.0, 300)
    return _bytes(op._singular_values(lams, lambda z: z[:, None, None] * np.eye(op.n) - op.matrix, -1))


def expm_singular_values(name):
    op = ZOO[name].build().A
    return _bytes(op._singular_values(np.linspace(0.0, 1.0, 200), op.expm, 0))


def write_table(name):
    traj = trajectory(name)
    with tempfile.TemporaryDirectory() as tmp:
        scenario_io.write_table(Path(tmp) / "t.csv", ["t"] + [f"u{i}" for i in range(traj.n)], np.column_stack((traj.times, traj.values))[::8])
        return (Path(tmp) / "t.csv").read_bytes()


def triangular7():
    # a non-normal A: one SVD per lam and per t, 700 and 600 of them
    return dl.SpatialOperator(np.triu(np.random.default_rng(8).standard_normal((7, 7))))


#: (evaluator, input, zero-argument call that returns the evaluator's output
#: as bytes, batch sizes beside SIZES) of the runs whose output must not
#: depend on the batch: read at the shipped size once per row, then at each size
BATCH_RUNS = [
    *[(f.__name__, name, functools.partial(f, name), ()) for f in (log_det, log_det_without_derivative, find_roots, resolvent_singular_values,
                                                                   expm_singular_values, write_table) for name in BATCH],
    *[("decay_rate", name, lambda name=name: repr(dl.decay_rate(trajectory(name), (2.0, 4.0))).encode(), ()) for name in BATCH],
    # one sampled segment per batch, or all 201 in one
    *[("decay_rate", f"rd15_p{p:g}", lambda p=p: repr(dl.decay_rate(trajectory("reaction_diffusion_cantor", p, 23, 6.0), (3.0, 6.0))).encode(), ())
      for p in (1.5, 2.0, 3.0)],
    *[("miyadera_estimate", name, lambda name=name: _bytes(*dl.miyadera_estimate(ZOO[name].build(), [0.1, 0.25], samples=20, seed=3)), ())
      for name in BATCH],
    # and 7 states per chunk
    *[("miyadera_estimate", f"{name}_t0.25", lambda name=name: repr(dl.miyadera_estimate(ZOO[name].build(), 0.25, samples=20, seed=3)).encode(),
       (7 * 65 * ZOO[name].build().n,)) for name in ("rd7_c0.9", "nn2_two_weights")],
    ("min_singular", "triangular7", lambda: _bytes(triangular7().min_singular(np.linspace(-3.0, 2.0, 700) + 1j * np.linspace(0.0, 9.0, 700))), ()),
    ("expm_norm", "triangular7", lambda: _bytes(triangular7().expm_norm(np.linspace(0.0, 1.0, 600))), ()),
    ("_cantor_product", "600_lams", lambda: _bytes(*cantor("600_lams", "list")), ()),
]


@functools.cache
def shipped_output(row):
    """The output of ``BATCH_RUNS[row]`` at the shipped batch size, read once per row."""
    assert history._BATCH_ENTRIES == SHIPPED[0]
    return BATCH_RUNS[row][2]()


@pytest.mark.parametrize("row,size", [(i, size) for i, r in enumerate(BATCH_RUNS) for size in SIZES + r[3]],
                         ids=[f"{r[0]}-{r[1]}-{size}" for r in BATCH_RUNS for size in SIZES + r[3]])
def test_no_value_depends_on_its_batch(row, size, monkeypatch):
    want = shipped_output(row)
    monkeypatch.setattr(history, "_BATCH_ENTRIES", size)
    assert BATCH_RUNS[row][2]() == want


def each(f, points):
    """f of each point on its own, joined into the arrays that f returns on all of them."""
    return [np.concatenate([np.ravel(x) for x in parts]) for parts in zip(*map(f, points))]


def grid_or_list(arrangement):
    """A grid of real and imaginary parts, or the same lam as a list.  2501 lam:
    the per-mode arrays of the n = 15 models pass 256 KiB, from which numpy
    computes a product with a temporary factor in place."""
    re, im = np.linspace(-4.0, 2.0, 41)[:, None], np.linspace(0.0, 30.0, 61)[None, :]
    return (re, im) if arrangement == "grid" else tuple(part.ravel() for part in np.broadcast_arrays(re, im))


def log_det_grid(name, arrangement):
    """log det with and without D over ``grid_or_list``."""
    model, (re, im) = ZOO[name].build(), grid_or_list(arrangement)
    values = [*_log_det(model, re, im), _log_det(model, re, im, derivative=False)[0]]
    assert all(v.shape == np.broadcast(re, im).shape for v in values)
    return [np.ravel(v) for v in values]


def symbol_grid(name, arrangement, m=None):
    """T and T' of ``_symbol`` on m nodes (off the grid by default) over
    ``grid_or_list``; the grid's T read without T' stands against the list's T."""
    phi, (re, im) = ZOO[name].build().phi, grid_or_list(arrangement)
    t, tp = _symbol(phi, re, im, m, True)
    return [np.ravel(v) for v in (t, tp, t if arrangement == "list" else _symbol(phi, re, im, m)[0])]


def newton_polish(name, arrangement):
    """Roots and residuals of every tenth of 51 seeds, polished among the others or alone."""
    polish, rng = functools.partial(_newton_polish, ZOO[name].build()), np.random.default_rng(26)
    seeds = rng.uniform(-3.0, 1.0, 51) + 1j * rng.uniform(0.0, 8.0, 51)
    return each(polish, seeds[::10, None]) if arrangement == "alone" else [part[::10] for part in polish(seeds)]


def miyadera_windows(name, arrangement):
    """q_emp and q_bound at three windows t0: one call per t0, or one on the
    grid of them, which draws its 30 states once."""
    estimate = functools.partial(dl.miyadera_estimate, ZOO[name].build(), samples=30, seed=5)
    if arrangement == "scalars":
        return each(estimate, [0.1, 0.25, 0.5])
    with mock.patch.object(spectral, "_random_compatible_states", wraps=spectral._random_compatible_states) as draw:
        both = estimate([0.1, 0.25, 0.5])
    assert [call.args[0] for call in draw.call_args_list] == [30] and all(q.shape == (3,) for q in both)
    return list(both)


def cantor_values(z):
    """g^ and g^' of every lam of z; the transform, read without g^', is g^."""
    with np.errstate(over="ignore", invalid="ignore"):
        value, slope = _cantor_product(np.real(z), np.imag(z), True)
        np.testing.assert_array_equal(dl.cantor_transform(z), value)
    return [value, slope]


def cantor(name, arrangement):
    """``cantor_values`` of a Cantor set: as an array, in an array that ends in
    700i, each lam in an array of one or as a scalar (a real one takes numpy's
    scalar arithmetic, exact on the real axis), or on the diagonal of the grid
    of their real and imaginary parts."""
    lams = CANTOR_SETS[name]
    if arrangement == "grid diagonal":
        with np.errstate(over="ignore", invalid="ignore"):
            return [np.diagonal(part) for part in _cantor_product(lams.real[:, None], lams.imag[None, :], True)]
    if arrangement == "before 700i":
        return [part[:-1] for part in cantor_values(np.append(lams, 700.0j))]
    if arrangement == "list":
        return cantor_values(lams)
    return each(cantor_values, lams[:, None] if arrangement == "alone" else lams)


def cantor_in_units(name, arrangement):
    """``cantor`` in units of g^(Re lam) and |g^'(Re lam)|, which bound |g^| and |g^'|."""
    re = CANTOR_SETS[name].real
    return [v / np.abs(f(re)) for v, f in zip(cantor(name, arrangement), (reference_cantor_transform, reference_cantor_derivative), strict=True)]


#: (label, call of an input and an arrangement that returns a list of arrays,
#: input, batch sizes, bound, arrangements) of the runs whose value of a lam
#: must not depend on whether it came in a grid or a list, alone or among
#: others: at each batch size, every arrangement gives the first one's values
#: within the bound
GRID_RUNS = [
    *[("log_det", log_det_grid, name, SIZES, 0.0, ("grid", "list")) for name in BATCH],
    *[(f"_symbol_m{m}", functools.partial(symbol_grid, m=m), name, SIZES, 0.0, ("grid", "list")) for m in (None, 64) for name in BATCH],
    *[("newton_polish", newton_polish, name, SHIPPED, 0.0, ("among others", "alone")) for name in BATCH],
    *[("miyadera_windows", miyadera_windows, name, SHIPPED, 0.0, ("grid", "scalars"))
      for name in ("reaction_diffusion_cantor", "nn2_two_weights", "jordan_cantor")],
    ("cantor", cantor, "600_lams", SIZES, 0.0, ("list", "alone", "scalar", "grid diagonal")),
    ("cantor", cantor, "600_real_parts", SIZES, 0.0, ("list", "scalar")),
    ("cantor", cantor, "disk_700", SHIPPED, 0.0, ("list", "scalar")),
    ("cantor_in_units", cantor_in_units, "stability_seeds", SHIPPED, 1e-14, ("scalar", "before 700i")),
]
GRID_IDS = [(i, size, arrangement) for i, r in enumerate(GRID_RUNS) for size in r[3] for arrangement in r[5][1:]]


@functools.cache
def first_arrangement(row, size):
    """The values of ``GRID_RUNS[row]`` in its first arrangement at the batch size, read once per size."""
    assert history._BATCH_ENTRIES == size
    _, f, input, _, _, arrangements = GRID_RUNS[row]
    return f(input, arrangements[0])


@pytest.mark.parametrize("row,size,arrangement", GRID_IDS, ids=[f"{GRID_RUNS[i][0]}-{GRID_RUNS[i][2]}-{size}-{a}" for i, size, a in GRID_IDS])
def test_a_value_is_the_same_in_every_arrangement(row, size, arrangement, monkeypatch):
    _, f, input, _, bound, _ = GRID_RUNS[row]
    monkeypatch.setattr(history, "_BATCH_ENTRIES", size)
    for g, w in zip(f(input, arrangement), first_arrangement(row, size), strict=True):
        assert np.array_equal(g, w, equal_nan=True) or np.abs(g - w).max() <= bound
