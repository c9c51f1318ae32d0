"""Measurement model: regressor families, symmetric noise, sample generation."""

import re

import numpy as np
import pytest

from spsnet.model import (
    FieldConfig,
    NoiseSpec,
    Samples,
    generate_measurements,
    regressors,
)
from spsnet.rng import substream


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(kind="cauchy")
    with pytest.raises(ValueError):
        NoiseSpec(scale=-0.1)
    with pytest.raises(ValueError):
        NoiseSpec(scale=float("nan"))


def test_noise_zero_scale_is_noiseless():
    for kind in ("gaussian", "uniform", "laplace", "two-point"):
        w = NoiseSpec(kind=kind, scale=0.0).sample(substream(1, kind), 100)
        assert np.all(w == 0.0)


def test_two_point_noise_support():
    w = NoiseSpec(kind="two-point", scale=0.3).sample(substream(5, "tp"), 2000)
    assert set(np.unique(w)) == {-0.3, 0.3}
    assert abs(np.mean(w > 0) - 0.5) < 0.05


def test_uniform_noise_bounded():
    w = NoiseSpec(kind="uniform", scale=0.7).sample(substream(5, "u"), 2000)
    assert np.all(np.abs(w) <= 0.7)


def test_noise_is_symmetric_about_zero():
    # only symmetry matters for coverage, so pin it for every family
    for kind in ("gaussian", "uniform", "laplace", "two-point"):
        w = NoiseSpec(kind=kind, scale=0.5).sample(substream(9, "sym", kind), 20000)
        assert abs(np.mean(w > 0) - np.mean(w < 0)) < 0.02, kind


def test_polynomial_basis_order():
    # graded monomials: 1, x1, x2, x1^2, x1*x2, x2^2
    cfg = FieldConfig(n_p=6, p_true=np.zeros(6))
    phi = regressors([[2.0, 3.0]], cfg)
    assert np.allclose(phi, [[1.0, 2.0, 3.0, 4.0, 6.0, 9.0]])
    cfg3 = FieldConfig(n_p=3, p_true=np.zeros(3))
    phi3 = regressors([[0.4, -1.5], [2.0, 3.0]], cfg3)
    assert np.allclose(phi3, [[1.0, 0.4, -1.5], [1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        regressors([2.0, 3.0], cfg)  # one position still needs a row


def test_seeded_random_regressors():
    cfg = FieldConfig(n_p=4, p_true=np.zeros(4), regressor_family="seeded-random", regressor_seed=11)
    phi1 = regressors([[0.25, 0.75]], cfg)[0]
    phi2, other_pos = regressors([[0.25, 0.75], [0.25, 0.7500001]], cfg)
    assert np.array_equal(phi1, phi2)  # a row depends on its own position only
    assert np.all(np.abs(phi1) <= 1.0)
    other_seed = FieldConfig(n_p=4, p_true=np.zeros(4), regressor_family="seeded-random", regressor_seed=12)
    assert not np.array_equal(phi1, regressors([[0.25, 0.75]], other_seed)[0])
    assert not np.array_equal(phi1, other_pos)


def test_field_config_validation():
    with pytest.raises(ValueError):
        FieldConfig(n_p=2, p_true=np.zeros(3))
    with pytest.raises(ValueError):
        FieldConfig(n_p=0, p_true=np.zeros(0))
    with pytest.raises(ValueError, match="n_x must be at least 1"):
        FieldConfig(n_p=2, p_true=np.zeros(2), n_x=0)  # no variable: the monomial search never ends
    with pytest.raises(ValueError):
        FieldConfig(n_p=2, p_true=np.zeros(2), regressor_family="fourier")


def test_samples_validation():
    phi, y = [[1.0, 2.0], [3.0, 4.0]], [0.5, -1.0]
    samples = Samples(phi=phi, y=y)
    assert len(samples) == 2 and samples.n_p == 2
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            Samples(phi=phi, y=[0.5, bad])
        with pytest.raises(ValueError):
            Samples(phi=[[1.0, 2.0], [bad, 4.0]], y=y)
    with pytest.raises(ValueError):
        Samples(phi=[[1.0, 2.0]], y=y)  # one regressor row per measurement
    with pytest.raises(ValueError):
        Samples(phi=np.zeros((0, 1)), y=np.zeros(0))
    with pytest.raises(ValueError):
        Samples(phi=[1.0, 2.0], y=y)  # phi must be two-dimensional
    shape_error = re.escape("phi must be (N, n_p) with one measurement y per row, N >= 1")
    for phi, y in (([[1.0], [1.0, 2.0]], [1.0, -1.0]), ([[1.0], [2.0]], [[1.0], [1.0, 2.0]])):
        with pytest.raises(ValueError, match=shape_error):  # ragged rows numpy cannot stack
            Samples(phi=phi, y=y)


def test_samples_arrays_are_read_only_copies():
    phi, y = np.ones((3, 2)), np.arange(3.0)
    samples = Samples(phi=phi, y=y)
    for name in ("phi", "y"):
        arr = getattr(samples, name)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 7.0
    # the caller's arrays stay writable and unshared
    assert phi.flags.writeable and y.flags.writeable
    y[0] = 5.0
    assert samples.y[0] == 0.0
    cfg = FieldConfig(n_p=2, p_true=np.array([1.0, 2.0]))
    positions = substream(6, "pos").uniform(0, 1, size=(4, 2))
    generate_measurements(positions, cfg, substream(6, "noise"))
    assert positions.flags.writeable


def test_generate_measurements_noiseless_matches_field():
    cfg = FieldConfig(n_p=3, p_true=np.array([1.0, -2.0, 0.5]), noise=NoiseSpec(scale=0.0))
    positions = substream(3, "pos").uniform(0, 1, size=(8, 2))
    samples = generate_measurements(positions, cfg, substream(3, "noise"))
    assert len(samples) == 8
    assert samples.phi.shape == (8, 3) and samples.y.shape == (8,)
    for phi, y in zip(samples.phi, samples.y):
        assert y == pytest.approx(float(phi @ cfg.p_true), abs=1e-12)


def test_generate_measurements_noise_only_consumes_rng():
    cfg = FieldConfig(n_p=2, p_true=np.array([0.3, 0.7]))
    positions = substream(4, "pos").uniform(0, 1, size=(5, 2))
    a = generate_measurements(positions, cfg, substream(4, "noise"))
    b = generate_measurements(positions, cfg, substream(4, "noise"))
    assert np.array_equal(a.y, b.y)
    with pytest.raises(ValueError):
        generate_measurements(positions[:, :1], cfg, substream(4, "noise"))
    with pytest.raises(ValueError):
        generate_measurements(np.zeros((0, 2)), cfg, substream(4, "noise"))
