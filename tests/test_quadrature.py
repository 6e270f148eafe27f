import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, cumulative_trapezoid

import quadrature as _quadrature
from quadrature import cumulative_integral


def test_exact_for_cubics():
    t = np.linspace(0.0, 2.0, 41)
    y = 3.0 * t**3 - t**2 + 2.0
    exact = 0.75 * t**4 - t**3 / 3.0 + 2.0 * t
    assert np.allclose(cumulative_integral(y, t), exact, rtol=1e-13, atol=1e-13)


def test_refinement_beats_plain_simpson():
    t = np.linspace(0.0, 3.0, 301)
    y = np.exp(-2.0 * t) * np.cos(5.0 * t)
    exact = (np.exp(-2.0 * t) * (5.0 * np.sin(5.0 * t) - 2.0 * np.cos(5.0 * t)) + 2.0) / 29.0
    refined_err = np.max(np.abs(cumulative_integral(y, t) - exact))
    plain_err = np.max(np.abs(cumulative_simpson(y, x=t, initial=0.0) - exact))
    assert refined_err < plain_err / 5.0
    assert refined_err < 5e-9


def test_sixth_order_at_even_points():
    def run(n):
        t = np.linspace(0.0, 1.0, n + 1)
        y = np.sin(3.0 * t)
        exact = (1.0 - np.cos(3.0 * t)) / 3.0
        return np.max(np.abs((cumulative_integral(y, t) - exact)[::4]))

    e1, e2 = run(64), run(128)
    order = np.log2(e1 / e2)
    assert order > 5.0, f"observed order {order}"


def test_nonuniform_falls_back_to_simpson():
    rng = np.random.default_rng(3)
    t = np.sort(rng.uniform(0.0, 1.0, 51))
    t[0] = 0.0
    y = t**2
    expected = cumulative_simpson(y, x=t, initial=0.0)
    assert np.array_equal(cumulative_integral(y, t), expected)


def test_two_samples_trapezoid():
    out = cumulative_integral(np.array([1.0, 3.0]), np.array([0.0, 2.0]))
    assert np.allclose(out, [0.0, 4.0])


def test_shape_validation():
    with pytest.raises(ValueError):
        cumulative_integral(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        cumulative_integral(np.ones(1), np.ones(1))


@pytest.mark.parametrize("n", [*range(2, 10), 1001])
def test_port_is_bit_identical_to_scipy(n):
    rng = np.random.default_rng(n)
    x = np.cumsum(rng.uniform(0.1, 2.0, n)) - 0.7
    dx = float(rng.uniform(1e-3, 3.0))
    y = rng.standard_normal(n) * 10.0 ** rng.uniform(-5, 5, n)
    y[0] = -0.0
    y[n // 2] = 5e-324
    y[-1] = -1e-310
    # signed zeros only: the first interval integrates to -0.0
    zeros = np.where(np.arange(n) % 3 == 2, 0.0, -0.0)
    for samples in (y, zeros):
        pairs = [
            (_quadrature._cumulative_trapezoid(samples, x),
             cumulative_trapezoid(samples, x, initial=0.0)),
        ]
        if n >= 3:
            pairs += [
                (_quadrature._simpson_dx(samples, dx),
                 cumulative_simpson(samples, dx=dx, initial=0.0)),
                (_quadrature._simpson_x(samples, x),
                 cumulative_simpson(samples, x=x, initial=0.0)),
            ]
        for got, ref in pairs:
            assert got.tobytes() == ref.tobytes()
