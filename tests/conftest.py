import numpy as np
import pytest
from scipy import integrate, optimize


def _brute_min(fn, lo, hi, n=20001):
    """min of fn over [lo, hi]: the least of an n-point grid, refined by
    bounded Brent between the grid neighbours of that point.

    fn maps an array of points to their values.  The reference the 1-D
    radial kernels are checked against; it never reads above the true min.
    """
    x = np.linspace(lo, hi, n)
    v = fn(x)
    k = int(np.argmin(v))
    # Brent's tolerance is relative to |t|: offsets from x[k] keep it fine
    res = optimize.minimize_scalar(
        lambda t: float(fn(np.array([x[k] + t]))[0]),
        bounds=(x[max(k - 1, 0)] - x[k], x[min(k + 1, n - 1)] - x[k]),
        method="bounded", options={"xatol": 1e-15 * (hi - lo)})
    return min(float(v[k]), float(res.fun))


@pytest.fixture
def brute_min():
    return _brute_min


def _line_integral(alpha, beta, s):
    """int over t of (min_j alpha_j - beta_j t)_+^s for one row of lines, by
    adaptive quadrature over the interval where the min is positive, with
    every crossing of two lines inside it as a breakpoint.

    Some beta_j must be positive and some negative, so that the interval is
    bounded.  The reference the exact line integrals are checked against.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    lo = max(a / b for a, b in zip(alpha, beta) if b < 0)
    hi = min(a / b for a, b in zip(alpha, beta) if b > 0)
    if not lo < hi:
        return 0.0
    cross = [(alpha[i] - alpha[j]) / (beta[i] - beta[j])
             for i in range(len(beta)) for j in range(i) if beta[i] != beta[j]]
    inner = sorted(t for t in cross if lo < t < hi)
    val, _ = integrate.quad(lambda t: max(0.0, float(np.min(alpha - beta * t))) ** s,
                            lo, hi, points=inner or None, limit=200,
                            epsabs=0.0, epsrel=1e-13)
    return val


@pytest.fixture
def line_integral():
    return _line_integral
