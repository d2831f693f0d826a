import numpy as np
import pytest
from scipy import optimize


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
