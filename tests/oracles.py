"""Reference computations shared by the tests; they share no code with the library."""
import numpy as np


def composite_simpson(f, a, b, n: int):
    """Fixed-grid composite Simpson with n subintervals (n even); oracle use."""
    if n % 2 != 0:
        raise ValueError("n must be even")
    xs = np.linspace(a, b, n + 1)
    h = (b - a) / n
    vals = [f(x) for x in xs]
    acc = vals[0] + vals[-1]
    acc = acc + 4.0 * sum(vals[1:-1:2]) + 2.0 * sum(vals[2:-1:2])
    return acc * h / 3.0
