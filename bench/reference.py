"""Reference kernel: fixed work that measures the machine's speed, not magschro's.

The measuring machine (2 vCPUs of a shared host) switches between speeds
that differ by up to 40% and hold for minutes, longer than a run (NOTES.md,
"Steadiness").  The worker times this kernel before every experiment; run.py
divides the time to verdict by the kernel's median time over the run, so a
run made while the host was slow reads the same as one made while it was
fast.  The kernel uses no magschro code, so a change to the program moves
the time to verdict and not the kernel.

Its work is a small mix of what the workloads do: a sparse LU factorization
and solves of a 2D Laplacian (SuperLU), sparse matrix-vector products
(Python-level SciPy dispatch), a dense symmetric eigensolve (LAPACK) and a
pure-Python loop, each about a fifth of its roughly 9 ms.
"""

import time

# A round figure near the kernel's median time in the worker on the machine
# that recorded the first trend point (bench/trend/), so that wall_ref_s
# reads in seconds at about that machine's speed.
NOMINAL_S = 0.01


def inputs():
    """The kernel's fixed operands: a 32x32-grid Laplacian and a 120x120 SPD matrix."""
    import numpy as np
    import scipy.sparse

    n = 32
    lap1 = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = scipy.sparse.identity(n)
    lap = (scipy.sparse.kron(lap1, eye) + scipy.sparse.kron(eye, lap1)).tocsc()
    x = np.linspace(0.0, 1.0, 120)
    dense = np.exp(-np.subtract.outer(x, x) ** 2) + np.eye(120)
    return lap, dense


def kernel_s(lap, dense):
    """Seconds taken by one run of the kernel."""
    # imported here so that run.py, which reads NOMINAL_S, stays standard library only
    import numpy as np
    import scipy.linalg
    from scipy.sparse.linalg import splu

    start = time.perf_counter()
    lu = splu(lap)
    v = np.ones(lap.shape[0])
    for _ in range(20):
        v = lu.solve(v)
        v /= np.linalg.norm(v)
    for _ in range(100):
        lap @ v
    for _ in range(2):
        scipy.linalg.eigh(dense)
    s = 0.0
    for i in range(20000):
        s += (i % 7) * 0.5
    return time.perf_counter() - start
