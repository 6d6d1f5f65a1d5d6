"""Shared test utilities: the finite-difference oracle, error metrics, a
tree hash, stimulus ids, a StimulusSet builder and the square form of an
RDM vector.

numeric_grad is deliberately independent of any backward-pass code: it
only ever calls forward functions, perturbing one element at a time with
central differences.
"""

import numpy as np

from brainalign.data import StimulusSet

FD_EPS = 1e-5


def numeric_grad(f, x, eps=FD_EPS):
    """Central finite differences of a scalar function f at array x."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat, gf = x.ravel(), g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * eps)
    return g


def relerr(analytic, numeric):
    """Global relative L2 error of an analytic gradient vs its FD estimate."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    return np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)


def treehash(root):
    """SHA-256 over every file (path + bytes) under a directory."""
    import hashlib
    from pathlib import Path

    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def stim_ids(n):
    """Stimulus ids s0, s1, ..., s{n-1}."""
    return tuple(f"s{i}" for i in range(n))


def stimulus_set(images):
    """A StimulusSet of `images` with ids stim_ids(len(images))."""
    return StimulusSet(images=images, ids=stim_ids(len(images)))


def square(vec, n):
    """The symmetric zero-diagonal n x n matrix whose strict upper triangle,
    in row-major order, is the RDM vector `vec`."""
    m = np.zeros((n, n))
    m[np.triu_indices(n, k=1)] = vec
    return m + m.T
