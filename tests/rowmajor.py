"""Row-major reference for the optimizer engines' sweep.

Strategies are (batch, states, k) arrays here, one restart per row, and
every sum over coordinates is numpy's over a contiguous last axis.  The
coordinate-major engines of ``qcoord.strategies`` must reproduce this sweep
bit for bit.  The terms are built from the game and state as the engines
build them; only the Hermitian bases are read from a see-saw engine.
"""

import numpy as np

from qcoord import tolerances as tol
from qcoord.quantum import _trace_pairs
from qcoord.strategies import _SQRT2, _ZX, _coordinates, _signed_weights


def _affine(x, matrix, offset):
    return offset + np.einsum("...k,kl->...l", x, matrix)


def _inner(x, y):
    return (x * y).sum(axis=-1)


def _normalized(d):
    norm = np.sqrt((d * d).sum(axis=-1, keepdims=True))
    return np.where(norm > 0.0, d / np.where(norm > 0.0, norm, 1.0), (1.0, 0.0))


def _qubit_sign(gain):
    t, x, y, z = gain[..., 0], gain[..., 1], gain[..., 2], gain[..., 3]
    norm = np.sqrt(x * x + y * y + z * z)
    cut = -_SQRT2 * tol.TOL_PSD
    both, neither = t - norm >= cut, t + norm < cut
    out = np.empty_like(gain)
    out[..., 0] = _SQRT2 * (both.astype(float) - neither)
    scale = np.divide(_SQRT2, norm, out=np.zeros_like(norm), where=~(both | neither))
    np.multiply(gain[..., 1:], scale[..., None], out=out[..., 1:])
    return out


class RowMajorEngine:
    """Row-major sweep of ``engine`` (an ``_AngleEngine`` or ``_SeesawEngine``) on ``game`` and ``shared``."""

    def __init__(self, engine, game, shared):
        self.engine = engine
        self.dim_a, self.dim_b = engine.dim_a, engine.dim_b
        self.seesaw = hasattr(engine, "bases")
        if self.seesaw:
            ops_a, ops_b = engine.bases[self.dim_a], engine.bases[self.dim_b]
        else:
            ops_a = ops_b = _ZX
        first = np.concatenate([np.eye(self.dim_a)[None], ops_a])
        second = np.concatenate([np.eye(self.dim_b)[None], ops_b])
        table = _trace_pairs(shared.matrix, first, second)
        corr = table[1:, 1:]
        self.w0, wa, wb, wab = _signed_weights(game)
        self.local_a, self.local_b = np.kron(wa, table[1:, 0]), np.kron(wb, table[0, 1:])
        # np.kron returns Fortran order for wab.T when player B has one state,
        # and einsum then sums each A gain in another order; the engines hold
        # both couplings in C order, so the reference does too
        self.to_a = np.ascontiguousarray(np.kron(wab.T, corr.T))
        self.to_b = np.ascontiguousarray(np.kron(wab, corr))

    def best(self, gain, dim):
        if not self.seesaw:
            return _normalized(gain.reshape(gain.shape[0], -1, dim))
        gain = gain.reshape(gain.shape[0], -1, dim * dim)
        if dim == 2:
            return _qubit_sign(gain)
        basis = self.engine.bases[dim]
        w, u = np.linalg.eigh(np.einsum("...k,kij->...ij", gain, basis))
        signs = np.where(w >= -tol.TOL_PSD, 1.0, -1.0)
        return _coordinates(basis, np.einsum("...ie,...e,...je->...ij", u, signs, np.conj(u)))

    def flatten(self, strategies):
        return strategies.reshape(strategies.shape[0], -1)

    def gain_b(self, ms):
        return _affine(self.flatten(ms), self.to_b, self.local_b)

    def respond_a(self, ns):
        return self.best(_affine(self.flatten(ns), self.to_a, self.local_a), self.dim_a)

    def respond_b(self, ms):
        return self.best(self.gain_b(ms), self.dim_b)

    def values(self, ms, ns, gain_b=None):
        if gain_b is None:
            gain_b = self.gain_b(ms)
        return self.w0 + _inner(self.flatten(ms), self.local_a) + _inner(self.flatten(ns), gain_b)

    def sweep(self, ms, ns, max_sweeps, tolerance):
        values = self.values(ms, ns)
        active = np.ones(values.shape[0], dtype=bool)
        for _ in range(max_sweeps):
            new_ms = self.respond_a(ns)
            gain_b = self.gain_b(new_ms)
            new_ns = self.best(gain_b, self.dim_b)
            new_values = self.values(new_ms, new_ns, gain_b)
            np.copyto(ms, new_ms, where=active.reshape((-1,) + (1,) * (ms.ndim - 1)))
            np.copyto(ns, new_ns, where=active.reshape((-1,) + (1,) * (ns.ndim - 1)))
            gained = new_values - values
            np.copyto(values, new_values, where=active)
            active &= gained > tolerance
        return ms, ns, values


def to_rows(strategies, k):
    """(states * k, batch) -> (batch, states, k)."""
    return np.ascontiguousarray(strategies.T).reshape(strategies.shape[1], -1, k)


def to_columns(strategies):
    """(batch, states, k) -> (states * k, batch)."""
    return np.ascontiguousarray(strategies.reshape(strategies.shape[0], -1).T)
