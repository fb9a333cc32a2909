"""Discrete causal convolution on a uniform grid.

Given a weight table for a symbol and samples of a causal input ``g`` at the
nodes ``t_n = n*kappa``, the discrete convolution is

    out_n = sum_{m=0}^{n} w_{n-m} g(t_m).

Two engines compute it: a compensated O(N^2) loop (the accuracy reference,
see :mod:`trcq_kit.kernels`) and an FFT engine that zero-pads both factors
to a power of two >= 2N+1 and multiplies in the frequency domain using
extended precision.  They must agree to ~1e-12 relative; tests enforce it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Callable

import numpy as np

from .kernels import causal_convolve
from .weights import WeightTable

__all__ = [
    "Grid",
    "CausalSignal",
    "sample",
    "convolve_naive",
    "convolve_fft",
    "error_vs_exact",
    "signal_to_csv",
]


# --------------------------------------------------------------------------
# grid and signal types
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    """Uniform nodes t_n = n*kappa, n = 0..steps."""

    kappa: float
    steps: int

    def __post_init__(self) -> None:
        if not (0.0 < self.kappa <= 1.0):
            raise ValueError("kappa must lie in (0, 1]")
        if self.steps < 0:
            raise ValueError("steps must be non-negative")

    @property
    def nodes(self) -> np.ndarray:
        return self.kappa * np.arange(self.steps + 1)

    @property
    def t_final(self) -> float:
        return self.kappa * self.steps


@dataclass(frozen=True)
class CausalSignal:
    """Samples of a vector-valued function at the grid nodes.

    ``samples`` has shape ``(steps+1, dim)``.  The value at t_0 = 0 is
    stored even though admissible inputs vanish there; a nonzero value is
    accepted as is.
    """

    grid: Grid
    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples)
        if arr.ndim != 2 or arr.shape[0] != self.grid.steps + 1:
            raise ValueError("samples must have shape (steps+1, dim)")
        object.__setattr__(self, "samples", arr)

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


def sample(fn: Callable[[float], "complex | np.ndarray"], grid: Grid) -> CausalSignal:
    """Evaluate ``fn`` at the grid nodes; scalar results become 1-vectors.

    A non-finite sample raises ``ValueError`` naming the input and the first
    node where it occurs.
    """
    rows = [np.atleast_1d(np.asarray(fn(float(t)))) for t in grid.nodes]
    samples = np.array(rows, dtype=complex)
    bad = ~np.isfinite(samples).all(axis=1)
    if bad.any():
        n = int(np.argmax(bad))
        name = getattr(fn, "name", repr(fn))
        raise ValueError(
            f"input {name} is not finite at t = {grid.nodes[n]:.17g} "
            f"(node {n}): {samples[n].tolist()}"
        )
    return CausalSignal(grid=grid, samples=samples)


# --------------------------------------------------------------------------
# engines
# --------------------------------------------------------------------------


def _check_compatible(W: WeightTable, g: CausalSignal) -> None:
    # Bit-identical step comparison on purpose: a silently mismatched step
    # produces plausible-looking garbage, so no tolerance is offered.
    if W.kappa != g.grid.kappa:
        raise ValueError("weight table and signal use different time steps")
    if W.count < g.grid.steps + 1:
        raise ValueError(
            f"weight table has {W.count} entries but the grid needs {g.grid.steps + 1}"
        )
    if W.dims[1] != g.dim:
        raise ValueError("weight columns must match signal dimension")


def convolve_naive(W: WeightTable, g: CausalSignal) -> CausalSignal:
    """Compensated O(N^2) evaluation of the discrete convolution."""
    _check_compatible(W, g)
    out = causal_convolve(np.asarray(W.values), g.samples)
    return CausalSignal(grid=g.grid, samples=out)


def convolve_fft(W: WeightTable, g: CausalSignal) -> CausalSignal:
    """Fast evaluation via zero-padded FFT in extended precision.

    Produces the full (non-causal-truncated) linear convolution on a padded
    power-of-two length >= 2N+1, then keeps the first N+1 entries; extended
    precision keeps the engines' disagreement at the 1e-13 level even for
    long signals.
    """
    _check_compatible(W, g)
    M = g.grid.steps + 1
    need = 2 * M - 1
    L = 1 << max(0, need - 1).bit_length()
    w = np.zeros((L,) + W.dims, dtype=np.clongdouble)
    w[:M] = np.asarray(W.values)[:M]
    x = np.zeros((L, g.dim), dtype=np.clongdouble)
    x[:M] = g.samples
    wf = np.fft.fft(w, axis=0)
    xf = np.fft.fft(x, axis=0)
    prod = np.einsum("prc,pc->pr", wf, xf)
    out = np.fft.ifft(prod, axis=0)[:M].astype(np.complex128)
    return CausalSignal(grid=g.grid, samples=out)


# --------------------------------------------------------------------------
# error measurement and export
# --------------------------------------------------------------------------


def error_vs_exact(
    computed: CausalSignal,
    exact: Callable[[float], "complex | np.ndarray"],
) -> np.ndarray:
    """Per-node Euclidean-norm errors ``||computed_n - exact(t_n)||``.

    The norm squares its input, so a row with a component of 1 or more is
    scaled into [0.5, 1) by an exact power of two first and scaled back
    after; no finite error overflows, and rows ``np.linalg.norm`` gets
    finite come out bit-identical.  A non-finite error raises ``ValueError``.
    """
    nodes = computed.grid.nodes
    ref = np.array(
        [np.atleast_1d(np.asarray(exact(float(t)))) for t in nodes], dtype=complex
    )
    if ref.shape != computed.samples.shape:
        raise ValueError("exact solution has mismatched dimension")
    # a non-finite row is reported below rather than warned about
    with np.errstate(over="ignore", invalid="ignore"):
        diff = computed.samples - ref
        peak = np.maximum(np.abs(diff.real), np.abs(diff.imag)).max(axis=1)
        exp = np.maximum(np.frexp(peak)[1], 0)
        errors = np.ldexp(np.linalg.norm(diff * np.ldexp(1.0, -exp)[:, None], axis=1), exp)
    bad = ~np.isfinite(errors)
    if bad.any():
        n = int(np.argmax(bad))
        raise ValueError(f"error at t = {nodes[n]:.17g} (node {n}) is not finite")
    return errors


def signal_to_csv(signal: CausalSignal, stream: IO[str]) -> None:
    """Write rows ``n,t,re_0,im_0,...`` with 17 significant digits."""
    dim = signal.dim
    cols = ",".join(f"re_{j},im_{j}" for j in range(dim))
    stream.write(f"n,t,{cols}\n")
    for n, t in enumerate(signal.grid.nodes):
        vals = signal.samples[n]
        parts = ",".join(f"{v.real:.17g},{v.imag:.17g}" for v in vals)
        stream.write(f"{n},{t:.17g},{parts}\n")
