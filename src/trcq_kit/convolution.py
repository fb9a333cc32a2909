"""Discrete causal convolution on a uniform grid.

Given a weight table for a symbol and samples of a causal input ``g`` at the
nodes ``t_n = n*kappa``, the discrete convolution is

    out_n = sum_{m=0}^{n} w_{n-m} g(t_m).

Two engines compute it: an O(N^2) engine with exact products and one
compensated sum (the accuracy reference, see :mod:`trcq_kit.kernels`) and an
FFT engine.  The FFT engine zero-pads both factors to the smallest length
``2**a * 3**b * 5**c >= 2N+1`` and multiplies real long-double transforms
(``rfft``/``irfft``) in the frequency domain.  Complex data reaches both
engines' real cores through the same real-block embedding
(:func:`trcq_kit.kernels.real_embedding`), so real data comes out with
imaginary parts that are exactly 0.  The engines must agree
to ~1e-12 relative; tests enforce it.

Inputs and references reach the grid through :func:`sample` alone: shipped
inputs and the closed-form references are evaluated on the whole grid at
once, a plain callable with one call per node;
:func:`signal_to_csv` formats 1024 rows at a time with one ``%`` template
(:func:`trcq_kit.weights.write_rows`), the bytes of one ``%`` per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Callable

import numpy as np

from .kernels import causal_convolve, real_embedding
from .weights import WeightTable, write_rows

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

    ``fn`` must return the same shape at every node: a scalar, or a vector
    of one fixed length.  A shipped input and a closed-form reference have
    ``on_grid(nodes)``, their values at all nodes at once; any other
    callable is called once per node.  A non-finite sample raises
    ``ValueError`` naming the input and the first node where it occurs.
    """
    nodes = grid.nodes
    if hasattr(fn, "on_grid"):
        values = fn.on_grid(nodes)
    else:
        values = [fn(t) for t in nodes.tolist()]
    samples = np.array(values, dtype=complex).reshape(grid.steps + 1, -1)
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
    """O(N^2) evaluation of the discrete convolution, the accuracy reference.

    Every product comes exactly from BLAS block products of sliced factors
    and only the compensated sum of those products rounds, so the result is
    as accurate as if computed in twice the working precision and then
    rounded (:func:`trcq_kit.kernels.causal_convolve`).
    """
    _check_compatible(W, g)
    out = causal_convolve(np.asarray(W.values), g.samples)
    return CausalSignal(grid=g.grid, samples=out)


def _smooth_length(n: int) -> int:
    """Smallest ``2**a * 3**b * 5**c >= n``, for ``n >= 1``."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two that lifts p35 to n or beyond
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _convolve_real_fft(w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Real causal convolution of ``w`` (M, rows, cols) and ``g`` (M, cols) in long double."""
    M = g.shape[0]
    L = _smooth_length(2 * M - 1)
    wf = np.fft.rfft(w.astype(np.longdouble), n=L, axis=0)
    gf = np.fft.rfft(g.astype(np.longdouble), n=L, axis=0)
    return np.fft.irfft(np.einsum("prc,pc->pr", wf, gf), n=L, axis=0)[:M]


def convolve_fft(W: WeightTable, g: CausalSignal) -> CausalSignal:
    """Fast evaluation via zero-padded real FFTs in extended precision.

    Both factors are padded to the smallest 5-smooth length
    ``L = 2**a * 3**b * 5**c >= 2N+1``, so the cyclic convolution of length
    ``L`` equals the linear one on its first N+1 entries.  The transforms are
    ``rfft``/``irfft`` in long double; complex data runs through the same
    real transforms as the blocks of :func:`trcq_kit.kernels.real_embedding`.
    Extended precision keeps the engines' disagreement at the 1e-13 level
    even for long signals; the result is rounded once to complex128.
    """
    _check_compatible(W, g)
    M = g.grid.steps + 1
    out = real_embedding(_convolve_real_fft, np.asarray(W.values)[:M], g.samples)
    return CausalSignal(grid=g.grid, samples=out)


# --------------------------------------------------------------------------
# error measurement and export
# --------------------------------------------------------------------------


def error_vs_exact(computed: CausalSignal, reference: CausalSignal) -> np.ndarray:
    """Per-node Euclidean-norm errors ``||computed_n - reference_n||``, where
    ``reference`` is sampled (:func:`sample`) with the same step on as many
    nodes or more.  The norm squares its input, so a row with a component of 1
    or more is scaled into [0.5, 1) by an exact power of two first and scaled
    back after; no finite error overflows, and rows ``np.linalg.norm`` gets
    finite come out bit-identical.  A non-finite error raises ``ValueError``.
    """
    last = computed.grid.steps
    if reference.grid.kappa != computed.grid.kappa:
        raise ValueError("reference and computed signal use different time steps")
    if reference.grid.steps < last:
        raise ValueError(f"reference ends at node {reference.grid.steps}, before node {last}")
    if reference.dim != computed.dim:
        raise ValueError("reference has mismatched dimension")
    # a non-finite row is reported below rather than warned about
    with np.errstate(over="ignore", invalid="ignore"):
        diff = computed.samples - reference.samples[: last + 1]
        peak = np.maximum(np.abs(diff.real), np.abs(diff.imag)).max(axis=1)
        exp = np.maximum(np.frexp(peak)[1], 0)
        errors = np.ldexp(np.linalg.norm(diff * np.ldexp(1.0, -exp)[:, None], axis=1), exp)
    bad = ~np.isfinite(errors)
    if bad.any():
        n = int(np.argmax(bad))
        raise ValueError(f"error at t = {computed.grid.nodes[n]:.17g} (node {n}) is not finite")
    return errors


def signal_to_csv(signal: CausalSignal, stream: IO[str]) -> None:
    """Write rows ``n,t,re_0,im_0,...`` with 17 significant digits, 1024 at a
    time (:func:`~trcq_kit.weights.write_rows`)."""
    dim = signal.dim
    cols = ",".join(f"re_{j},im_{j}" for j in range(dim))
    stream.write(f"n,t,{cols}\n")
    row = "%d,%.17g" + ",%.17g,%.17g" * dim + "\n"
    samples = signal.samples
    columns = [range(len(samples)), signal.grid.nodes.tolist()]
    for j in range(dim):
        columns += [samples[:, j].real.tolist(), samples[:, j].imag.tolist()]
    write_rows(stream, row, columns)
