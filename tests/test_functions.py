"""Tests for the shipped causal inputs and their closed-form actions.

Derivative spot values were computed in 40-digit arithmetic from the
explicit polynomial-times-exponential form and are pinned to ~5e-15
relative; the transform spot is exact in rational arithmetic.
"""

import dataclasses
import functools
import hashlib
import json
import math
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest

from trcq_kit import functions
from trcq_kit.convolution import Grid, sample
from trcq_kit.functions import EXACT_PAIRS_HELP, exact_solution, monomial, parse_g, poly_exp, zero
from trcq_kit.quadrature import adaptive_simpson
from trcq_kit.symbols import (
    CFModel,
    Symbol,
    make_decay,
    make_delay,
    make_power,
    make_resolvent,
    symbol_product,
)

# d^k/dt^k [t^5 e^-t] at t = 0.7
POLY5EXP_DERIVS_AT_0p7 = {
    0: 0.08346109200822219713644,
    1: 0.5126895651933649252667,
    2: 2.297734961614117223205,
    3: 6.084873259036771089769,
    4: 1.453043359864929638692,
    5: -34.1479714688394363821,
    6: 23.76909032694708182001,
}


class TestPolyExp:
    def test_derivative_spot_values(self):
        """Orders 0..6 of t^5 e^-t at t = 0.7 match 40-digit references."""
        g = poly_exp(5)
        for k, ref in POLY5EXP_DERIVS_AT_0p7.items():
            val = g.deriv(0.7, k)
            assert float(val) == pytest.approx(ref, rel=5e-15)

    def test_p_zero_is_pure_exponential(self):
        """poly_exp(0) differentiates to (-1)^k e^-t exactly."""
        g = poly_exp(0)
        for k in range(8):
            val = float(g.deriv(1.3, k))
            assert val == pytest.approx((-1.0) ** k * math.exp(-1.3), rel=1e-15)

    def test_causal_zero_for_negative_time(self):
        g = poly_exp(5)
        for k in range(4):
            np.testing.assert_array_equal(g.deriv(-0.5, k), np.zeros(1))

    def test_order_cap_enforced(self):
        g = poly_exp(5)
        g.deriv(1.0, 16)
        with pytest.raises(ValueError, match="orders 0..16"):
            g.deriv(1.0, 17)

    def test_laplace_transform_spot(self):
        """G(1+2i) = 120/(2+2i)^6 = 0.234375i exactly."""
        g = poly_exp(5)
        val = complex(g.laplace(complex(1.0, 2.0)))
        assert val == complex(0.0, 0.234375)

    def test_laplace_decay_certificate(self):
        """||G(s)|| <= 120/|s|^6 with the declared (C, p) = (120, 6)."""
        g = poly_exp(5)
        assert g.laplace_decay == (120.0, 6.0)
        s = np.array([1 + 50j, 2 + 300j, 0.5 + 1000j])
        vals = np.abs(g.laplace(s))
        assert np.all(vals <= 120.0 / np.abs(s) ** 6 + 1e-18)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            poly_exp(-1)


class TestMonomial:
    def test_falling_factorial_derivatives(self):
        """d^3/dt^3 t^7 = 210 t^4; orders past p vanish."""
        g = monomial(7)
        assert float(g.deriv(1.5, 3)) == pytest.approx(210.0 * 1.5**4, rel=1e-15)
        assert float(g.deriv(1.5, 7)) == pytest.approx(math.factorial(7), rel=1e-15)
        assert float(g.deriv(1.5, 8)) == 0.0

    def test_overflow_is_a_value_error(self):
        """t**p past the double range is a usage error, not an OverflowError."""
        g = monomial(170)
        assert math.isfinite(float(g.deriv(60.0, 0)))
        with pytest.raises(ValueError, match="overflows"):
            g.deriv(100.0, 0)
        with pytest.raises(ValueError, match="overflows"):
            g.deriv(1e200, 1)

    def test_laplace(self):
        g = monomial(3)
        val = complex(g.laplace(2.0 + 0j))
        assert val == pytest.approx(6.0 / 16.0, rel=1e-15)


class TestParseG:
    def test_registry_round_trip(self):
        assert parse_g("poly5exp").name == "poly5exp"
        assert parse_g("mono:7").name == "mono:7"
        assert parse_g("zero").name == "zero"
        assert parse_g(" poly3exp ").name == "poly3exp"

    def test_unknown_specs_rejected(self):
        for bad in ("banana", "poly-1exp", "mono:2.5", "polyexp", "mono:"):
            with pytest.raises(ValueError, match="unknown input spec"):
                parse_g(bad)

    def test_power_beyond_factorial_range_rejected(self):
        """p! must be a finite double: 170 is the largest admissible power."""
        assert parse_g("poly170exp").laplace_decay[0] == float(math.factorial(170))
        for bad in ("poly171exp", "mono:171", "poly300exp", "mono:400"):
            with pytest.raises(ValueError, match="0..170"):
                parse_g(bad)

    def test_zero_function(self):
        g = zero()
        assert float(g.deriv(3.0, 5)) == 0.0
        assert complex(g.laplace(np.array([1 + 1j]))[0]) == 0.0


class TestExactSolution:
    """Closed-form references, pinned to 40-digit evaluations."""

    def test_fractional_derivative_of_monomial(self):
        """power:0.5 on t^7 is Gamma(8)/Gamma(7.5) t^6.5."""
        u = exact_solution("power:0.5", "mono:7")
        assert float(u(1.3)[0]) == pytest.approx(14.82277491169175007792, rel=1e-14)
        assert float(u(2.0)[0]) == pytest.approx(243.7769817099141443494, rel=1e-14)
        assert float(u(0.0)[0]) == 0.0

    def test_antiderivative_of_poly_exp(self):
        """power:-1 on t^3 e^-t at t = 1.7."""
        u = exact_solution("power:-1", "poly3exp")
        assert float(u(1.7)[0]) == pytest.approx(0.5591366031374039123816, rel=1e-14)

    def test_derivative_of_poly_exp(self):
        """power:1 on t^3 e^-t at t = 1.1."""
        u = exact_solution("power:1", "poly3exp")
        assert float(u(1.1)[0]) == pytest.approx(0.7652706214218848930111, rel=1e-14)

    def test_decay_on_poly_exp(self):
        """decay:1 on t^5 e^-t at t = 2 equals e^-2 * 2^6/6."""
        u = exact_solution("decay:1", "poly5exp")
        assert float(u(2.0)[0]) == pytest.approx(1.443576354523868713536, rel=1e-14)

    def test_decay_on_monomial(self):
        """decay:0.5 on t^3 at t = 1.9 (series branch)."""
        u = exact_solution("decay:0.5", "mono:3")
        assert float(u(1.9)[0]) == pytest.approx(2.725138251632115863884, rel=1e-14)

    def test_decay_on_monomial_large_time(self):
        """decay:0.5 on t^3 at t = 20 (alternating closed-form branch)."""
        u = exact_solution("decay:0.5", "mono:3")
        assert float(u(20.0)[0]) == pytest.approx(12064.00435839325719855, rel=1e-13)

    def test_decay_on_monomial_tiny_rate(self):
        """decay:0.001 on t^170 at t = 2: a^171 underflows to 0, the reference
        t^171/171 e^-x 1F1(171; 172; x) (x = a t, Kummer's function) does not."""
        with mpmath.workdps(40):
            a, t, p = mpmath.mpf("0.001"), mpmath.mpf(2), 170
            x = a * t
            ref = t ** (p + 1) / (p + 1) * mpmath.exp(-x) * mpmath.hyp1f1(p + 1, p + 2, x)
        value = float(exact_solution("decay:0.001", "mono:170")(2.0)[0])
        assert value == pytest.approx(float(ref), rel=1e-14)
        assert float(exact_solution("decay:1e-300", "mono:1")(2.0)[0]) == 2.0

    def test_decay_branches_agree(self):
        """Series and closed-form branches join continuously at x = p+1."""
        u = exact_solution("decay:0.5", "mono:3")
        below = float(u(8.0)[0])
        above = float(u(8.0 + 1e-12)[0])
        assert above == pytest.approx(below, rel=1e-11)

    def test_delay_shifts_the_input(self):
        u = exact_solution("delay:1.0", "poly5exp")
        g = poly_exp(5)
        np.testing.assert_allclose(u(1.7), g.deriv(0.7, 0), rtol=1e-15)
        np.testing.assert_array_equal(u(0.5), np.zeros(1))

    def test_zero_input_always_supported(self):
        u = exact_solution("power:0.5", "zero")
        assert float(u(4.0)[0]) == 0.0

    def test_identity_power(self):
        u = exact_solution("power:0", "poly5exp")
        g = poly_exp(5)
        np.testing.assert_allclose(u(1.2), g.deriv(1.2, 0), rtol=0, atol=0)

    def test_non_finite_reference_is_a_value_error(self):
        """Gamma(171)/Gamma(0.1) * t^-0.9 is inf without an OverflowError; it
        is refused like one."""
        with pytest.raises(ValueError, match="overflows a double at t = 0.001"):
            exact_solution("power:170.9", "mono:170")(0.001)

    @pytest.mark.parametrize("symbol, name", [
        ("power:0.5", "power:0.5"),
        ("decay:2", "decay:2"),
        # symbols without data: 1/(s+1) built as a resolvent, a product, a direct build
        (make_resolvent(np.array([[-1.0]])), "resolvent:1x1"),
        (symbol_product(make_power(0.5), make_delay(1.0)), "(power:0.5)*(delay:1)"),
        (Symbol(name="bare", evaluator=lambda s: s[..., None, None], mu=1.0,
                cf=CFModel(1.0, 0.0)), "bare"),
    ])
    def test_unsupported_pairs_are_refused(self, symbol, name):
        """One refusal, naming the pair by its objects' names and the supported pairs."""
        message = f"no closed-form reference for symbol='{name}' with g='poly5exp'; "
        with pytest.raises(ValueError) as exc:
            exact_solution(symbol, poly_exp(5))
        assert str(exc.value) == message + EXACT_PAIRS_HELP

    @pytest.mark.parametrize("symbol, g, spec", [
        (make_decay(0.5), monomial(3), ("decay:0.5", "mono:3")),
        (make_power(0.5), monomial(7), ("power:0.5", "mono:7")),
        (make_delay(1.0), poly_exp(5), ("delay:1.0", "poly5exp")),
    ])
    def test_symbol_objects_reach_their_references(self, symbol, g, spec):
        """A symbol built in Python dispatches on its data to the reference its
        spec reaches, bit for bit on a grid."""
        nodes = np.linspace(0.0, 12.0, 97)
        by_object = exact_solution(symbol, g).on_grid(nodes)
        assert _bits(by_object) == _bits(exact_solution(*spec).on_grid(nodes))
        assert exact_solution(symbol, g)(1.7) == exact_solution(*spec)(1.7)

    def test_antiderivative_matches_quadrature(self):
        """Series branch of int_0^t tau^3 e^-tau cross-checked by quadrature."""
        u = exact_solution("power:-1", "poly3exp")
        g = poly_exp(3)
        ref = adaptive_simpson(lambda tau: float(g.deriv(tau, 0)), 0.0, 0.5, 1e-13)
        assert float(u(0.5)[0]) == pytest.approx(ref, rel=1e-11)

    def test_antiderivative_branches_agree(self):
        """The small-t series and the closed form join continuously at t = p+1."""
        u = exact_solution("power:-1", "poly3exp")
        below = float(u(4.0)[0])
        above = float(u(4.0 + 1e-12)[0])
        assert above == pytest.approx(below, rel=1e-12)


# --------------------------------------------------------------------------
# one array of times at once, bit for bit
# --------------------------------------------------------------------------
# An input or a reference evaluates one array rule, also at one time, so its
# grid and per-node values agreeing shows only that a node's value does not
# depend on the other nodes.  The per-node values are therefore also pinned:
# SCALAR_BITS holds, per case, the sha256 (first 16 hex digits) of the float64
# bytes at each node in turn, then of "ValueError: <message>" at the first node
# that raises, recorded from the scalar per-time rules of commit 298f918 (libm
# exp and pow, as now).
SCALAR_BITS = json.loads(Path(__file__).with_name("scalar_bits.json").read_text())

GRID_POWERS = (0, 1, 5, 7, 20, 170)
GRID_INPUTS = [f"poly{p}exp" for p in GRID_POWERS] + [f"mono:{p}" for p in GRID_POWERS] + ["zero"]
# e^-t underflows past t = 745 and t**p overflows (p >= 5) at the far end,
# mono:170 already at t = 65.25
GRID_TIMES = np.concatenate([0.25 * np.arange(3201), [1e62, 1e200, 1e300]])


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _per_node(fn, nodes):
    """``fn`` at each node in turn, up to the first ``ValueError``: the values
    and that error's message (``None`` if none raised)."""
    values = []
    for t in nodes.tolist():
        try:
            values.append(fn(t))
        except ValueError as exc:
            return np.array(values, dtype=float), str(exc)
    return np.array(values, dtype=float), None


def _digest(values, error) -> str:
    h = hashlib.sha256(_bits(values))
    if error is not None:
        h.update(f"ValueError: {error}".encode())
    return h.hexdigest()[:16]


class TestGridValues:
    """An input's values on an array of times are its per-time values, and a
    reference's values on a grid its per-node values, bit for bit: no node's
    value depends on the others.  The per-node values are those of the
    scalar rules (SCALAR_BITS)."""

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("spec", GRID_INPUTS)
    def test_input_on_grid_equals_per_time(self, spec, k):
        g = parse_g(spec)
        values, error = _per_node(lambda t: g.deriv(t, k), GRID_TIMES)
        assert _digest(values, error) == SCALAR_BITS[f"input {spec} k={k}"]
        assert _bits(g.on_grid(GRID_TIMES[: values.size], k)) == _bits(values)
        # t**p overflows for mono:p, p >= 5; the grid names the first such time,
        # as the per-time route does
        assert (error is not None) == (spec.startswith("mono:") and spec not in ("mono:0", "mono:1"))
        if error is not None:
            assert error == f"{spec} overflows a double at t = {GRID_TIMES[values.size]:.17g}"
            with pytest.raises(ValueError, match="^" + re.escape(error) + "$"):
                g.on_grid(GRID_TIMES, k)

    @pytest.mark.parametrize("spec", GRID_INPUTS)
    def test_sample_takes_the_grid_route_without_callbacks(self, spec):
        """A shipped input is sampled from its data: its derivative callback,
        which a tracer may replace to count calls, is not called."""
        g = parse_g(spec)
        calls = []

        def derivative(t, k):
            calls.append(t)
            return g.derivative(t, k)

        counted = dataclasses.replace(g, derivative=derivative)
        grid = Grid(kappa=1.0, steps=59)
        per_node = np.array([g(t) for t in grid.nodes.tolist()], dtype=complex)
        assert sample(counted, grid).samples.tobytes() == per_node.reshape(-1, 1).tobytes()
        assert calls == []

    def test_mono_overflow_names_the_first_node(self):
        """mono:170 overflows at t = 66 on the unit grid, and the grid's one
        non-finite check names that node."""
        with pytest.raises(ValueError, match=r"^mono:170 overflows a double at t = 66$"):
            sample(monomial(170), Grid(kappa=1.0, steps=100))

    def test_plain_callable_is_sampled_per_node(self):
        calls = []

        def ramp(t):
            calls.append(t)
            return 2.0 * t

        grid = Grid(kappa=0.5, steps=4)
        np.testing.assert_array_equal(sample(ramp, grid).samples[:, 0], 2.0 * grid.nodes)
        assert calls == grid.nodes.tolist()

    @pytest.mark.parametrize("symbol, spec, steps", [
        (None, "mono:170", 100),           # the input: t**170 overflows at t = 66
        ("decay:1", "poly170exp", 65),     # the reference: t**171 overflows at t = 64
        ("delay:1", "mono:170", 100),      # the reference through the input, at t - 1 = 66
    ])
    def test_overflow_makes_no_per_node_call(self, symbol, spec, steps):
        """An overflowing power is an inf entry, so sampling refuses the grid
        without calling the input's derivative or the reference per node."""
        calls = []
        if symbol is None:
            g = parse_g(spec)

            def derivative(t, k):
                calls.append(t)
                return g.derivative(t, k)

            fn = dataclasses.replace(g, derivative=derivative)
        else:
            exact = exact_solution(symbol, spec)

            @functools.wraps(exact)  # copies on_grid, as a tracer's wrapper does
            def fn(t):
                calls.append(t)
                return exact(t)

        with pytest.raises(ValueError, match="overflows a double at t = 6[46]$"):
            sample(fn, Grid(kappa=1.0, steps=steps))
        assert calls == []

    def test_on_grid_checks_the_order(self):
        with pytest.raises(ValueError, match="orders 0..16"):
            poly_exp(5).on_grid(np.ones(3), 17)

    def test_monomial_coefficients_are_falling_factorials(self):
        """The callback reads p!/(p-k)! from the data; the bits are those of
        math.factorial(p) / math.factorial(p - k)."""
        for p in GRID_POWERS:
            g = monomial(p)
            for k in range(min(p, 64) + 1):
                row = g.data.table[k]
                assert row == (0,) * (p - k) + (math.factorial(p) // math.factorial(p - k),)
                coeff = math.factorial(p) / math.factorial(p - k)
                for t in (0.0, 0.3, 1.7, 9.0):
                    assert _bits(g.deriv(t, k)) == _bits(coeff * t ** (p - k))
            assert all(row == () for row in g.data.table[p + 1:])

    @pytest.mark.parametrize("symbol", ["power:0", "power:1", "power:-1", "power:0.5",
                                        "power:7.5", "power:2", "decay:1", "decay:0.5",
                                        "delay:1", "delay:0.3", "delay:1000"])
    @pytest.mark.parametrize("spec", ["poly5exp", "poly170exp", "mono:7", "mono:170", "zero"])
    def test_reference_on_grid_equals_per_node(self, symbol, spec):
        try:
            exact = exact_solution(symbol, spec)
        except ValueError as exc:  # the pairs without a closed form, and only those
            assert str(exc).startswith("no closed-form reference")
            assert f"reference {symbol} {spec}" not in SCALAR_BITS
            return
        grid = Grid(kappa=0.25, steps=400)
        values, error = _per_node(lambda t: exact(t)[0], grid.nodes)
        assert _digest(values, error) == SCALAR_BITS[f"reference {symbol} {spec}"]
        if error is not None:
            with pytest.raises(ValueError) as grid_exc:
                sample(exact, grid)
            assert str(grid_exc.value) == error
            return
        per_node = values.astype(complex).reshape(-1, 1)
        assert sample(exact, grid).samples.tobytes() == per_node.tobytes()

    @pytest.mark.parametrize("symbol, spec, kappa, steps", [
        ("power:7.5", "mono:7", 0.5, 8),      # t**-0.5, never evaluated at t = 0
        ("power:-1", "mono:170", 1.0, 2),     # Gamma(172) overflows: the lgamma coefficient
        ("delay:1", "mono:7", 0.25, 12),      # shifted nodes below 0
        ("decay:1", "poly170exp", 1.0, 63),   # t**171 just below the double range
    ])
    def test_grid_routed_reference_equals_per_node(self, symbol, spec, kappa, steps):
        exact = exact_solution(symbol, spec)
        nodes = Grid(kappa, steps).nodes
        values, error = _per_node(lambda t: exact(t)[0], nodes)
        assert error is None
        assert _digest(values, error) == SCALAR_BITS[f"reference {symbol} {spec} {kappa}x{steps}"]
        assert _bits(exact.on_grid(nodes)) == _bits(values)
        assert values[0] == 0.0

    def test_reference_overflow_names_the_first_node(self):
        """decay:1 on poly170exp: t**171 overflows at t = 64, an inf entry that
        the reference's one non-finite check names."""
        exact = exact_solution("decay:1", "poly170exp")
        message = (r"^the closed-form reference for symbol 'decay:1' on input 'poly170exp' "
                   r"overflows a double at t = 64$")
        with pytest.raises(ValueError, match=message):
            exact.on_grid(Grid(1.0, 65).nodes)
        with pytest.raises(ValueError, match=message):
            sample(exact, Grid(1.0, 65))
        with pytest.raises(ValueError, match=message):
            exact(64.0)

    @pytest.mark.parametrize("p", [0, 5, 6, 20])
    @pytest.mark.parametrize("symbol, family, rate", [
        ("power:-1", "poly", 1.0),
        ("decay:1e-3", "mono", 1e-3),
        ("decay:0.5", "mono", 0.5),
        ("decay:2", "mono", 2.0),
    ])
    def test_series_reference_on_grid_equals_per_node(self, symbol, family, rate, p):
        """Below the switch point (t = p+1 for power:-1, a*t = p+1 for
        decay:a) every node sums its own series, on a grid through the switch
        point and on a 0.25 x 400 grid: its own stopping term, whatever its
        neighbours', and the scalar loop's bits."""
        spec = f"poly{p}exp" if family == "poly" else f"mono:{p}"
        exact = exact_solution(symbol, spec)
        switch = (p + 1) / rate
        around = [switch, np.nextafter(switch, 0.0), np.nextafter(switch, np.inf)]
        nodes = np.concatenate([switch * np.linspace(0.0, 3.0, 301), around,
                                Grid(kappa=0.25, steps=400).nodes])
        values, error = _per_node(lambda t: exact(t)[0], nodes)
        assert error is None
        assert _digest(values, error) == SCALAR_BITS[f"reference {symbol} {spec} series"]
        assert _bits(exact.on_grid(nodes)) == _bits(values)


# --------------------------------------------------------------------------
# exact time integrals
# --------------------------------------------------------------------------


def _reference_time_l1(data, k: int, m: int, t_end: float):
    """``int_0^t_end |P_m g^(k)|`` in 50 digits: mpmath's roots of the Leibniz
    row, and each piece of one sign summed from incomplete gamma functions
    (``poly``) or powers (``mono``)."""
    row = data.leibniz_row(k, m)
    with mpmath.workdps(50):
        core = list(row)
        while core and core[0] == 0:
            core.pop(0)
        roots = []
        if len(core) > 1:
            found = mpmath.polyroots(core[::-1], maxsteps=200, extraprec=500)
            roots = sorted(r.real for r in found if abs(r.imag) < 1e-30 and r.real > 0)
        end = mpmath.inf if t_end == math.inf else mpmath.mpf(t_end)
        points = [mpmath.mpf(0)] + [r for r in roots if r < end] + [end]

        def piece(a, b):
            if data.family == "poly":
                return sum(c * mpmath.gammainc(j + 1, a, b) for j, c in enumerate(row) if c)
            return sum(c * (b ** (j + 1) - a ** (j + 1)) / (j + 1) for j, c in enumerate(row) if c)

        return sum(abs(piece(a, b)) for a, b in zip(points, points[1:]))


def _assert_matches_reference(data, k, m, t_end):
    ref = _reference_time_l1(data, k, m, t_end)
    assert ref > 0
    assert abs(data.time_l1(k, m, t_end) - ref) <= 1e-13 * ref, (data.name, k, m, t_end)


class TestTimeIntegrals:
    @pytest.mark.parametrize("p, m", [
        (p, m) for p in (6, 9, 12, 15) for m in range(1, 5) if p >= 2 * m + 4
    ])
    def test_to_infinity_against_mpmath(self, p, m):
        """prop34a's int |P_m g^(m+4)| and lemma33's int |g''|."""
        data = poly_exp(p).data
        _assert_matches_reference(data, m + 4, m, math.inf)
        _assert_matches_reference(data, 2, 0, math.inf)

    @pytest.mark.parametrize("t", [1.0, 2.0, 4.0, 8.0, 16.0])
    @pytest.mark.parametrize("spec", ["poly6exp", "mono:7", "mono:20", "mono:170"])
    def test_to_finite_time_against_mpmath(self, spec, t):
        """The bound's I1 and I2 for mu = 0, 0.5 and 1: (k, m) = (5, 0), (4, 0),
        (5, 1) and (6, 0)."""
        data = parse_g(spec).data
        for k, m in ((5, 0), (4, 0), (5, 1), (6, 0)):
            _assert_matches_reference(data, k, m, t)

    @pytest.mark.parametrize("t", [1e-3, 1e-2, 0.1])
    @pytest.mark.parametrize("p, k, m", [(12, 5, 0), (12, 4, 0), (15, 6, 1), (9, 5, 0)])
    def test_small_time_against_mpmath(self, p, k, m, t):
        """Integrals down to 1e-24 keep their relative accuracy: here -S exp(-t)
        is sum_l C(m, l) g^(k+l-1), small near 0, so no piece is a difference
        of large values (adaptive Simpson's absolute floor cost 3e-4 here)."""
        _assert_matches_reference(poly_exp(p).data, k, m, t)

    def test_cuts_are_sign_changes(self):
        """P_4 g^(8) of poly15exp has eight positive roots; each cut is within
        one ulp of mpmath's root, and the row's sign changes across it."""
        row = poly_exp(15).data.leibniz_row(8, 4)
        cuts = functions._sign_changes(row)
        with mpmath.workdps(50):
            found = mpmath.polyroots(row[3:][::-1], maxsteps=200, extraprec=500)
            roots = sorted(r.real for r in found if abs(r.imag) < 1e-30 and r.real > 0)
            assert len(cuts) == len(roots) == 8
            for x, root in zip(cuts, roots):
                assert abs(x - root) <= math.ulp(x)
                below = mpmath.polyval(row[::-1], math.nextafter(x, 0.0))
                assert below * mpmath.polyval(row[::-1], x) <= 0

    def test_zero_rows(self):
        assert zero().data.time_l1(2, 0, math.inf) == 0.0
        assert monomial(3).data.time_l1(4, 0, math.inf) == 0.0  # g^(4) of t^3

    def test_growing_integrand_to_infinity_refused(self):
        with pytest.raises(RuntimeError, match="^time integrand does not decay"):
            monomial(7).data.time_l1(2, 0, math.inf)

    def test_overflow_names_the_time(self):
        """int_0^100 t^170 = 100^171/171 is past the double range."""
        with pytest.raises(ValueError, match=r"^mono:170 overflows a double at t = 100$"):
            monomial(170).data.time_l1(0, 0, 100.0)

    def test_large_polynomial_with_small_product_stays_finite(self):
        """S(t) of poly170exp passes the double range near its largest roots, but
        S(t) e^-t does not: int |P_1 g^(5)| = 1.19e302 and int |g''| of
        poly145exp = 5.39e249."""
        _assert_matches_reference(poly_exp(170).data, 5, 1, math.inf)
        _assert_matches_reference(poly_exp(145).data, 2, 0, math.inf)

    def test_order_past_the_table_refused(self):
        with pytest.raises(ValueError, match=r"^poly170exp supports orders up to 16; "
                                             r"P_6 g\^\(16\) needs 22$"):
            poly_exp(170).data.time_l1(16, 6, math.inf)
        with pytest.raises(ValueError, match="orders up to 16"):
            poly_exp(5).data.leibniz_row(17, 0)
