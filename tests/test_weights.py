"""Tests for CQ weight generation: the exact routes (against 50-digit mpmath
references), the FFT contour route, and the WeightTable container."""

import dataclasses
import io
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from trcq_kit import (
    WeightTable,
    builtin_zoo,
    compare_weight_tables,
    cq_weights_fft,
    default_fft_size,
    from_spec,
    make_decay,
    make_delay,
    make_power,
    make_resolvent,
    symbol_product,
    value_norm,
)
from trcq_kit.symbols import _MIN_BLOCK
from trcq_kit.weights import (
    _BAND,
    _COMMA,
    _P_MAX,
    _P_MIN,
    _digit_fields,
    _tables,
    weights_to_csv,
    write_csv_rows,
)


def damped_matrix(seed: int) -> np.ndarray:
    """A seeded 2x2 real matrix skew - P, P positive definite: numerical range in Re < 0."""
    rng = np.random.default_rng(seed)
    b = rng.uniform(0.5, 2.0)
    B = rng.normal(scale=0.6, size=(2, 2))
    return np.array([[0.0, b], [-b, 0.0]]) - (B @ B.T + 0.05 * np.eye(2))


DAMPED = damped_matrix(7)


class TestClosedForms:
    """The exact route reproduces the hand tables for F in {1, s, 1/s}."""

    def test_identity(self):
        t = cq_weights_fft(make_power(0.0), 0.25, 5)
        np.testing.assert_array_equal(t.values[:, 0, 0], [1, 0, 0, 0, 0, 0])

    def test_derivative(self):
        k = 0.1
        t = cq_weights_fft(make_power(1.0), k, 4)
        ref = np.array([2 / k, -4 / k, 4 / k, -4 / k, 4 / k])
        np.testing.assert_allclose(t.values[:, 0, 0], ref, rtol=1e-15)

    def test_integral(self):
        k = 0.1
        t = cq_weights_fft(make_power(-1.0), k, 4)
        ref = np.array([k / 2, k, k, k, k])
        np.testing.assert_allclose(t.values[:, 0, 0], ref, rtol=1e-15)

    def test_closed_tables_have_no_contour_metadata(self):
        t = cq_weights_fft(make_power(-1.0), 0.1, 4)
        assert t.fft_size == 0
        # k/2 and k are exact in both precisions: the estimate is its floor
        assert t.accuracy_estimate == 0.5 * np.spacing(0.1)


def _assert_matches(table, ref):
    """Error <= 1e-15 of max|w| in the entry norm, and within accuracy_estimate."""
    diff = np.array(
        [[[complex(mpmath.mpc(complex(table.values[n, i, j])) - ref[n][i][j])
           for j in range(table.dims[1])] for i in range(table.dims[0])]
         for n in range(table.count)]
    )
    scale = max(abs(x) for row in ref for line in row for x in line)
    err = float(np.max(value_norm(diff)))
    assert err <= 1e-15 * float(scale)
    assert table.accuracy_estimate >= err
    assert table.fft_size == 0


class TestExactRoutes:
    """Power, decay and resolvent weights against 50-digit references, N = 400."""

    N = 400
    KAPPA = 0.05

    @pytest.mark.parametrize("mu", [-2.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.5, 5.0])
    def test_power(self, mu):
        # a_n of ((1-z)/(1+z))**mu as the Cauchy product of two binomial series
        N, kappa = self.N, self.KAPPA
        with mpmath.workdps(50):
            m = mpmath.mpf(mu)
            b = [(-1) ** k * mpmath.binomial(m, k) for k in range(N + 1)]
            c = [mpmath.binomial(-m, k) for k in range(N + 1)]
            scale = (2 / mpmath.mpf(kappa)) ** m
            ref = [[[scale * mpmath.fsum(b[k] * c[n - k] for k in range(n + 1))]]
                   for n in range(N + 1)]
            table = cq_weights_fft(make_power(mu), kappa, N)
            _assert_matches(table, ref)
        assert np.all(table.values.imag == 0)

    @pytest.mark.parametrize("a", [0.5, 2.0])
    def test_decay(self, a):
        # kappa (1 + z) / ((2 + a kappa) - (2 - a kappa) z), expanded geometrically
        N, kappa = self.N, self.KAPPA
        with mpmath.workdps(50):
            ak = mpmath.mpf(a) * mpmath.mpf(kappa)
            w0 = mpmath.mpf(kappa) / (2 + ak)
            r = (2 - ak) / (2 + ak)
            ref = [[[w0]]] + [[[w0 * (r**n + r ** (n - 1))]] for n in range(1, N + 1)]
            table = cq_weights_fft(make_decay(a), kappa, N)
            _assert_matches(table, ref)
        assert np.all(table.values.imag == 0)

    def test_resolvent(self):
        # trapezoidal stepping of u' = A u: w_n = kappa (R^n + R^(n-1)) M^-1
        N, kappa = self.N, self.KAPPA
        with mpmath.workdps(50):
            A = mpmath.matrix(DAMPED.tolist())
            k = mpmath.mpf(kappa)
            eye = mpmath.eye(2)
            Minv = (2 * eye - k * A) ** -1
            R = (2 * eye + k * A) * Minv
            ref, power = [k * Minv], eye
            for _ in range(N):
                ref.append(k * (power * R + power) * Minv)
                power = power * R
            ref = [[[w[i, j] for j in range(2)] for i in range(2)] for w in ref]
            table = cq_weights_fft(make_resolvent(DAMPED), kappa, N)
            _assert_matches(table, ref)
        assert np.all(table.values.imag == 0)

    def test_weights_beyond_the_double_range_refused(self):
        """(2/kappa)^79 fits a double but w_53 onwards do not; both routes say so."""
        F = make_power(79.0)
        with pytest.raises(ValueError, match=r"^weights of power:79 at kappa = 0.001 leave "
                                             r"the double range, first at w_53$"):
            cq_weights_fft(F, 0.001, 300)
        with pytest.raises(ValueError, match="leave the double range, first at w_"):
            cq_weights_fft(F, 0.001, 300, fft_size=4096)

    def test_delay_and_products_stay_on_the_contour(self):
        for F in (make_delay(1.0), symbol_product(make_decay(1.0), make_power(0.5))):
            table = cq_weights_fft(F, 0.1, 16)
            assert table.fft_size > 0, F.name


def _sequential_power(mu, kappa, N, real):
    """The power weights from the plain sequential recurrence, one step per entry."""
    two_mu = real(2.0 * mu)
    a = [real(1.0), -two_mu + 0]
    for n in range(1, N):
        a.append((-two_mu * a[n] + (n - 1) * a[n - 1]) / (n + 1))
    scale = (real(2.0) / real(kappa)) ** real(mu)
    return (scale * np.array(a[: N + 1], dtype=real))[:, None, None]


def _same(x, y):
    """Equal entries with equal signs: the bits that matter of a long double,
    whose padding bytes ``tobytes`` would compare too."""
    return np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


class TestBlockedRecurrence:
    """The power recurrence runs in blocks of about sqrt(N) steps; block 0 is
    the sequential recurrence, and the chained blocks stay within the gates."""

    N = 1 << 14
    KAPPA = 0.05

    @pytest.mark.parametrize("mu", [-2.5, -0.5, 0.3, 0.5, 2.5, 5.0])
    def test_many_blocks_against_mpmath(self, mu):
        # a 40-digit sequential run of the same recurrence
        N, kappa = self.N, self.KAPPA
        with mpmath.workdps(40):
            m = mpmath.mpf(mu)
            a = [mpmath.mpf(1), -2 * m]
            for n in range(1, N):
                a.append((-2 * m * a[n] + (n - 1) * a[n - 1]) / (n + 1))
            scale = (2 / mpmath.mpf(kappa)) ** m
            ref = [[[scale * x]] for x in a]
            table = cq_weights_fft(make_power(mu), kappa, N)
            _assert_matches(table, ref)

    @pytest.mark.parametrize("mu", [-1.0, 0.0, 1.0, 2.0])
    def test_integer_powers_are_exact(self, mu):
        """a_n of ((1-z)/(1+z))**mu is 1, 2, 2, ... (mu = -1), 1, 0, 0, ...,
        1, -2, 2, ... and 1, -4, 8, -12, ... (4n(-1)**n); with kappa = 2**-13
        the scale 2**(14 mu) is exact, so every weight is."""
        N, kappa = 1 << 16, 2.0**-13
        n = np.arange(N + 1, dtype=float)
        sign = np.where(n % 2 == 0, 1.0, -1.0)
        a = {-1.0: np.full(N + 1, 2.0), 0.0: np.zeros(N + 1),
             1.0: 2.0 * sign, 2.0: 4.0 * n * sign}[mu]
        a[0] = 1.0
        table = cq_weights_fft(make_power(mu), kappa, N)
        np.testing.assert_array_equal(table.values[:, 0, 0], 2.0 ** (14 * mu) * a)

    @pytest.mark.parametrize("extended", [True, False])
    def test_one_block_is_the_sequential_recurrence(self, extended):
        """A table of at most one block, and block 0 of a long table, are the
        sequential recurrence bit for bit, in both precisions."""
        real = np.longdouble if extended else np.float64
        for mu in (-2.5, 0.0, 0.5, 1.0, 5.0):
            F = make_power(mu)
            for N in range(_MIN_BLOCK + 2):
                blocked = F.exact_weights(0.1, N, extended)
                assert _same(blocked, _sequential_power(mu, 0.1, N, real)), (mu, N)
            N = 1 << 16
            head = 2 + math.isqrt(N + 1)  # a_0, a_1 and the steps of block 0
            blocked = F.exact_weights(0.1, N, extended)[:head]
            assert _same(blocked, _sequential_power(mu, 0.1, head - 1, real)), mu

    @pytest.mark.parametrize("F, kappa, N", [
        (make_power(0.5), 2.0**-13, 1 << 16),
        (make_power(1.0), 2.0**-13, 1 << 16),
        (make_decay(2.0), 0.05, 4000),
        (make_resolvent(DAMPED), 0.05, 4000),
        (make_resolvent(np.array([[-1.0, 2.0j], [0.5j, -0.5]])), 0.05, 400),
    ], ids=["power0.5", "power1", "decay2", "resolvent-real", "resolvent-complex"])
    def test_rounding_measured_as_in_complex_long_double(self, F, kappa, N):
        """The estimate measures a real table's rounding on its real parts; it
        has the bits of the difference taken in complex long double."""
        precise = F.exact_weights(kappa, N, True)
        rough = F.exact_weights(kappa, N, False)
        weights = precise.astype(np.complex128)
        gap = np.max(value_norm(rough - precise))
        rounding = np.max(value_norm(weights - precise.astype(np.clongdouble)))
        half_ulp = 0.5 * np.spacing(np.max(value_norm(weights)))
        table = cq_weights_fft(F, kappa, N)
        assert table.accuracy_estimate == max(float(gap + rounding), float(half_ulp))

    def test_nan_from_the_double_rerun_reads_inf(self):
        """A rerun that meets inf * 0 gives NaN entries; the estimate is inf."""
        F = make_power(0.5)

        def weights(kappa, N, extended=True):
            w = F.exact_weights(kappa, N, extended)
            return w if extended else np.full_like(w, np.nan)

        table = cq_weights_fft(dataclasses.replace(F, exact_weights=weights), 0.1, 8)
        assert table.accuracy_estimate == np.inf
        np.testing.assert_array_equal(table.values, cq_weights_fft(F, 0.1, 8).values)


class TestFftRoute:
    """Contour weights must agree with every closed form available."""

    def test_matches_closed_forms(self):
        kappa, N = 0.1, 32
        symbols = [
            make_power(1.0),
            make_power(-1.0),
            make_power(0.0),
            make_power(0.5),
            make_decay(2.0),
            make_resolvent(DAMPED),
        ]
        for F in symbols:
            fft = cq_weights_fft(F, kappa, N, fft_size=default_fft_size(N))
            closed = cq_weights_fft(F, kappa, N)
            assert compare_weight_tables(fft, closed) <= 1e-10, F.name

    def test_matches_decay_hand_formula(self):
        kappa, a, N = 0.2, 1.5, 40
        table = cq_weights_fft(make_decay(a), kappa, N, fft_size=default_fft_size(N))
        ref = cq_weights_fft(make_decay(a), kappa, N).values[:, 0, 0].real
        np.testing.assert_allclose(table.values[:, 0, 0].real, ref, atol=1e-12)
        assert np.max(np.abs(table.values.imag)) <= 1e-12

    def test_fft_size_doubling_is_stable(self):
        kappa, N = 0.1, 24
        F = from_spec("delay:1.0")
        t1 = cq_weights_fft(F, kappa, N)
        t2 = cq_weights_fft(F, kappa, N, fft_size=2 * t1.fft_size)
        assert compare_weight_tables(t1, t2) <= 1e-10

    def test_cauchy_product_property(self):
        # weights of F*G are the discrete convolution of the weight sequences
        kappa, N = 0.2, 24
        F, G = make_decay(1.0), make_decay(2.0)
        wf = cq_weights_fft(F, kappa, N).values[:, 0, 0]
        wg = cq_weights_fft(G, kappa, N).values[:, 0, 0]
        wprod = cq_weights_fft(symbol_product(F, G), kappa, N).values[:, 0, 0]
        conv = np.convolve(wf, wg)[: N + 1]
        np.testing.assert_allclose(wprod, conv, rtol=1e-9, atol=1e-12)

    def test_matrix_symbol_weights(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        table = cq_weights_fft(make_resolvent(A), 0.1, 16)
        assert table.values.shape == (17, 2, 2)
        assert table.dims == (2, 2)

    def test_accuracy_estimate_semantics(self):
        # for F = 1 the contour maximum is 1, so the estimate is sqrt(eps)
        table = cq_weights_fft(from_spec("power:0"), 0.1, 8, fft_size=default_fft_size(8))
        np.testing.assert_allclose(
            table.accuracy_estimate, np.sqrt(np.finfo(float).eps), rtol=1e-6
        )

    def test_parameter_validation(self):
        F = from_spec("power:0")
        for fft_size in (None, 64):  # the exact route and the contour alike
            with pytest.raises(ValueError):
                cq_weights_fft(F, 0.0, 8, fft_size=fft_size)
            with pytest.raises(ValueError):
                cq_weights_fft(F, 0.1, -1, fft_size=fft_size)
        with pytest.raises(ValueError):
            cq_weights_fft(F, 0.1, 8, fft_size=6)  # not a power of two
        with pytest.raises(ValueError):
            cq_weights_fft(F, 0.1, 8, fft_size=4)  # smaller than N+1


class TestDefaultFftSize:
    """Power of two >= 8(N+1)."""

    def test_values(self):
        assert default_fft_size(0) == 8
        assert default_fft_size(63) == 512
        assert default_fft_size(64) == 1024

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            default_fft_size(-1)


class TestWeightTable:
    """Container validation and helpers."""

    def test_validation(self):
        vals = np.zeros((3, 1, 1), dtype=complex)
        with pytest.raises(ValueError):
            WeightTable(kappa=0.0, values=vals, fft_size=0, accuracy_estimate=0.0)
        with pytest.raises(ValueError):
            WeightTable(kappa=0.1, values=vals, fft_size=0, accuracy_estimate=-1.0)
        with pytest.raises(ValueError, match="not NaN"):
            WeightTable(kappa=0.1, values=vals, fft_size=0, accuracy_estimate=float("nan"))
        inf = WeightTable(kappa=0.1, values=vals, fft_size=0, accuracy_estimate=float("inf"))
        assert inf.accuracy_estimate == float("inf")

    def test_compare_requires_matching_shape(self):
        a = cq_weights_fft(make_power(-1.0), 0.1, 4)
        b = cq_weights_fft(make_power(-1.0), 0.1, 5)
        c = cq_weights_fft(make_power(-1.0), 0.2, 4)
        with pytest.raises(ValueError):
            compare_weight_tables(a, b)
        with pytest.raises(ValueError):
            compare_weight_tables(a, c)

    def test_csv_layout(self):
        table = cq_weights_fft(make_power(-1.0), 0.1, 2)
        buf = io.StringIO()
        weights_to_csv(table, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "m,re,im"
        assert lines[1] == "# entry 0,0"
        first = lines[2].split(",")
        assert first[0] == "0"
        np.testing.assert_allclose(float(first[1]), 0.05)
        # each value is written as f"{x:.17g}" would write it, extremes included
        vals = np.array([
            [[complex(-0.0, 5e-324), complex(1e308, 0.0)],
             [complex(-1e308, -0.0), complex(7.0, 1.0 / 3.0)]],
            [[complex(2.0, -5e-324), complex(0.1, 0.2)],
             [complex(-3.0, 1e308), complex(0.0, -0.0)]],
        ])
        table = WeightTable(kappa=0.5, values=vals, fft_size=0, accuracy_estimate=0.0)
        buf = io.StringIO()
        weights_to_csv(table, buf)
        expected = ["m,re,im"]
        for i in range(2):
            for j in range(2):
                expected.append(f"# entry {i},{j}")
                expected += [f"{m},{z.real:.17g},{z.imag:.17g}"
                             for m, z in enumerate(vals[:, i, j])]
        assert buf.getvalue() == "\n".join(expected) + "\n"


# extremes that %.17g must write as it writes them one row at a time
CSV_EXTREMES = [1e300, -1e300, 1e-300, -1e-300, 5e-324, -2.5e-310, -0.0, 0.0, 1.0 / 3.0]


def csv_values(rng, shape):
    """Random doubles with every entry of ``CSV_EXTREMES`` among them."""
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 20, size=shape)
    flat = values.reshape(-1)
    flat[: len(CSV_EXTREMES)] = CSV_EXTREMES[: flat.size]
    rng.shuffle(flat)
    return values


def percent_rows(columns) -> str:
    """The rows ``"%d,%.17g,...\n" % (n, *values)``, one ``%`` per row."""
    row = "%d" + ",%.17g" * len(columns) + "\n"
    values = zip(*(np.asarray(c).tolist() for c in columns))
    return "".join(row % (n, *v) for n, v in enumerate(values))


def assert_rows_match(columns) -> None:
    """write_csv_rows writes what ``%`` writes; a mismatch names its first row."""
    buf = io.StringIO()
    write_csv_rows(buf, columns)
    got, want = buf.getvalue(), percent_rows(columns)
    if got != want:
        got, want = got.splitlines(), want.splitlines()
        n = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
        pytest.fail(f"row {n}: {got[n : n + 1]} != {want[n : n + 1]}, "
                    f"{len(got)} rows written, {len(want)} expected")


class TestCsvRows:
    """The block writer formats 4096 rows at a time, with the bytes of one
    ``%`` per row."""

    ROWS = [0, 1, 4095, 4096, 4097, 8193]

    @pytest.mark.parametrize("rows", ROWS)
    def test_write_csv_rows(self, rows):
        rng = np.random.default_rng(rows)
        columns = list(csv_values(rng, (2, rows)))
        assert_rows_match(columns)

    @pytest.mark.parametrize("rows", ROWS[1:])
    def test_weights_csv(self, rows):
        rng = np.random.default_rng(rows)
        vals = csv_values(rng, (rows, 2, 2)) + 1j * csv_values(rng, (rows, 2, 2))
        table = WeightTable(kappa=0.5, values=vals, fft_size=0, accuracy_estimate=0.0)
        buf = io.StringIO()
        weights_to_csv(table, buf)
        expected = "m,re,im\n"
        for i, j in np.ndindex(2, 2):
            expected += f"# entry {i},{j}\n" + "".join(
                "%d,%.17g,%.17g\n" % (m, z.real, z.imag) for m, z in enumerate(vals[:, i, j])
            )
        assert buf.getvalue().split("\n") == expected.split("\n")

    def test_random_bit_patterns(self):
        """10^6 doubles drawn as raw bits: every exponent, NaNs and infinities."""
        rng = np.random.default_rng(2026)
        bits = rng.integers(0, 2**64, size=10**6, dtype=np.uint64)
        columns = list(bits.view(np.float64).reshape(2, -1))
        assert_rows_match(columns)

    def test_powers_of_ten_and_their_neighbours(self):
        powers = 10.0 ** np.arange(-307, 309)
        values = np.concatenate([np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf)])
        columns = [values, -values[::-1]]
        assert_rows_match(columns)

    def test_dyadic_grid_ties_take_no_fallback(self):
        """The nodes n * 2**-17 for n >= 2**17 have 18 significant digits; the
        odd ones end in a 5, an exact tie at 17 digits, which the integer test
        rounds half to even.  With an 80-bit long double only t = 1.0, on the
        edge 1e16, goes to ``%``."""
        n = np.arange(2**20 + 1)
        nodes = n * 2.0**-17
        ties = (n >= 2**17) & (n % 2 == 1)
        assert ties.sum() == 458752
        M = np.zeros((len(n), 6), dtype=np.uint64)
        slow = _digit_fields(nodes, M, 0, _COMMA, _tables())
        assert not ties[slow].any()
        if np.finfo(np.longdouble).nmant >= 63:
            assert nodes[slow].tolist() == [1.0]
        assert_rows_match([nodes])

    def test_special_values(self):
        rng = np.random.default_rng(3)
        subnormal = rng.integers(1, 2**52, size=5000, dtype=np.uint64).view(np.float64)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                   np.finfo(np.float64).tiny, np.finfo(np.float64).max, -np.finfo(np.float64).max]
        values = np.concatenate([special, subnormal, -subnormal])
        columns = [values, rng.permutation(values)]
        assert_rows_match(columns)

    def test_zero_columns_keep_their_signs(self):
        """A column of zeros is written as "0" and "-0" directly."""
        zeros = np.where(np.arange(5000) % 3 == 0, -0.0, 0.0)
        columns = [np.arange(5000) * 0.01, zeros, np.zeros(5000)]
        assert_rows_match(columns)

    def test_rounding_premises(self):
        """Each power of ten is correctly rounded to long double, and
        y = |x| * 10**p is within _BAND of its exact value."""
        pow10 = _tables().pow10
        for p, power in zip(range(_P_MIN, _P_MAX + 1), pow10):
            exact = Fraction(10) ** p
            _, exponent = np.frexp(power)
            ulp = Fraction(2) ** (int(exponent) - np.finfo(np.longdouble).nmant - 1)
            assert abs(Fraction(*power.as_integer_ratio()) - exact) <= ulp / 2, p
        rng = np.random.default_rng(4)
        for x in 10.0 ** rng.uniform(-320, 308, size=2000):
            p = 16 - math.floor(math.log10(x))
            y = np.longdouble(x) * pow10[p - _P_MIN]
            if 1e16 <= y < 1e17:
                exact = Fraction(x) * Fraction(10) ** p
                assert abs(Fraction(*y.as_integer_ratio()) - exact) <= _BAND


class TestZooSmoke:
    """Every shipped symbol yields a finite weight table."""

    def test_all_symbols(self):
        for name, F in builtin_zoo().items():
            table = cq_weights_fft(F, 0.1, 16)
            assert np.all(np.isfinite(table.values)), name
