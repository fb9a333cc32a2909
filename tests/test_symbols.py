"""Tests for symbol construction, operator norms, derivatives and growth certificates."""

import mpmath
import numpy as np
import pytest

from trcq_kit import (
    CFModel,
    Symbol,
    builtin_zoo,
    from_spec,
    make_decay,
    make_delay,
    make_power,
    make_resolvent,
    sample_cplus,
    symbol_product,
    validate_growth,
    value_norm,
)


class TestCFModel:
    """Envelope x -> scale * min(x, 1)^(-exponent)."""

    def test_values(self):
        cf = CFModel(scale=2.0, exponent=3.0)
        np.testing.assert_allclose(cf(0.5), 2.0 * 0.5**-3)
        np.testing.assert_allclose(cf(4.0), 2.0)  # clamped above 1
        np.testing.assert_allclose(cf(np.array([0.25, 2.0])), [2.0 * 4.0**3, 2.0])

    def test_domain_and_validation(self):
        cf = CFModel(scale=1.0, exponent=0.0)
        with pytest.raises(ValueError):
            cf(0.0)
        with pytest.raises(ValueError):
            CFModel(scale=-1.0, exponent=0.0)
        with pytest.raises(ValueError):
            CFModel(scale=1.0, exponent=-0.5)


class TestValueNorm:
    """Operator 2-norm of matrix stacks; closed forms must match LAPACK."""

    def test_scalar_blocks(self):
        vals = np.array([[[3.0 + 4.0j]]])
        np.testing.assert_allclose(value_norm(vals), [5.0])

    def test_2x2_matches_svd(self):
        rng = np.random.default_rng(21)
        mats = rng.standard_normal((500, 2, 2)) + 1j * rng.standard_normal((500, 2, 2))
        ref = np.linalg.svd(mats, compute_uv=False)[..., 0]
        np.testing.assert_allclose(value_norm(mats), ref, rtol=1e-12)

    def test_2x2_against_mpmath(self):
        """Nearly normal matrices, where both singular values almost agree: the
        skew resolvent at s = 889.82 + 0.49i once came out 2e-10 relative off,
        from the cancellation in (f + sqrt(f^2 - 4 det^2))/2."""
        F = make_resolvent(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        s = np.concatenate([[889.8212629913678 + 0.4932502570301502j], sample_cplus(299, 3)])
        mats = np.concatenate([F(s), F.derivative(s)])
        with mpmath.workdps(40):
            for mat, norm in zip(mats, value_norm(mats)):
                a, b, c, d = (mpmath.mpc(complex(x)) for x in mat.ravel())
                p = abs(a) ** 2 + abs(b) ** 2
                q = abs(c) ** 2 + abs(d) ** 2
                r = abs(a * mpmath.conj(c) + b * mpmath.conj(d))
                ref = mpmath.sqrt((p + q + mpmath.sqrt((p - q) ** 2 + 4 * r * r)) / 2)
                assert abs(norm - ref) <= 1e-15 * ref

    def test_2x2_keeps_long_double(self):
        mats = np.array([[[1.0, 2.0j], [0.5, -1.0]]], dtype=np.clongdouble)
        norm = value_norm(mats)
        assert norm.dtype == np.longdouble
        np.testing.assert_allclose(float(norm[0]), value_norm(mats.astype(complex))[0], rtol=1e-15)

    def test_larger_blocks_use_svd(self):
        rng = np.random.default_rng(22)
        mats = rng.standard_normal((20, 3, 3)) + 1j * rng.standard_normal((20, 3, 3))
        ref = np.linalg.svd(mats, compute_uv=False)[..., 0]
        np.testing.assert_allclose(value_norm(mats), ref, rtol=1e-12)

    def test_plain_vector_input(self):
        np.testing.assert_allclose(value_norm(np.array(2.0 + 0j)), 2.0)


class TestZoo:
    """Shipped symbols evaluate to their defining formulas."""

    def test_power_values(self):
        s = np.array([4.0 + 0j, 0.5 + 1.0j, 2.0 + 3.0j])
        np.testing.assert_allclose(
            make_power(0.5)(s)[..., 0, 0], np.exp(0.5 * np.log(s)), rtol=1e-15
        )
        np.testing.assert_allclose(make_power(1.0)(s)[..., 0, 0], s, rtol=1e-15)
        np.testing.assert_allclose(make_power(-1.0)(s)[..., 0, 0], 1.0 / s, rtol=1e-15)
        np.testing.assert_allclose(make_power(0.0)(s)[..., 0, 0], 1.0)

    def test_delay_and_decay(self):
        s = np.array([1.0 + 2.0j])
        np.testing.assert_allclose(
            make_delay(1.5)(s)[..., 0, 0], np.exp(-1.5 * s), rtol=1e-15
        )
        np.testing.assert_allclose(
            make_decay(2.0)(s)[..., 0, 0], 1.0 / (s + 2.0), rtol=1e-15
        )

    @pytest.mark.parametrize("a", [1e-300, 0.5, 2.0, 1e300])
    def test_decay_is_one_over_s_plus_a_bit_for_bit(self, a):
        """decay:a, built as the 1x1 resolvent of -a, keeps every bit of
        1/(s+a), signed zeros included, in double and long double."""
        s = sample_cplus(2000, 7, max_modulus=1e6, min_modulus=1e-6)
        # points on the real axis, approached from both sides
        s = np.concatenate([s, s.real + 0.0j, np.conj(s.real + 0.0j)])
        s_ld = np.empty(s.shape, dtype=np.clongdouble)
        s_ld.real = s.real.astype(np.longdouble) * np.longdouble(1.0 + 2.0**-60)
        s_ld.imag = s.imag.astype(np.longdouble)
        F = make_decay(a)
        for z in (s, s_ld):
            got, ref = F(z)[..., 0, 0], 1.0 / (z + a)
            assert got.dtype == ref.dtype
            for part in (np.real, np.imag):
                np.testing.assert_array_equal(part(got), part(ref))
                np.testing.assert_array_equal(np.signbit(part(got)), np.signbit(part(ref)))

    def test_resolvent_matches_inv(self):
        rng = np.random.default_rng(23)
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        F = make_resolvent(A)
        s = sample_cplus(200, rng)
        vals = F(s)
        ref = np.linalg.inv(s[:, None, None] * np.eye(2) - A)
        np.testing.assert_allclose(vals, ref, rtol=1e-12)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            make_power(1.0)(np.array([-1.0 + 0j]))
        with pytest.raises(ValueError):
            make_delay(0.0)
        with pytest.raises(ValueError):
            make_decay(-1.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
    def test_delay_and_decay_need_finite_parameters(self, bad):
        with pytest.raises(ValueError, match="finite and positive"):
            make_delay(bad)
        with pytest.raises(ValueError, match="finite and positive"):
            make_decay(bad)

    def test_builtin_zoo_contents(self):
        zoo = builtin_zoo()
        assert {"power:0", "power:1", "power:-1", "power:0.5", "delay:1.0",
                "decay:1.0", "resolvent:skew2"} <= set(zoo)
        for F in zoo.values():
            rep = validate_growth(F, samples=2000, seed=99)
            assert rep.violations == 0


def ring_derivative(F, s):
    """F'(s) by the 64-node trapezoid rule on the Cauchy circle of radius
    Re(s)/2 about s: the oracle the closed forms are pinned against."""
    theta = 2.0 * np.pi * np.arange(64) / 64.0
    r = 0.5 * s.real
    ring = s[:, None] + r[:, None] * np.exp(1j * theta)
    weight = np.exp(-1j * theta)[None, :, None, None]
    return (F(ring) * weight).mean(axis=1) / r[:, None, None]


def derivative_envelope(F, s):
    """Part (b)'s envelope Theta2(Re s) |s|^mu of prop41, written out so that
    it also scales the gate for the mu > 0 symbols of the zoo."""
    x = s.real
    return 2.0 ** (1.0 - F.mu) / x * F.cf(0.5 * x) * np.abs(s) ** F.mu


DERIVATIVE_CASES = {
    **builtin_zoo(),
    "resolvent:damped2": make_resolvent(np.array([[-0.5, 1.0], [-1.5, -0.25]])),
    "power:-0.5*delay:1": symbol_product(make_power(-0.5), make_delay(1.0)),
}


class TestDerivative:
    """Each family's closed-form F' against the Cauchy-circle ring."""

    @pytest.mark.parametrize("name", DERIVATIVE_CASES)
    def test_closed_form_matches_ring(self, name):
        """The gate is absolute in units of part (b)'s bound: delay's F'
        underflows to 0 far right and power:0's is exactly 0, so a relative
        gate would read noise.  Part (b) reads only the norm; the matrices
        are compared too, so a wrong sign cannot pass."""
        F = DERIVATIVE_CASES[name]
        s = sample_cplus(4000, 31)
        closed, ring = F.derivative(s), ring_derivative(F, s)
        envelope = derivative_envelope(F, s)
        assert np.max(np.abs(value_norm(ring) - value_norm(closed)) / envelope) <= 1e-10
        assert np.max(value_norm(ring - closed) / envelope) <= 1e-10

    @pytest.mark.parametrize("name", DERIVATIVE_CASES)
    def test_shape_contract(self, name):
        F = DERIVATIVE_CASES[name]
        s = sample_cplus(12, 5).reshape(3, 4)
        assert F.derivative(s).shape == s.shape + F.dims

    def test_power_zero_is_exactly_zero(self):
        s = sample_cplus(100, 2)
        assert not np.any(make_power(0.0).derivative(s))

    def test_product_without_a_factor_derivative_declares_none(self):
        bare = Symbol(
            name="bare",
            evaluator=lambda s: np.ones(s.shape + (1, 1), dtype=complex),
            mu=0.0,
            cf=CFModel(1.0, 0.0),
        )
        assert bare.derivative is None
        assert symbol_product(bare, make_delay(1.0)).derivative is None
        assert symbol_product(make_delay(1.0), bare).derivative is None


class TestGrowthValidation:
    """validate_growth must accept true certificates and flag false ones."""

    def test_detects_wrong_certificate(self):
        bad = Symbol(
            name="bad",
            evaluator=lambda s: np.ones(s.shape + (1, 1), dtype=complex),
            mu=0.0,
            cf=CFModel(scale=0.1, exponent=0.0),  # claims ||F|| <= 0.1, false
        )
        rep = validate_growth(bad, samples=1000, seed=5)
        assert rep.violations == 1000

    def test_passes_correct_certificate(self):
        rep = validate_growth(make_delay(1.0), samples=5000, seed=6)
        assert rep.violations == 0


class TestSymbolProduct:
    """Products multiply values and certificates, and add growth exponents."""

    def test_values_and_metadata(self):
        F, G = make_decay(1.0), make_delay(0.5)
        P = symbol_product(F, G)
        rng = np.random.default_rng(41)
        s = sample_cplus(100, rng)
        np.testing.assert_allclose(P(s), F(s) @ G(s), rtol=1e-14)
        assert P.mu == F.mu + G.mu
        rep = validate_growth(P, samples=2000, seed=9)
        assert rep.violations == 0


class TestFromSpec:
    """String registry for the CLI."""

    def test_round_trips(self):
        assert from_spec("power:0.5").mu == 0.5
        assert from_spec("delay:2.0").name == "delay:2"
        assert from_spec("decay:1.0").mu == -1.0

    @pytest.mark.parametrize("kind", ["power", "delay", "decay"])
    def test_names_keep_every_digit(self, kind):
        """A parameter is named by its short text only when that text reads
        back as the same double, so distinct parameters get distinct names."""
        assert from_spec(f"{kind}:0.1234567").name == f"{kind}:0.1234567"
        assert from_spec(f"{kind}:0.1234571").name == f"{kind}:0.1234571"
        assert from_spec(f"{kind}:0.50").name == f"{kind}:0.5"
        assert from_spec(f"{kind}:1e-300").name == f"{kind}:1e-300"
        assert from_spec(f"{kind}:{0.1 + 0.2!r}").name == f"{kind}:0.30000000000000004"

    def test_resolvent_files(self, tmp_path):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        npy = tmp_path / "mat.npy"
        np.save(npy, A)
        txt = tmp_path / "mat.txt"
        np.savetxt(txt, A)
        s = np.array([1.0 + 1.0j])
        np.testing.assert_allclose(
            from_spec(f"resolvent:{npy}")(s), from_spec(f"resolvent:{txt}")(s), rtol=1e-14
        )

    def test_errors(self):
        with pytest.raises(ValueError):
            from_spec("power:")
        with pytest.raises(ValueError):
            from_spec("banana:1")
        with pytest.raises(FileNotFoundError):
            from_spec("resolvent:/no/such/file.npy")
