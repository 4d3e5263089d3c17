"""Target registry: lookups, defaults, determinism, and validation."""

import math

import numpy as np
import pytest

from nnapprox import (
    DomainError,
    FunctionSpec,
    InputError,
    ParameterError,
    builtin_functions,
    make_function,
)
from nnapprox.targets import _BUILTINS, _pwlin_knots


class TestRegistry:
    def test_all_expected_names_present(self):
        names = {e.name for e in builtin_functions()}
        assert {"const", "linear", "poly", "sin", "abs_pow", "runge", "osc", "pwlin"} <= names

    def test_every_builtin_constructs_with_defaults(self):
        for entry in builtin_functions():
            f = make_function(entry.name)
            assert np.isfinite(f(0.25))

    def test_names_unique(self):
        names = [e.name for e in builtin_functions()]
        assert len(names) == len(set(names))

    def test_unknown_name_lists_available(self):
        with pytest.raises(InputError) as exc:
            make_function("nope")
        assert "abs_pow" in str(exc.value) and "runge" in str(exc.value)

    def test_wrong_arity_rejected(self):
        with pytest.raises(InputError):
            make_function("sin", (1.0, 2.0))
        with pytest.raises(InputError):
            make_function("poly", ())


class TestBuiltins:
    def test_abs_pow_formula(self):
        f = make_function("abs_pow", (0.5,))
        assert f(0.25) == pytest.approx(0.5)
        assert f(-0.25) == pytest.approx(0.5)

    def test_abs_pow_exponent_validated(self):
        with pytest.raises(ParameterError):
            make_function("abs_pow", (1.5,))

    def test_sin_default_frequency(self):
        f = make_function("sin")
        assert f(1.0) == pytest.approx(1.0)

    def test_osc_is_x_times_sin(self):
        f = make_function("osc", (3.0,))
        x = np.linspace(-1.0, 1.0, 11)
        np.testing.assert_allclose(f(x), x * np.sin(3.0 * x))

    def test_poly_coefficients_low_to_high(self):
        f = make_function("poly", (1.0, 0.0, 2.0))
        assert f(0.5) == pytest.approx(1.5)

    def test_runge_peak(self):
        f = make_function("runge")
        assert f(0.0) == 1.0
        assert f(1.0) == pytest.approx(1.0 / 26.0)

    def test_pwlin_deterministic_per_seed(self):
        a = make_function("pwlin", (7.0,))
        b = make_function("pwlin", (7.0,))
        c = make_function("pwlin", (8.0,))
        x = np.linspace(-1.0, 1.0, 101)
        np.testing.assert_array_equal(a(x), b(x))
        assert np.max(np.abs(a(x) - c(x))) > 1e-3

    def test_pwlin_seed_validated(self):
        with pytest.raises(ParameterError):
            make_function("pwlin", (1.5,))

    @pytest.mark.parametrize("seed", [-1.0, float("inf"), float("nan")])
    def test_pwlin_seed_outside_the_integers_rejected(self, seed):
        # inf and nan used to escape as a bare OverflowError and ValueError.
        with pytest.raises(ParameterError):
            make_function("pwlin", (seed,))


class TestFunctionSpec:
    def test_requires_callable(self):
        with pytest.raises(ParameterError):
            FunctionSpec("f", (), 1.0, "clamp", fn=None)

    def test_bad_extension_rejected(self):
        with pytest.raises(ParameterError):
            FunctionSpec("f", (), 1.0, "wrap", fn=lambda x: x)

    def test_bad_half_width_rejected(self):
        with pytest.raises(ParameterError):
            make_function("sin", half_width=0.0)

    @pytest.mark.parametrize("half_width", [True, False])
    def test_bool_half_width_rejected(self, half_width):
        with pytest.raises(ParameterError):
            FunctionSpec("f", (), half_width, "clamp", fn=lambda x: x)
        with pytest.raises(ParameterError):
            make_function("sin", half_width=half_width)

    @pytest.mark.parametrize("half_width", [float("inf"), float("nan")])
    def test_non_finite_half_width_rejected(self, half_width):
        with pytest.raises(ParameterError):
            FunctionSpec("f", (), half_width, "clamp", fn=lambda x: x)

    def test_equality_ignores_callable_identity(self):
        a = make_function("sin", (2.0,), 1.5, "zero")
        b = make_function("sin", (2.0,), 1.5, "zero")
        assert a == b

    def test_scalar_and_array_calls(self):
        f = make_function("linear")
        assert isinstance(f(0.5), float)
        assert f(np.array([0.1, 0.2])).shape == (2,)

    @pytest.mark.parametrize("fn", [
        lambda x: 1.0,                      # scalar instead of one value per point
        lambda x: np.zeros(2),              # wrong length
        lambda x: np.where(x > 0.5, np.nan, x),
        lambda x: np.where(x == 0.0, np.inf, x),
    ])
    def test_malformed_output_rejected(self, fn):
        f = FunctionSpec("bad", (), 1.0, "clamp", fn=fn)
        with pytest.raises(DomainError):
            f(np.array([0.0, 0.25, 0.75]))


# The built-ins' values at default and non-default parameters, as explicit
# formulas; the outputs must match them bit for bit.
_X = np.linspace(-1.0, 1.0, 41)
_A = 2.5
_X_WIDE = np.linspace(-_A, _A, 41)


def _pwlin_formula(seed, a, x):
    ys = np.random.default_rng(seed).uniform(-1.0, 1.0, 9)
    return np.interp(x, np.linspace(-a, a, 9), ys)


PINNED = {
    "const": [(None, lambda x: np.full(x.shape, 1.0)),
              ((-2.5,), lambda x: np.full(x.shape, -2.5))],
    "linear": [(None, lambda x: x)],
    "poly": [(None, lambda x: 0.0 + (1.0 + -0.25 * x) * x),
             ((1.0, -2.0, 0.5, 3.0), lambda x: 1.0 + (-2.0 + (0.5 + 3.0 * x) * x) * x)],
    "sin": [(None, lambda x: np.sin(np.pi / 2.0 * x)), ((3.0,), lambda x: np.sin(3.0 * x))],
    "abs_pow": [(None, lambda x: np.abs(x) ** 0.5), ((0.3,), lambda x: np.abs(x) ** 0.3)],
    "runge": [(None, lambda x: 1.0 / (1.0 + 25.0 * x * x))],
    "osc": [(None, lambda x: np.sin(8.0 * x) * x), ((2.5,), lambda x: np.sin(2.5 * x) * x)],
    "pwlin": [(None, lambda x: _pwlin_formula(0, 1.0, x)),
              ((11.0,), lambda x: _pwlin_formula(11, 1.0, x))],
}


class TestPinnedBuiltins:
    def test_every_builtin_is_pinned(self):
        assert set(PINNED) == {e.name for e in builtin_functions()}

    @pytest.mark.parametrize("name,params,formula", [
        (name, params, formula) for name, cases in PINNED.items() for params, formula in cases
    ])
    def test_values_match_formula_bit_for_bit(self, name, params, formula):
        f = make_function(name, params)
        np.testing.assert_array_equal(f(_X), formula(_X))
        assert f(0.375) == formula(np.array(0.375))

    def test_pwlin_knots_span_the_domain(self):
        f = make_function("pwlin", (4.0,), _A)
        np.testing.assert_array_equal(f(_X_WIDE), _pwlin_formula(4, _A, _X_WIDE))

    def test_parameters_stored_as_floats(self):
        f = make_function("poly", (1, 2), 3)
        assert f.parameters == (1.0, 2.0) and all(type(p) is float for p in f.parameters)
        assert type(f.half_width) is float

    @pytest.mark.parametrize("entry", builtin_functions(), ids=lambda e: e.name)
    @pytest.mark.parametrize("extension", ["clamp", "zero", "none"])
    def test_constructor_equals_make_function(self, entry, extension):
        _, defaults, _ = _BUILTINS[entry.name]
        got = entry.constructor(defaults, _A, extension)
        want = make_function(entry.name, defaults, _A, extension)
        assert got == want
        np.testing.assert_array_equal(got(_X_WIDE), want(_X_WIDE))


def test_pwlin_knots_equal_linspace_bit_for_bit():
    # Log-uniform half-widths over the whole double range, plus the subnormal
    # ones whose step underflows to 0 and the ones whose knots overflow to inf
    # or turn NaN: every knot must carry linspace's bits.
    widths = np.exp(np.random.default_rng(3).uniform(math.log(1e-323), math.log(1e308), 20000))
    widths = widths.tolist() + [5e-324, 1e-323, 2.2250738585072014e-308, 1.0, 1.037, 2.5,
                                8.98846567431158e307, 1.7976931348623157e308]
    with np.errstate(over="ignore", invalid="ignore"):
        for a in widths:
            want = np.linspace(-a, a, 9)
            assert _pwlin_knots(a).view(np.uint64).tolist() == want.view(np.uint64).tolist(), a
