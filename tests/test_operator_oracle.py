"""The operator against an independent brute-force sum, plus order independence.

The reference re-derives the sigmoid kernel from its tail masses,
``1 - phi(y) = phi(-y) = 1 / (1 + exp(rate * y**alpha))``, at the exact
arguments ``u - (k - 1)`` and ``u - (k + 1)``, and sums every
lattice term in a window at least four times as wide as both its own tail
bound and the operator's partition radius, so it shares neither the
operator's kernel code nor its closed-form tails.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nnapprox import (
    ActivationParams,
    FunctionSpec,
    NumericalError,
    OperatorConfig,
    SymmetrizedDensity,
    approximate,
    approximate_grid,
    make_function,
    stability_gaps,
)
from nnapprox.cli import main

KERNELS = {
    "alpha=1": (2.0, 1.0, 1.0),
    "alpha=0.5": (2.0, 1.0, 0.5),
    "alpha=0.3": (2.0, 1.0, 0.3),
    "heavy-tail": (1.1, 0.5, 0.5),
}
TOL = 1e-12
_DROPPED = 1e-17        # tail mass the reference window may leave out, before widening
_BLOCK = 1 << 14        # terms per temporary array


def _upper_tail(p: ActivationParams, y: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(p.rate * y**p.alpha))


def _kernel(p: ActivationParams, right: np.ndarray, left: np.ndarray) -> np.ndarray:
    """W(x) from ``right = x + 1`` and ``left = x - 1``, formed exactly by the caller."""
    t_right, t_left = _upper_tail(p, np.abs(right)), _upper_tail(p, np.abs(left))
    # Both arguments on one side of 0: the one nearer 0 has the larger tail.
    out = 0.5 * np.abs(t_left - t_right)
    core = (left < 0.0) & (right > 0.0)
    out[core] = 0.5 * (1.0 - t_right[core] - t_left[core])
    return out


def _reference(p, radius, n, fn, a, extension, eval_mode, x):
    """sum_k f_ext(k/n) W(nx - k) over |k - nx| <= 4 * radius, term by term."""
    bound = 1.0 + (math.log(2.0 / _DROPPED) / p.rate) ** (1.0 / p.alpha)
    half = 4.0 * max(bound, radius)
    u = n * x
    raw = mass = 0.0
    k0, k1 = math.ceil(u - half), math.floor(u + half)
    for start in range(k0, k1 + 1, _BLOCK):
        k = np.arange(start, min(start + _BLOCK, k1 + 1), dtype=float)
        xs = k / n
        inside = np.abs(xs) <= a
        w = _kernel(p, u - (k - 1.0), u - (k + 1.0))
        if extension == "clamp":
            vals = fn(np.clip(xs, -a, a))
        else:
            vals = np.where(inside, fn(np.clip(xs, -a, a)), 0.0)
        if extension == "none":
            w = np.where(inside, w, 0.0)
        raw += float(np.sum(w * vals))
        mass += float(np.sum(w))
    return raw if eval_mode == "raw" else raw / mass


TARGETS = {
    "sin": lambda t: np.sin(1.7 * t),
    "runge": lambda t: 1.0 / (1.0 + 25.0 * t * t),
    "abs_pow": lambda t: np.abs(t) ** 0.5,
    "ramp": lambda t: np.interp(t, [-1.0, -0.2, 0.4, 1.0], [0.3, -1.0, 0.8, 0.1]),
}


@pytest.fixture(scope="module")
def densities():
    return {name: SymmetrizedDensity(ActivationParams(*p)) for name, p in KERNELS.items()}


@pytest.mark.parametrize("kernel", list(KERNELS))
@settings(max_examples=12, deadline=None)
# Offsets a few ulp from phi's cusp at 0 (alpha=0.3 and heavy-tail), which the
# arguments (u - k) + 1 and (u - k) - 1 round away: off by 5.0e-7 and 6.3e-11.
@example(extension="clamp", eval_mode="raw", target="abs_pow", n=8, a=2.5,
         xs=[2.9333219416365058e-18])
@example(extension="clamp", eval_mode="raw", target="abs_pow", n=1, a=2.5,
         xs=[2.781618351395697e-17])
@given(
    extension=st.sampled_from(["clamp", "zero", "none"]),
    eval_mode=st.sampled_from(["raw", "renormalized"]),
    target=st.sampled_from(sorted(TARGETS)),
    n=st.integers(1, 600),
    a=st.sampled_from([0.37, 1.0, 2.5]),
    xs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=2),
)
def test_matches_brute_force(densities, kernel, extension, eval_mode, target, n, a, xs):
    d = densities[kernel]
    fn = TARGETS[target]
    f = FunctionSpec(target, (), a, extension, fn=fn)
    cfg = OperatorConfig(n, eval_mode=eval_mode)
    grid = a * np.array(xs)
    got = approximate_grid(cfg, d, f, grid)
    radius = d._partition_radius(cfg.truncation_eps)
    want = [_reference(d.params, radius, n, fn, a, extension, eval_mode, x) for x in grid]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=TOL)


@pytest.mark.parametrize("alpha", [0.5, 0.3, 0.1])
def test_cusp_offset_matches_40_digit_sum(alpha):
    # u = n x = 4.7e-16 puts the translates k = +-1 a few ulp from phi's cusp at 0,
    # where rounding (u - k) +- 1 moves the sum by up to 6.3e-7.  Every radius
    # here spans the 129-point domain, so the operator sums every term the
    # reference does: the domain's terms and the two clamped tails.
    p = ActivationParams(2.0, 1.0, alpha)
    f = make_function("sin")
    n, x = 64, 7.3e-18
    got = approximate(OperatorConfig(n, eval_mode="raw"), SymmetrizedDensity(p), f, x)
    k = np.arange(-n, n + 1)
    with mpmath.workdps(40):
        rate, u = mpmath.mpf(p.rate), mpmath.mpf(n * x)

        def phi(t):
            return 1 / (1 + mpmath.exp(-rate * mpmath.sign(t) * abs(t) ** alpha))

        want = sum(fk * (phi(u - (j - 1)) - phi(u - (j + 1))) / 2
                   for j, fk in zip(k.tolist(), f(k / n).tolist()))
        want += f(-1.0) * (phi(-n - 1 - u) + phi(-n - u)) / 2
        want += f(1.0) * (phi(u - n) + phi(u - n - 1)) / 2
    assert abs(got - want) <= 1e-16


@pytest.mark.parametrize("kernel", ["heavy-tail", "alpha=0.3"])
def test_formerly_refused_kernels_match_brute_force(densities, kernel):
    # Both kernels used to exhaust the second-moment radius budget at the
    # default tolerance and raise NumericalError.
    d = densities[kernel]
    f = make_function("runge")
    grid = np.array([-1.0, 0.0, 0.13, 1.0])
    got = approximate_grid(OperatorConfig(64), d, f, grid)
    radius = d._partition_radius(1e-10)
    want = [_reference(d.params, radius, 64, f.fn, 1.0, "clamp", "renormalized", x)
            for x in grid]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=TOL)


@pytest.mark.parametrize("flags", [
    ["--q", "1.1", "--theta", "0.5", "--alpha", "0.5"],
    ["--alpha", "0.3"],
    ["--alpha", "0.1"],
])
def test_formerly_refused_approx_runs(tmp_path, capsys, flags):
    out = tmp_path / "a.csv"
    assert main(["approx", *flags, "--fn", "runge", "--n", "64", "--grid-points", "41",
                 "--out", str(out)]) == 0
    rows = np.array([line.split(",") for line in out.read_text().strip().splitlines()[1:]],
                    dtype=float)
    assert rows.shape == (41, 4)
    # Renormalized sigmoid output is a convex combination of the samples.
    assert np.all((rows[:, 2] >= 1.0 / 26.0) & (rows[:, 2] <= 1.0))


def test_shuffled_grid_over_several_chunks_is_bit_identical(default_density, rng):
    f = make_function("runge")
    cfg = OperatorConfig(512)
    grid = np.linspace(-1.0, 1.0, 2001)   # about 32 chunks of 257-term windows
    perm = rng.permutation(grid.size)
    ordered = approximate_grid(cfg, default_density, f, grid)
    shuffled = approximate_grid(cfg, default_density, f, grid[perm])
    np.testing.assert_array_equal(shuffled, ordered[perm])
    for i in (0, 777, 2000):
        assert approximate(cfg, default_density, f, float(grid[i])) == ordered[i]


def test_window_wider_than_one_chunk_matches_brute_force(densities):
    # 2**17 * 2 + 1 in-domain points under a radius of 2**19: the window is
    # split into column blocks.
    d = densities["alpha=0.3"]
    f = make_function("sin", (3.0,))
    n = 2**17
    got = approximate_grid(OperatorConfig(n), d, f, [0.3])
    radius = d._partition_radius(1e-10)
    want = _reference(d.params, radius, n, f.fn, 1.0, "clamp", "renormalized", 0.3)
    assert got[0] == pytest.approx(want, abs=TOL)


@pytest.mark.parametrize("extension,eval_mode", [
    ("none", "renormalized"), ("none", "raw"), ("zero", "renormalized"), ("zero", "raw"),
])
def test_radius_past_the_domain_matches_whole_domain_sum(extension, eval_mode):
    # At alpha = 0.1 the partition radius exceeds 2**52, but every window
    # already spans the whole 129-point domain, so the operator caps the
    # radius there and sums every in-domain term.
    p = ActivationParams(2.0, 1.0, 0.1)
    d = SymmetrizedDensity(p)
    with pytest.raises(NumericalError, match="exceeds 2\\*\\*52"):
        d._partition_radius(1e-10)
    n, fn = 64, TARGETS["ramp"]
    f = FunctionSpec("ramp", (), 1.0, extension, fn=fn)
    grid = np.linspace(-1.0, 1.0, 17)
    got = approximate_grid(OperatorConfig(n, eval_mode=eval_mode), d, f, grid)
    k = np.arange(-n, n + 1, dtype=float)
    want = []
    for x in grid:
        w = _kernel(p, n * x - (k - 1.0), n * x - (k + 1.0))
        raw = float(np.sum(w * fn(k / n)))
        # Renormalized "none" divides by the in-domain mass; "zero" by the
        # mass of every translate, which is 1 in sigmoid mode.
        want.append(raw / float(np.sum(w)) if (extension, eval_mode) == ("none", "renormalized")
                    else raw)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=TOL)


def test_stability_bound_past_the_domain_covers_every_sample():
    d = SymmetrizedDensity(ActivationParams(2.0, 1.0, 0.1))
    n = 64
    pairs = [(make_function("pwlin", (float(2 * i),)), make_function("pwlin", (float(2 * i + 1),)))
             for i in range(5)]
    xs = np.arange(-n, n + 1) / n
    for (gap, bound), (f, g) in zip(stability_gaps(OperatorConfig(n), d, pairs, [0.0, 0.5]),
                                    pairs):
        assert bound == float(np.max(np.abs(f(xs) - g(xs))))
        assert gap <= bound + 1e-10
