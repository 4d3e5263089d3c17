"""Many targets in one operator call, and all stability pairs in one pass.

Each row of ``approximate_many`` must equal the one-target call on the same
target bit for bit, whatever the other targets, their extensions, the grid
order or its chunking.  ``stability_suite`` must equal a per-pair loop,
including a reference that re-derives each gap from two one-target calls and
each bound from its own lattice window.  Each target is called once per
kernel-weight matrix of ``approximate_many`` and once per ``stability_gaps``
while one tile holds its lattice, whose memory does not grow with n.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nnapprox.operator as operator_module
from nnapprox import (
    ActivationParams,
    FunctionSpec,
    InputError,
    NumericalError,
    OperatorConfig,
    SymmetrizedDensity,
    approximate,
    approximate_grid,
    approximate_many,
    make_function,
    stability_gap,
    stability_gaps,
    stability_suite,
)

KERNELS = {
    "alpha=1": (2.0, 1.0, 1.0),
    "alpha=0.5": (2.0, 1.0, 0.5),
    "heavy-tail": (1.1, 0.5, 0.5),
}
TARGETS = [("sin", (1.7,)), ("runge", ()), ("abs_pow", (0.5,)), ("pwlin", (3.0,)),
           ("const", (-0.25,))]
EXTENSIONS = ["clamp", "zero", "none"]


@pytest.fixture(scope="module")
def densities():
    return {name: SymmetrizedDensity(ActivationParams(*p)) for name, p in KERNELS.items()}


def _targets(picks, a):
    return [make_function(*TARGETS[i], half_width=a, extension=ext) for i, ext in picks]


def _assert_rows_match_single_calls(cfg, d, fs, grid):
    many = approximate_many(cfg, d, fs, grid)
    assert many.shape == (len(fs),) + np.shape(grid)
    for row, f in zip(many, fs):
        np.testing.assert_array_equal(row, approximate_grid(cfg, d, f, grid))
    return many


@pytest.mark.parametrize("kernel", list(KERNELS))
@settings(max_examples=10, deadline=None)
@given(
    picks=st.lists(st.tuples(st.integers(0, len(TARGETS) - 1), st.sampled_from(EXTENSIONS)),
                   min_size=1, max_size=6),
    eval_mode=st.sampled_from(["raw", "renormalized"]),
    n=st.integers(1, 600),
    a=st.sampled_from([0.37, 1.0, 2.5]),
    xs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=30),
)
def test_each_row_equals_its_one_target_call(densities, kernel, picks, eval_mode, n, a, xs):
    cfg = OperatorConfig(n, eval_mode=eval_mode)
    _assert_rows_match_single_calls(cfg, densities[kernel], _targets(picks, a), a * np.array(xs))


def test_shuffled_grid_over_several_chunks(default_density, rng):
    fs = _targets([(0, "clamp"), (1, "none"), (3, "zero"), (2, "clamp")], 1.0)
    cfg = OperatorConfig(512)
    grid = np.linspace(-1.0, 1.0, 2001)   # about 32 chunks of 257-term windows
    perm = rng.permutation(grid.size)
    ordered = _assert_rows_match_single_calls(cfg, default_density, fs, grid)
    shuffled = _assert_rows_match_single_calls(cfg, default_density, fs, grid[perm])
    np.testing.assert_array_equal(shuffled, ordered[:, perm])


def test_two_dimensional_grid_keeps_its_shape(default_density):
    fs = _targets([(0, "clamp"), (1, "zero")], 1.0)
    grid = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    many = _assert_rows_match_single_calls(OperatorConfig(32), default_density, fs, grid)
    assert many.shape == (2, 3, 4)


def test_windows_spread_wider_than_the_weight_matrix(default_density):
    # At n = 2**20 the lattice points between these windows outnumber the
    # chunk's weights, so the targets are sampled on the window matrix itself;
    # a lone point always takes the gathered samples of its own window.
    fs = _targets([(0, "clamp"), (4, "zero"), (1, "none")], 1.0)
    cfg = OperatorConfig(2**20)
    grid = np.array([-1.0, -0.5, 0.25, 0.9999999])
    many = _assert_rows_match_single_calls(cfg, default_density, fs, grid)
    for row, f in zip(many, fs):
        assert row.tolist() == [approximate(cfg, default_density, f, x) for x in grid]


class TestManyTargetErrors:
    def test_mismatched_half_widths_rejected(self, default_density):
        fs = [make_function("sin"), make_function("sin", half_width=2.0)]
        with pytest.raises(InputError, match="shared domain"):
            approximate_many(OperatorConfig(16), default_density, fs, [0.0])
        with pytest.raises(InputError, match="shared domain"):
            stability_suite(default_density, OperatorConfig(16), [tuple(fs)], [0.0])

    def test_one_mismatched_pair_rejects_the_suite(self, default_density):
        ok = (make_function("sin"), make_function("runge"))
        bad = (make_function("sin", half_width=2.0), make_function("runge", half_width=2.0))
        with pytest.raises(InputError):
            stability_suite(default_density, OperatorConfig(16), [ok, bad], [0.0])

    def test_empty_target_list_rejected(self, default_density):
        with pytest.raises(InputError):
            approximate_many(OperatorConfig(16), default_density, [], [0.0])
        with pytest.raises(InputError):
            stability_gaps(OperatorConfig(16), default_density, [], [0.0])

    @pytest.mark.parametrize("extensions", [["none", "clamp"], ["none", "zero"], ["clamp"]])
    def test_literal_renormalize_still_raises(self, literal_density, extensions):
        # At the right end a "none" window holds one side of the odd literal
        # kernel, so its mass is far from zero; the tails cancel that mass for
        # the other extensions.  Every target's mass is checked, not the first.
        fs = [make_function("sin", extension=ext) for ext in extensions]
        cfg = OperatorConfig(16)
        if extensions[0] == "none":
            assert np.isfinite(approximate_many(cfg, literal_density, fs[:1], [1.0])).all()
        with pytest.raises(NumericalError, match="too close to zero to renormalize"):
            approximate_many(cfg, literal_density, fs, [1.0])
        raw = approximate_many(OperatorConfig(16, eval_mode="raw"), literal_density, fs, [1.0])
        assert np.all(np.isfinite(raw))


def _reference_gap(cfg, d, f, g, grid):
    """One pair as two one-target calls, and its bound from its own window."""
    pts = np.asarray(grid, dtype=float)
    gap = float(np.max(np.abs(approximate_grid(cfg, d, f, pts) - approximate_grid(cfg, d, g, pts))))
    n, a = cfg.n, f.half_width
    R = d._partition_radius(cfg.truncation_eps)
    k0 = max(math.ceil(n * pts.min() - R), math.ceil(-n * a) - 1)
    k1 = min(math.floor(n * pts.max() + R), math.floor(n * a) + 1)
    xs = np.arange(k0, k1 + 1) / n
    inside = (xs >= -a) & (xs <= a)
    samples, weighted = [], np.ones_like(inside)
    for h in (f, g):
        if h.extension == "clamp":
            samples.append(h(np.clip(xs, -a, a)))
        else:
            samples.append(np.where(inside, h(np.where(inside, xs, 0.0)), 0.0))
            if h.extension == "none":
                weighted &= inside
    bound = float(np.max(np.abs(samples[0] - samples[1])[weighted]))
    return gap, bound


@pytest.mark.parametrize("kernel", list(KERNELS))
@settings(max_examples=8, deadline=None)
@given(
    seeds=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(EXTENSIONS),
                             st.integers(0, 10**6), st.sampled_from(EXTENSIONS)),
                   min_size=1, max_size=8),
    eval_mode=st.sampled_from(["raw", "renormalized"]),
    n=st.integers(1, 300),
    a=st.sampled_from([0.37, 1.0, 2.5]),
    xs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=20),
)
def test_suite_equals_per_pair_loop(densities, kernel, seeds, eval_mode, n, a, xs):
    d, cfg, grid = densities[kernel], OperatorConfig(n, eval_mode=eval_mode), a * np.array(xs)
    pairs = [(make_function("pwlin", (s,), a, e), make_function("pwlin", (t,), a, h))
             for s, e, t, h in seeds]
    suite = stability_suite(d, cfg, pairs, grid)
    assert [(gap, bound) for gap, bound, _ in suite] == [
        stability_gap(cfg, d, f, g, grid) for f, g in pairs
    ] == [_reference_gap(cfg, d, f, g, grid) for f, g in pairs]
    assert [ok for _, _, ok in suite] == [gap <= bound + 1e-10 for gap, bound, _ in suite]


# Extension pairs that mix all three policies, so both bound masks are exercised.
_MIXED = [("clamp", "zero"), ("zero", "none"), ("none", "clamp"), ("clamp", "clamp")]


def _mixed_pairs(a):
    return [(make_function("pwlin", (2.0 * i,), a, e), make_function("pwlin", (2.0 * i + 1,), a, h))
            for i, (e, h) in enumerate(_MIXED)]


# The heavy tail's radius of 616909 would need n = 2**20 for an interior grid,
# where this test takes over a second, so the interior case leaves it out.
_EDGE_CASES = [(case, kernel) for case in ("ends-at-n-4096", "several-chunks", "several-groups")
               for kernel in KERNELS] + [("interior-several-tiles", "alpha=1"),
                                         ("interior-several-tiles", "alpha=0.5")]


@pytest.mark.parametrize("case, kernel", _EDGE_CASES, ids=[f"{c}-{k}" for c, k in _EDGE_CASES])
def test_suite_equals_per_pair_loop_edge_cases(densities, monkeypatch, kernel, case):
    # ends: a grid at +-a, whose bound window spans the domain while the two
    # operator windows touch only its ends; several-groups: one lattice point per tile.
    # interior: every window stays more than R + 1 lattice points inside both
    # ends, so f(-a) and f(a), sampled beside every tile, must not enter a bound.
    a, n, grid = {
        "ends-at-n-4096": (1.037, 4096, np.array([-1.037, 1.037])),
        "several-chunks": (1.0, 512, np.linspace(-1.0, 1.0, 301)),
        "several-groups": (1.0, 64, np.linspace(-1.0, 1.0, 25)),
        "interior-several-tiles": (1.0, None, np.array([-0.1, 0.02, 0.1])),
    }[case]
    d = densities[kernel]
    if case == "several-groups":
        monkeypatch.setattr(operator_module, "_GROUP", 1)
    if case == "interior-several-tiles":
        R = d._partition_radius(1e-10)
        n = 2 ** math.ceil(math.log2((R + 2) / 0.9))
        # Tiles of R lattice points for 8 targets; the hull holds more than 2R.
        monkeypatch.setattr(operator_module, "_GROUP", 8 * (R + 2))
    cfg, pairs = OperatorConfig(n), _mixed_pairs(a)
    assert stability_gaps(cfg, d, pairs, grid) == [
        stability_gap(cfg, d, f, g, grid) for f, g in pairs
    ] == [_reference_gap(cfg, d, f, g, grid) for f, g in pairs]


@pytest.mark.parametrize("group", [None, 1])
def test_pairs_may_be_a_one_shot_iterator(default_density, monkeypatch, group):
    if group is not None:
        monkeypatch.setattr(operator_module, "_GROUP", group)
    cfg, pairs, grid = OperatorConfig(64), _mixed_pairs(1.0), np.linspace(-1.0, 1.0, 25)
    assert (stability_gaps(cfg, default_density, iter(pairs), grid)
            == stability_gaps(cfg, default_density, pairs, grid))
    assert (stability_suite(default_density, cfg, iter(pairs), grid)
            == stability_suite(default_density, cfg, pairs, grid))


def test_stability_memory_does_not_grow_with_n(default_density, monkeypatch):
    # With both budgets patched small, the hulls of 8195 and 131075 lattice
    # points must each peak within a fixed multiple of the sample budget.
    budget = 8 * (1 << 12)   # bytes
    monkeypatch.setattr(operator_module, "_GROUP", 1 << 12)
    monkeypatch.setattr(operator_module, "_CHUNK", 1 << 10)
    pairs, grid = _mixed_pairs(1.0), np.linspace(-1.0, 1.0, 25)
    peaks = []
    for n in (1 << 12, 1 << 16):
        tracemalloc.start()
        try:
            stability_gaps(OperatorConfig(n), default_density, pairs, grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 8 * budget, peaks


@pytest.mark.parametrize("mode", ["sigmoid", "literal"])
def test_grid_memory_does_not_grow_with_grid_size(monkeypatch, mode):
    # With 2**10 weights per matrix and rows per block, grids of 1001 and 10001
    # points must each peak within a few copies of the output plus a fixed
    # multiple of that budget.
    monkeypatch.setattr(operator_module, "_CHUNK", 1 << 10)
    d = SymmetrizedDensity(ActivationParams(2.0, 1.0, 1.0, mode=mode))
    f = make_function("sin", extension="clamp" if mode == "sigmoid" else "none")
    cfg = OperatorConfig(64, eval_mode="renormalized" if mode == "sigmoid" else "raw")
    for points in (1001, 10001):
        grid = np.linspace(-1.0, 1.0, points)
        tracemalloc.start()
        try:
            approximate_grid(cfg, d, f, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * grid.nbytes + 100 * 8 * (1 << 10), (points, peak)


def _counted(f):
    """``f`` with a list that grows by one entry per call of its callable."""
    calls = []

    def fn(x):
        calls.append(x.size)
        return f.fn(x)

    return FunctionSpec(f.name, f.parameters, f.half_width, f.extension, fn), calls


def _count_weight_matrices(monkeypatch, d):
    """A list that grows by one entry per kernel-weight matrix ``d`` forms."""
    matrices = []
    w_raw = d._w_raw
    monkeypatch.setattr(d, "_w_raw", lambda *args: matrices.append(1) or w_raw(*args))
    return matrices


@pytest.mark.parametrize("chunk, points", [(None, 1001), (64, 101)])
def test_each_target_called_once_per_weight_matrix(default_density, monkeypatch, chunk, points):
    # A patched chunk of 64 weights splits every 111-term window into two matrices.
    if chunk is not None:
        monkeypatch.setattr(operator_module, "_CHUNK", chunk)
    matrices = _count_weight_matrices(monkeypatch, default_density)
    counted = [_counted(make_function("sin", extension=ext)) for ext in EXTENSIONS]
    approximate_many(OperatorConfig(512), default_density, [f for f, _ in counted],
                     np.linspace(-1.0, 1.0, points))
    assert len(matrices) > 2
    assert [len(calls) for _, calls in counted] == [len(matrices)] * len(counted)


@pytest.mark.parametrize("group", [None, 1])
def test_stability_calls_each_target_once(default_density, monkeypatch, group):
    # Past the sample budget (patched to 1) the bound calls each target once per
    # one-point tile of the hull [-513, 513] and the pass once per weight matrix,
    # as approximate_many does.
    if group is not None:
        monkeypatch.setattr(operator_module, "_GROUP", group)
    matrices = _count_weight_matrices(monkeypatch, default_density)
    counted = [(_counted(make_function("pwlin", (2.0 * i,), 1.0, e)),
                _counted(make_function("pwlin", (2.0 * i + 1,), 1.0, h)))
               for i, (e, h) in enumerate(_MIXED)]
    grid = np.linspace(-1.0, 1.0, 1001)   # seven weight matrices at n = 512
    stability_gaps(OperatorConfig(512), default_density,
                   [(f, g) for (f, _), (g, _) in counted], grid)
    assert len(matrices) == 7
    calls = 1 if group is None else len(matrices) + 1027
    assert [len(c) for pair in counted for _, c in pair] == [calls] * 2 * len(_MIXED)


@pytest.mark.parametrize("extension", ["clamp", "zero"])
def test_literal_renormalize_refused_before_any_work(literal_density, monkeypatch, extension):
    # The total weight under clamp and zero is the odd kernel's whole translate sum, 0.
    monkeypatch.setattr(literal_density, "_w_raw", lambda *args: pytest.fail("weights formed"))
    f, calls = _counted(make_function("sin", extension=extension))
    g = make_function("runge", extension="none")
    cfg = OperatorConfig(16)
    for call in (lambda: approximate_many(cfg, literal_density, [g, f], [0.3, 1.0]),
                 lambda: stability_gaps(cfg, literal_density, [(g, f)], [0.3, 1.0])):
        with pytest.raises(NumericalError, match="window weight sum 0.000e"):
            call()
    assert calls == []
