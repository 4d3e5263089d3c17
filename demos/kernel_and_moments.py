"""Walkthrough: the activation profile, the symmetrized kernel, and its moments.

Run as: python demos/kernel_and_moments.py
"""

import numpy as np

from nnapprox import ActivationParams, SymmetrizedDensity, activation_value

# The activation family has three knobs: a base q, a steepness theta and a
# fractional exponent alpha.  In sigmoid mode the profile rises from 0 to 1;
# alpha < 1 flattens the transition away from the origin while sharpening it
# near zero.
for alpha in (1.0, 0.5, 0.3):
    p = ActivationParams(q=2.0, theta=1.0, alpha=alpha, mode="sigmoid")
    xs = np.array([-8.0, -1.0, 0.0, 1.0, 8.0])
    vals = ", ".join(f"{v:.4f}" for v in activation_value(p, xs))
    print(f"alpha={alpha}: phi at {xs.tolist()} -> [{vals}]")

# Differencing two shifted copies produces a bump kernel.  In sigmoid mode it
# is even, nonnegative, and integrates to exactly 1 regardless of parameters.
print("\nkernel normalization across parameter choices (sigmoid mode):")
for q, theta, alpha in [(2.0, 1.0, 1.0), (1.5, 0.5, 0.3), (np.e, 5.0, 0.7)]:
    d = SymmetrizedDensity(ActivationParams(q, theta, alpha, mode="sigmoid"))
    print(f"  q={q:.3g} theta={theta} alpha={alpha}: integral = {d.integral():.10f}")

# The literal mode takes |x| inside the exponent, which makes the profile even
# and the kernel odd, so the same integral collapses to zero.  Keeping the mode
# around makes the difference observable instead of silently corrected.
d_lit = SymmetrizedDensity(ActivationParams(2.0, 1.0, 1.0, mode="literal"))
print(f"\nliteral-mode integral: {d_lit.integral():.3e}  (zero, not one)")

# Integer translates of the sigmoid kernel tile the line: at any offset the
# translate sum telescopes to 1.  This is the property that lets the sampling
# operator reproduce constants exactly.
d = SymmetrizedDensity(ActivationParams(2.0, 1.0, 1.0, mode="sigmoid"))
for u in (0.0, 0.37, 2.5, -19.84):
    print(f"translate sum at u={u:+.2f}: {d.partition_sum(u, 1e-10):.12f}")

# Moments: the first vanishes by symmetry; the second sets the constant in the
# quadratic error bound for twice-differentiable targets.  With alpha = 1 the
# kernel is a logistic profile smeared by a unit-window average, so its second
# moment has the closed form pi^2/(3 rate^2) + 1/3, which the library's general
# Gamma-eta formula reproduces.
m1 = d.continuous_moment(1, 1e-8)
m2 = d.continuous_moment(2, 1e-8)
lam = np.log(2.0)
print(f"\nfirst moment:  {m1.value:+.2e} (+- {m1.quadrature_error_estimate:.1e})")
print(f"second moment: {m2.value:.9f} (closed form {np.pi**2 / (3 * lam**2) + 1 / 3:.9f})")

# The discrete counterpart, summed over the integer lattice, matches the
# continuous second moment and depends only on the offset modulo 1.  One call
# takes a whole array of offsets.
disc = float(np.max(d.second_lattice_moment(np.linspace(0, 1, 17, endpoint=False), 1e-10)))
print(f"lattice second moment (max over offsets): {disc:.9f}")
