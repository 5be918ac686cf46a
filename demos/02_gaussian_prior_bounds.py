"""Gaussian priors: the general-prior bound chain and its closed forms.

For a Gaussian prior and constant Fisher information F the general-prior
MSE bound integrates in closed form through the Tricomi function,

    int sqrt(F p^2 + pdot^2) dphi = (sqrt(2)/sigma) U(-1/2, 0, F sigma^2 / 2),

with a simpler concavity estimate sqrt(F + 1/sigma^2).  The van Trees bound
is tighter here by exactly the factor pi e / 2; the payoff of the MI route
is that it survives sharp-edged priors where van Trees collapses.
"""

import math

import numpy as np

from infobounds import (
    JointModel,
    ParameterGrid,
    PriorDensity,
    cos2_model,
    efroimovich_mi_bound,
    gaussian_prior_mse_bounds,
    mi_bound_general_prior,
    mse_bound_general_prior,
    mutual_information,
    tricomi_u,
    van_trees,
)

MEAN, SIGMA = math.pi / 2.0, 0.4
grid = ParameterGrid(MEAN - 8 * SIGMA, MEAN + 8 * SIGMA, 4001)
joint = JointModel(PriorDensity.gaussian(grid, MEAN, SIGMA), cos2_model(grid))
oracle = mutual_information(joint)

print(f"cos^2 model (F = 1), Gaussian prior sigma = {SIGMA}")
print(f"  oracle MI               = {oracle.mi:.6f} nats")
print(f"  general-prior MI bound  = {mi_bound_general_prior(joint).value:.6f} nats")
print(f"  Efroimovich MI bound    = {efroimovich_mi_bound(joint).value:.6f} nats")

print()
vt = van_trees(joint)
eq_general = mse_bound_general_prior(joint)
print(f"  van Trees MSE bound     = {vt.value:.6f}")
print(f"  general-prior MSE bound = {eq_general.value:.6f}")
print(f"  oracle Bayes MSE        = {oracle.bayes_mse:.6f}")

print()
print("Constant-F closed forms, F sigma^2 sweep (sigma = 1):")
print(f"{'F sigma^2':>10} {'exact':>12} {'simplified':>12} {'exact/simpl':>12} "
      f"{'vanTrees/simpl':>14}")
for f_sigma2 in (0.1, 1.0, 10.0, 100.0):
    exact, simplified = gaussian_prior_mse_bounds(f_sigma2, 1.0)
    ratio = exact.value / simplified.value
    vt_ratio = (1.0 / (f_sigma2 + 1.0)) / simplified.value
    print(f"{f_sigma2:>10.1f} {exact.value:>12.6f} {simplified.value:>12.6f} "
          f"{ratio:>12.6f} {vt_ratio:>14.9f}")
print(f"(pi e / 2 = {math.pi * math.e / 2:.9f}; the simplified form matches the "
      "exact one as F sigma^2 grows)")

print()
print("Tricomi route against direct quadrature of the defining integral:")
for f_sigma2 in (0.1, 1.0, 10.0, 100.0):
    u = tricomi_u(f_sigma2 / 2.0)
    wide = ParameterGrid(-10.0, 10.0, 40001)
    phi = wide.values
    p = np.exp(-0.5 * phi ** 2) / math.sqrt(2 * math.pi)
    h = wide.spacing
    w = np.ones(wide.points)
    w[1:-1:2], w[2:-2:2] = 4.0, 2.0
    direct = float(w @ (np.sqrt(f_sigma2 + phi ** 2) * p)) * h / 3.0
    print(f"  F sigma^2 = {f_sigma2:6.1f}:  sqrt(2) U = {math.sqrt(2) * u:.10f}, "
          f"quadrature = {direct:.10f}")
