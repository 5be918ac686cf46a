"""The cos^2 phase model: Fisher information caps the mutual information.

A single qubit-style binary measurement with p(1|phi) = cos^2(phi/2) has
Fisher information F(phi) = 1 everywhere, so over a uniform prior on
[0, pi] the information an outcome can carry is at most

    I <= ln(1 + (1/2) * Jeffreys length) = ln(1 + pi/2) ~ 0.944 nats,

while the exact mutual information (brute-force quadrature) is only
1 - ln 2 ~ 0.307 nats.  The same Fisher profile also floors the Bayesian
mean-square error.
"""

import math

import numpy as np

from infobounds import (
    JointModel,
    ParameterGrid,
    PriorDensity,
    bayes_quadratic_cost,
    cos2_model,
    entropy_mse_floor,
    fisher_information,
    jeffreys_length,
    mi_bound_finite_support,
    mse_bound_finite_support,
    mutual_information,
    rectangle_prior_mse_bound,
)

grid = ParameterGrid(0.0, math.pi, 10001)
joint = JointModel(PriorDensity.rectangle(grid), cos2_model(grid))

profile = fisher_information(joint.conditional)
print("Fisher information on (0, pi):",
      f"min {profile.values[1:-1].min():.12f}, max {profile.values[1:-1].max():.12f}")
print(f"Jeffreys length of [0, pi]:   {jeffreys_length(profile):.6f}  (exact: pi)")

bound = mi_bound_finite_support(profile)
oracle = mutual_information(joint)
print()
print(f"MI upper bound  ln(1 + pi/2) = {bound.value:.6f} nats")
print(f"oracle MI (quadrature)       = {oracle.mi:.6f} nats  (analytic: 1 - ln 2)")
print(f"slack                        = {bound.value - oracle.mi:.6f} nats")

print()
mse_bound = mse_bound_finite_support(joint)
mse = bayes_quadratic_cost(joint)
floor = entropy_mse_floor(oracle.h_posterior)
print(f"MSE lower bound (finite support) = {mse_bound.value:.6f}")
closed = rectangle_prior_mse_bound(profile.constant_value(), joint.prior.params["width"])
print(f"  rectangle closed form          = {closed.value:.6f}")
print(f"entropy MSE floor from H(phi|x)  = {floor:.6f}")
print(f"oracle Bayes MSE (posterior mean)= {mse:.6f}")
assert mse_bound.value < mse and floor < mse

print()
print("Repeating the measurement N times multiplies F by N and shrinks the slack:")
from infobounds import repeat_model

for n in (1, 2, 4, 8):
    rep = repeat_model(joint, n)
    rep_bound = mi_bound_finite_support(fisher_information(rep.conditional))
    rep_mi = mutual_information(rep).mi
    print(f"  N={n}:  oracle MI {rep_mi:.4f}  <=  bound {rep_bound.value:.4f}")

# Clarke & Barron (1990): I ~ (1/2) ln(n / 2 pi e) + h(phi) + (1/2) E ln F, so with
# F = 1 on [0, pi] the slack of ln(1 + sqrt(n) pi / 2) tends to (1/2) ln(pi e / 2)
limit = 0.5 * math.log(math.pi * math.e / 2.0)
print()
print(f"Over many samples the slack tends to (1/2) ln(pi e / 2) = {limit:.4f} (2001-point grid):")
coarse_grid = ParameterGrid(0.0, math.pi, 2001)
coarse = JointModel(PriorDensity.rectangle(coarse_grid), cos2_model(coarse_grid))
for n in (100, 1000):
    gap = math.log1p(math.sqrt(n) * math.pi / 2.0) - mutual_information(repeat_model(coarse, n)).mi
    print(f"  N={n}:  bound - oracle MI {gap:.4f}  vs  limit {limit:.4f}")
