"""Asymptotic tightness: the MLE closes in on the Efroimovich-style value.

With a smooth prior (finite prior information) and N independent samples,
the conditional entropy of the parameter given the maximum-likelihood
estimate approaches

    H(phi | phi_ML)  ->  -(1/2) ln[ N * int F(phi) p(phi) dphi / (2 pi e) ],

which is what makes the Efroimovich bound asymptotically tight.  The values
below are exact: the estimate depends on the N outcomes only through their
counts, so the study groups the count vectors by their estimate and takes
the posterior entropy by quadrature.  The gap shrinks as N grows.
"""

import math

from infobounds import (
    JointModel,
    ParameterGrid,
    PriorDensity,
    cos2_model,
    mle_convergence_study,
    mutual_information,
)

grid = ParameterGrid(0.0, math.pi, 201)
prior = PriorDensity.gaussian(grid, math.pi / 2.0, 0.3)
joint = JointModel(prior, cos2_model(grid))

print("cos^2 model, Gaussian prior (mean pi/2, sigma 0.3), exact by types")
points = mle_convergence_study(joint, [8, 32, 128, 512])
print(f"{'N':>5} {'H(phi|phi_ML)':>18} {'asymptote':>12} {'gap':>8}")
for p in points:
    print(f"{p.n:>5} {p.h_conditional:>18.4f} {p.asymptote:>12.4f} {p.gap:>8.4f}")

oracle = mutual_information(joint)
print()
print(f"for scale: exact single-sample H(phi|x) = {oracle.h_posterior:.4f} nats, "
      f"prior entropy = {oracle.h_prior:.4f} nats")
