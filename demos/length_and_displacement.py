"""
Constant length and constant displacement
=========================================

The geometric content of the package: on the total space of an
isotropy-splitting fibration, the Killing fields induced by the vertical
factor through right translations have constant length, while generic
left-invariant fields do not; and the isometries with constant
displacement are exactly the central-times-vertical ones.  Both
statements are checked numerically with certified two-sided bounds.
"""

import numpy as np

from isofib.homspace import (
    Isometry,
    KillingField,
    displacement_profile,
    haar_points,
    killing_lengths,
    sample_subgroup_element,
)
from isofib.liealg import build_model, find_record

model = build_model(find_record("su3-hopf"))
rng = np.random.default_rng(0)
points = haar_points(model, rng, 60)

# a vertical right translation field: length identical at every point
eta = model.k2.basis[0]
right = KillingField(model, "right", eta)
vals = killing_lengths(right, points)
print(f"right field spread over 60 points: {np.ptp(vals):.3e}")

# the same generator as a left field already varies; a generic one more so
left = KillingField(model, "left", eta)
vals = killing_lengths(left, points)
print(f"left field spread, same generator: {np.ptp(vals):.3e}")

# displacement profiles: sample points, bound the distance moved by the
# isometry at each one from both sides, then compare across points
center = model.center_elements[1]
vertical = sample_subgroup_element(model, model.k2_factors, rng)

iso = Isometry(model, left=center, right=vertical, label="central x vertical")
report = displacement_profile(iso, n_samples=12, seed=1)
print(f"\n{iso.label}: verdict {report.verdict}")
print(f"  relative spread of upper bounds: {report.rel_spread:.2e}")

# a rotation from the kept isotropy factor, acting on the left: moving
# some points much more than others, with a certified gap between one
# point's lower bound and another's upper bound
k1_elem = sample_subgroup_element(model, model.k1_factors, rng)
iso = Isometry(model, left=k1_elem, label="left isotropy rotation")
report = displacement_profile(iso, n_samples=12, seed=1)
print(f"\n{iso.label}: verdict {report.verdict}")
print(f"  min upper {min(report.uppers):.3f}, max lower {max(report.lowers):.3f}")
print(f"  certified gap: {report.gap:.3f}")
