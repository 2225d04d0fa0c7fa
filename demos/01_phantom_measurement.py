"""
Measuring body composition on a synthetic phantom
==================================================

Builds a phantom volume with exactly known tissue geometry and measures
all four metrics on the vertebra-defined regions, straight from the raw CT
counts: the measures convert to Hounsfield Units only the voxels they read.
"""

import numpy as np

from bodycomp import (
    MergePolicy,
    SubjectRecord,
    build_phantom,
    measure_subject,
)

# The phantom stacks a muscle ring, an SAT ring, a central VAT disk, and
# a few muscular-fat streaks on every slice; vertebra markers (T12, L3,
# L4) peak at known slice indices.
phantom = build_phantom(nx=96, ny=96, nz=40, spacing_mm=(0.8, 0.8, 2.5))
print("volume dims (nx, ny, nz):", phantom.ct.dims)
print("vertebra peaks: T12 =", phantom.t12_slice, " L3 =", phantom.l3_slice,
      " L4 =", phantom.l4_slice)

# Raw scanner counts become HU through the rescale slope/intercept. The
# measures take the CT as read; to_hu is needed only for a full HU array.
ct = phantom.ct
print("raw value range:", int(ct.values.min()), "..", int(ct.values.max()))
print(f"raw {ct.values[0, 0, 0]} at the corner is {float(ct.hu_of(ct.values[0, 0, 0]))} HU "
      f"(slope {ct.rescale_slope}, intercept {ct.rescale_intercept})")

# Height enables the skeletal muscle index (area / height^2).
subject = SubjectRecord("demo-01", age_years=62.0, height_m=1.68)

result = measure_subject(ct, phantom.tissue, phantom.vertebrae, subject)
print()
print("2D measurements on the largest-L3 slice (index", result.region_2d, "):")
print(f"  muscle density : {result.muscle_density_2d:8.2f} HU")
print(f"  VAT/SAT ratio  : {result.vat_sat_ratio_2d:8.4f}")
print(f"  muscle area    : {result.muscle_area_2d:8.2f} cm^2")
print(f"  SMI            : {result.smi_2d:8.2f} cm^2/m^2")
print("3D measurements over T12-L4 (slices", result.region_3d, "):")
print(f"  muscle density : {result.muscle_density_3d:8.2f} HU")
print(f"  VAT/SAT ratio  : {result.vat_sat_ratio_3d:8.4f}")
print(f"  muscle volume  : {result.muscle_volume_3d:8.2f} cm^3")

# The muscular-fat merge policy changes what counts as muscle. Keeping
# muscular fat separate shrinks the muscle compartment and raises its
# mean density (the fat streaks sit well below muscle HU).
separate = measure_subject(
    ct, phantom.tissue, phantom.vertebrae, subject, MergePolicy.SEPARATE
)
print()
print("policy comparison on the L3 slice:")
print(f"  muscle area, MF as muscle : {result.muscle_area_2d:.2f} cm^2")
print(f"  muscle area, MF separate  : {separate.muscle_area_2d:.2f} cm^2")
print(f"  density, MF as muscle     : {result.muscle_density_2d:.2f} HU")
print(f"  density, MF separate      : {separate.muscle_density_2d:.2f} HU")

# Cross-check one number against a direct voxel count.
codes = np.asarray(phantom.tissue.codes)
muscle_and_mf = np.isin(codes[result.region_2d], (1, 4)).sum()
print()
print("voxel-count check:", muscle_and_mf, "pixels x",
      phantom.tissue.pixel_area_cm2, "cm^2 =",
      muscle_and_mf * phantom.tissue.pixel_area_cm2, "cm^2")
