"""Physical constants and material dispersion data."""

C_LIGHT = 299_792_458.0  # vacuum speed of light [m/s]

# Malitson's three-term Sellmeier fit for fused silica at 20 C,
#   n^2 - 1 = sum_j B_j lam^2 / (lam^2 - L_j),
# with lam in micrometers and L_j the squared resonance wavelength.
# Malitson fitted 0.21-3.71 um; SILICA_VALID_RANGE rounds that down to 3.7 um.
SILICA_SELLMEIER = (
    (0.6961663, 0.0684043 ** 2),
    (0.4079426, 0.1162414 ** 2),
    (0.8974794, 9.896161 ** 2),
)

# Window inside which silica_index() accepts wavelengths [m].
SILICA_VALID_RANGE = (0.21e-6, 3.7e-6)
