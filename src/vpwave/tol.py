"""Numerical tolerance constants, kept in one place.

Lattice arithmetic, window values and the window identity checks are
exact; these only govern floating-point checks on transforms, spectra and
filters.
"""

# Coefficients with |c| below this are dropped from sparse spectra.
ZERO_TRIM = 1e-15

# Fast transform against the naive summation oracle.
FAST_VS_NAIVE = 1e-10

# Unitarity defect of the dense Fourier matrix.
UNITARITY = 1e-12

# Two-scale identities (nesting of spectra across levels).
TWO_SCALE = 1e-12

# Orthonormality defects after normalization; decomposition roundtrips.
ORTHO = 1e-10
