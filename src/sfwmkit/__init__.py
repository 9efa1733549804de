"""sfwmkit: design and analysis of SFWM photon-pair sources in birefringent PCF."""

from .material_optics import (
    FiberAxisGeometry,
    FiberSpec,
    cladding_index,
    lp01_effective_index,
    silica_index,
    unit_cell_radii,
)
from .dispersion import (
    Axis,
    DispersionProfile,
    axis_profile,
    birefringence,
    gvd,
    inverse_group_velocity,
    wavevector,
    zero_gvd_wavelengths,
)
from .phasematch import (
    PhasematchPoint,
    PumpSpec,
    delta_k,
    gvm_pump_wavelength,
    phasematch_curve,
    solve_phasematch,
)
from .jsa import (
    JointSpectralAmplitude,
    SchmidtResult,
    SpectralGrid,
    adaptive_grid,
    build_jsa,
    phasematch_function,
    pump_function,
    schmidt_decompose,
)
from .hom import (
    HomDataset,
    HomFitResult,
    HomModelParams,
    fit_purity,
    four_fold_probability,
    heralded_density_matrix,
    overlap_p,
    simulate_counts,
)
from .fiber_fit import (
    GeometryFitResult,
    PhasematchMeasurement,
    fit_geometry,
    load_measurements,
)

__version__ = "0.1.0"
