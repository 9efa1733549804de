import numpy as np
import pytest

from sfwmkit import FiberAxisGeometry, FiberSpec, PumpSpec, gvm_pump_wavelength

FAST_GEOMETRY = FiberAxisGeometry(core_diameter=1.7507e-6, air_filling_fraction=0.511)
SLOW_GEOMETRY = FiberAxisGeometry(core_diameter=1.7488e-6, air_filling_fraction=0.505)


@pytest.fixture(scope="session")
def fast_geometry():
    return FAST_GEOMETRY


@pytest.fixture(scope="session")
def slow_geometry():
    return SLOW_GEOMETRY


@pytest.fixture(scope="session")
def fiber_40cm():
    return FiberSpec(
        fast_axis=FAST_GEOMETRY,
        slow_axis=SLOW_GEOMETRY,
        gamma=99.0,
        length=0.4,
        birefringence_override=-1.7e-5,
    )


@pytest.fixture(scope="session")
def fiber_no_override(fiber_40cm):
    # The paper axes swapped and without an override: dn comes from the LP01
    # model and varies with the pump (-4.9e-6 at 770 nm, -7.9e-6 at 800 nm).
    return FiberSpec(fiber_40cm.slow_axis, fiber_40cm.fast_axis, 99.0, 0.4)


@pytest.fixture(scope="session")
def fiber_1m(fiber_40cm):
    import dataclasses

    return dataclasses.replace(fiber_40cm, length=1.0)


@pytest.fixture(scope="session")
def pump_40cm():
    return PumpSpec(center_wavelength=783e-9, gaussian_fwhm=20e-9, filter_width=8e-9)


@pytest.fixture(scope="session")
def pump_1m(fiber_1m):
    # The 1 m source is pumped at its design point, the group-velocity-matched
    # wavelength, where the phasematch ridge is untilted.
    return PumpSpec(
        center_wavelength=gvm_pump_wavelength(fiber_1m),
        gaussian_fwhm=20e-9,
        filter_width=6e-9,
    )


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260823)
