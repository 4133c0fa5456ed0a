"""Silicon photonic and optoelectronic device models.

This subpackage implements the device layer of the CrossLight stack:

* :mod:`repro.devices.constants` -- Table II device parameters, loss budget,
  MR design points, and physical constants.
* :mod:`repro.devices.mr` -- the microring resonator model (Lorentzian
  weighting, tuning, drift sensitivity).
* :mod:`repro.devices.mr_bank` -- banks of MRs imprinting weight vectors.
* :mod:`repro.devices.waveguide` -- waveguides, splitter trees, combiners.
* :mod:`repro.devices.laser` -- laser sources and the Eq. 7 power model.
* :mod:`repro.devices.microdisk` -- microdisks (HolyLight baseline substrate).
* :mod:`repro.devices.transceiver` -- ADC/DAC converter channels.
"""

from repro.devices.constants import (
    CONVENTIONAL_MR,
    DEFAULT_LOSSES,
    EO_TUNING,
    LASER_WALL_PLUG_EFFICIENCY,
    OPTIMIZED_MR,
    PD_SENSITIVITY_DBM,
    PHOTODETECTOR,
    ROOM_TEMPERATURE_K,
    TIA,
    TO_TUNING,
    VCSEL,
    ActiveDeviceParameters,
    MRDesignParameters,
    PhotonicLosses,
    TuningParameters,
)
from repro.devices.laser import LaserSource, required_laser_power_dbm
from repro.devices.microdisk import Microdisk
from repro.devices.mr import MicroringResonator
from repro.devices.mr_bank import MRBank
from repro.devices.transceiver import (
    DataConverter,
    adc_channel,
    dac_channel,
)
from repro.devices.waveguide import Combiner, SplitterTree, Waveguide, waveguide_for_mr_chain

__all__ = [
    "ActiveDeviceParameters",
    "Combiner",
    "CONVENTIONAL_MR",
    "DataConverter",
    "DEFAULT_LOSSES",
    "EO_TUNING",
    "LASER_WALL_PLUG_EFFICIENCY",
    "LaserSource",
    "Microdisk",
    "MicroringResonator",
    "MRBank",
    "MRDesignParameters",
    "OPTIMIZED_MR",
    "PD_SENSITIVITY_DBM",
    "PHOTODETECTOR",
    "PhotonicLosses",
    "ROOM_TEMPERATURE_K",
    "SplitterTree",
    "TIA",
    "TO_TUNING",
    "TuningParameters",
    "VCSEL",
    "Waveguide",
    "adc_channel",
    "dac_channel",
    "required_laser_power_dbm",
    "waveguide_for_mr_chain",
]
