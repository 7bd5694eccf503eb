"""Energy profiles and accounting.

Power constants come from the paper's Table 1 (measured on the authors'
custom Supermicro host and ASUS Atom memory server); energy is integrated
over piecewise-constant power segments as hosts change power state and VM
load over the simulated day.
"""

from repro.energy.profile import (
    HostPowerProfile,
    MemoryServerProfile,
    TABLE1_HOST,
    TABLE1_MEMORY_SERVER,
)
from repro.energy.accounting import EnergyAccountant
from repro.energy.report import EnergyReport, baseline_energy_joules
from repro.energy.costs import ElectricityTariff, SavingsStatement

__all__ = [
    "HostPowerProfile",
    "MemoryServerProfile",
    "TABLE1_HOST",
    "TABLE1_MEMORY_SERVER",
    "EnergyAccountant",
    "EnergyReport",
    "baseline_energy_joules",
    "ElectricityTariff",
    "SavingsStatement",
]
