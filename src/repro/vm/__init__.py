"""Virtual machine substrate.

Models VM activity (active vs idle, §3.1), residency (full vs partial,
§2), idle working-set sampling (the Jettison distribution the paper's
simulator draws from, §5.1), and the Table 2 desktop workload catalog
used by the prototype micro-benchmarks.
"""

from repro.vm.state import Residency, VmActivity
from repro.vm.machine import IntervalClock, VirtualMachine
from repro.vm.workingset import WorkingSetSampler
from repro.vm.workload import (
    Application,
    Workload,
    WORKLOAD_1,
    WORKLOAD_2,
    APPLICATION_CATALOG,
)

__all__ = [
    "Residency",
    "VmActivity",
    "IntervalClock",
    "VirtualMachine",
    "WorkingSetSampler",
    "Application",
    "Workload",
    "WORKLOAD_1",
    "WORKLOAD_2",
    "APPLICATION_CATALOG",
]
