"""Power profiles (Table 1 of the paper).

Table 1 measured the custom host at 102.2 W idle and 137.9 W while running
20 VMs, which yields a linear per-resident-VM increment of 1.785 W.  The
paper's simulator (§5.1) gives every host this same profile.  Partial VMs
hold only their idle working set, so they are charged the same increment
scaled by the fraction of their full allocation that is resident — a few
percent, i.e. nearly free, which is exactly why dense partial
consolidation pays off.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class HostPowerProfile:
    """Power model of one server (watts, seconds)."""

    #: Power with zero VMs resident, fully powered.
    idle_w: float = 102.2
    #: Additional power per fully-resident VM (from the 20-VM point).
    per_vm_w: float = 1.785
    #: Power draw while suspending to RAM, and its duration.
    suspend_w: float = 138.2
    suspend_s: float = 3.1
    #: Power draw while resuming from RAM, and its duration.
    resume_w: float = 149.2
    resume_s: float = 2.3
    #: ACPI S3 sleep power (host alone, memory in self-refresh).
    sleep_w: float = 12.9

    def __post_init__(self) -> None:
        for name in ("idle_w", "suspend_w", "resume_w", "sleep_w"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive")
        for name in ("per_vm_w", "suspend_s", "resume_s"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be non-negative")

    def powered_watts(
        self, full_vms: int = 0, partial_resident_fraction: float = 0.0
    ) -> float:
        """Power of a fully-powered host.

        ``full_vms`` counts VMs whose complete memory image is resident,
        and ``partial_resident_fraction`` is the sum over partial VMs of
        the fraction of their allocation that is resident (e.g. three
        partial VMs each holding 4% of their memory contribute 0.12).
        """
        if full_vms < 0 or partial_resident_fraction < 0.0:
            raise ConfigError("VM counts must be non-negative")
        return self.idle_w + self.per_vm_w * (
            full_vms + partial_resident_fraction
        )

    @property
    def transition_round_trip_s(self) -> float:
        """Suspend + resume duration — the minimum useful sleep gap."""
        return self.suspend_s + self.resume_s


@dataclass(frozen=True)
class MemoryServerProfile:
    """Power model of the per-host low-power memory server."""

    #: Low-power compute platform (ASUS AT5IONT-I with an Atom D525).
    platform_w: float = 27.8
    #: Shared hot-swappable SAS drive.
    drive_w: float = 14.4

    def __post_init__(self) -> None:
        if self.platform_w < 0.0 or self.drive_w < 0.0:
            raise ConfigError("memory-server power components must be >= 0")

    @property
    def total_w(self) -> float:
        """Combined draw while serving pages for a sleeping host."""
        return self.platform_w + self.drive_w

    @classmethod
    def prototype(cls) -> "MemoryServerProfile":
        """The paper's prototype: Atom platform + SAS drive = 42.2 W."""
        return cls()

    @classmethod
    def alternative(cls, watts: float) -> "MemoryServerProfile":
        """A hypothetical implementation with the given total draw.

        Used for Table 3's 16/8/4/2/1 W design points (e.g. an embedded
        service processor reusing host DRAM, with no SAS drive).
        """
        if watts < 0.0:
            raise ConfigError(f"memory-server power must be >= 0, got {watts}")
        return cls(platform_w=watts, drive_w=0.0)


#: The exact Table 1 profiles.
TABLE1_HOST = HostPowerProfile()
TABLE1_MEMORY_SERVER = MemoryServerProfile.prototype()
