"""The page-service daemon and its latency budget.

While a home host sleeps, its memory server answers network page requests
by guest pseudo-physical frame number (§4.3).  The prototype's service
path per fault is:

1. request over Gigabit Ethernet (network RTT),
2. random read of the compressed page from the SAS drive (the prototype
   stores images on a spinning disk, so seek time dominates),
3. decompression by the requesting memtap process,
4. page transfer back over the network.

The defaults below total ~4 ms per 4 KiB fault, which is what makes
demand-started applications ~two orders of magnitude slower than
memory-resident ones (Figure 6).  A commercial memory server with direct
DRAM access (§4.5) would skip the disk read; model that by setting
``disk_read_s`` to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.energy.profile import MemoryServerProfile
from repro.errors import ConfigError
from repro.memserver.store import PageStore
from repro.units import KIB_PER_MIB, PAGE_SIZE_KIB


@dataclass(frozen=True)
class PageServiceModel:
    """Per-request latency budget of the page service path (seconds)."""

    #: One network round trip on the page channel (GigE LAN).
    network_rtt_s: float = 0.00025
    #: Random read of one compressed page from the SAS drive.
    disk_read_s: float = 0.0033
    #: Decompression + memtap handling on the Atom-class processor.
    cpu_s: float = 0.0004
    #: Wire time for the compressed page payload (≈2 KiB over GigE).
    payload_s: float = 0.00002
    #: Optional per-request TLS authentication/encryption overhead (§4.3
    #: Security); zero by default, as the paper does not measure it.
    tls_s: float = 0.0

    def __post_init__(self) -> None:
        for name in ("network_rtt_s", "disk_read_s", "cpu_s", "payload_s", "tls_s"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be non-negative")

    @property
    def per_fault_s(self) -> float:
        """End-to-end latency of one demand page fault."""
        return (
            self.network_rtt_s
            + self.disk_read_s
            + self.cpu_s
            + self.payload_s
            + self.tls_s
        )

    def fetch_time_s(self, pages: int) -> float:
        """Time to demand-fetch ``pages`` pages one fault at a time."""
        if pages < 0:
            raise ConfigError("page count must be non-negative")
        return pages * self.per_fault_s

    def fetch_time_for_mib(self, mib: float) -> float:
        """Time to demand-fetch ``mib`` MiB of memory page by page."""
        if mib < 0.0:
            raise ConfigError("size must be non-negative")
        pages = mib * KIB_PER_MIB / PAGE_SIZE_KIB
        return pages * self.per_fault_s

    @classmethod
    def dram_backed(cls) -> "PageServiceModel":
        """A commercial design with direct access to host DRAM (§4.5)."""
        return cls(disk_read_s=0.0)


@dataclass
class MemoryServer:
    """One per-host memory server: store + service model + power profile.

    The prototype layer serves real pages from :attr:`store`.  The farm
    simulation builds no ``MemoryServer``: it reads the profile from
    ``FarmConfig.memory_server`` and models a server crash on ``Host``.
    """

    host_id: int
    profile: MemoryServerProfile = field(
        default_factory=MemoryServerProfile.prototype
    )
    service: PageServiceModel = field(default_factory=PageServiceModel)
    store: Optional[PageStore] = None
    serving: bool = False
    requests_served: int = 0

    def start_serving(self) -> None:
        """Activate the daemon (host has detached the shared drive)."""
        self.serving = True

    def stop_serving(self) -> None:
        """Deactivate (host woke up and reclaimed the drive)."""
        self.serving = False

    def serve_page(self, vm_id: int, pfn: int) -> bytes:
        """Serve one compressed page from the real store (prototype path)."""
        if not self.serving:
            raise ConfigError(
                f"memory server {self.host_id} is not serving"
            )
        if self.store is None:
            raise ConfigError(
                f"memory server {self.host_id} has no page store attached"
            )
        blob = self.store.fetch_compressed(vm_id, pfn)
        self.requests_served += 1
        return blob

    @property
    def power_w(self) -> float:
        """Draw while powered alongside a sleeping host."""
        return self.profile.total_w
