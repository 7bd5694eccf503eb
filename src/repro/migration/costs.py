"""Scalar migration cost model used by the cluster simulation (§5.1).

The paper's simulator plugs in the conservative constants measured on the
prototype: fully migrating a 4 GiB VM over 10 GigE takes 10 s (after
Deshpande et al. [7]); partially migrating an idle VM — including the
memory upload to the memory server — takes 7.2 s; resuming/reintegrating
a partial VM takes 3.7 s.  Traffic volumes come from §4.4.3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.units import DEFAULT_VM_MEMORY_MIB, TEN_GIGE_MIB_PER_S


@dataclass(frozen=True)
class MigrationCostModel:
    """Latencies (seconds) and traffic volumes (MiB) for cluster runs."""

    #: Live (pre-copy) migration of one full VM over the rack fabric.
    full_migration_s: float = 10.0
    #: Partial migration of one idle VM, including the memory upload to
    #: the memory server and the descriptor push.
    partial_migration_s: float = 7.2
    #: Reintegrating a partial VM into the full image at its home.
    reintegration_s: float = 3.7
    #: Converting a partial VM to full in place: pulling the remaining
    #: ~4 GiB image from the home's memory server over 10 GigE.
    inplace_conversion_s: float = DEFAULT_VM_MEMORY_MIB / TEN_GIGE_MIB_PER_S

    # Migrations pipeline: only each operation's occupancy of the
    # bottleneck resource serializes at a host, while the end-to-end
    # latency above includes handshakes and destination-side work.
    #: SAS occupancy of the source's upload path per partial migration
    #: (the prototype's differential upload time, §4.4.2).
    partial_occupancy_s: float = 2.2
    #: NIC occupancy per full migration (~4 GiB of wire time at 10 GigE).
    full_occupancy_s: float = DEFAULT_VM_MEMORY_MIB / TEN_GIGE_MIB_PER_S
    #: Receive-side occupancy per reintegration at the woken home:
    #: ~175 MiB of dirty state plus the page-table merge.  Resume storms
    #: queue on this, producing the paper's ~19 s 99.99th percentile.
    reintegration_occupancy_s: float = 0.5
    #: Relocating a partial VM between consolidation hosts: only the
    #: descriptor and the resident working set move (the full image
    #: stays at the home's memory server), so this is far cheaper than a
    #: fresh partial migration.
    partial_relocation_s: float = 2.0
    relocation_occupancy_s: float = 0.5
    #: VM descriptor (page tables, context, configuration) pushed to the
    #: consolidation host at partial migration (16.0 +/- 0.5 MiB).
    descriptor_mib_mean: float = 16.0
    descriptor_mib_std: float = 0.5
    #: Pages demand-faulted during one consolidation episode
    #: (56.9 +/- 7.9 MiB).
    on_demand_mib_mean: float = 56.9
    on_demand_mib_std: float = 7.9
    #: Dirty memory pushed home at reintegration (175.3 +/- 49.3 MiB).
    reintegration_mib_mean: float = 175.3
    reintegration_mib_std: float = 49.3
    #: Compressed memory written to the memory server over the local SAS
    #: link per partial migration.  The prototype's differential upload
    #: measured 2.2 s at 128 MiB/s ≈ 281 MiB (§4.4.2); this traffic never
    #: touches the datacenter network.
    sas_upload_mib_mean: float = 281.0
    sas_upload_mib_std: float = 60.0

    def __post_init__(self) -> None:
        for name in (
            "full_migration_s",
            "partial_migration_s",
            "reintegration_s",
            "inplace_conversion_s",
            "descriptor_mib_mean",
            "on_demand_mib_mean",
            "reintegration_mib_mean",
        ):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive")
        for name in (
            "descriptor_mib_std",
            "on_demand_mib_std",
            "reintegration_mib_std",
            "sas_upload_mib_std",
            "partial_occupancy_s",
            "full_occupancy_s",
            "reintegration_occupancy_s",
            "partial_relocation_s",
            "relocation_occupancy_s",
        ):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be non-negative")

    # -- traffic sampling ----------------------------------------------
    #
    # Each sampler draws one Gaussian.  Traffic volumes are strictly
    # positive, so the rare negative tail is clamped to a tenth of the
    # mean.  The clamp is written out in each sampler: they run once or
    # twice per migration commit, and a shared helper costs a call
    # frame per draw.

    def sample_descriptor_mib(self, rng: random.Random) -> float:
        mean = self.descriptor_mib_mean
        value = rng.gauss(mean, self.descriptor_mib_std)
        floor = 0.1 * mean
        return value if value >= floor else floor

    def sample_on_demand_mib(self, rng: random.Random) -> float:
        mean = self.on_demand_mib_mean
        value = rng.gauss(mean, self.on_demand_mib_std)
        floor = 0.1 * mean
        return value if value >= floor else floor

    def sample_reintegration_mib(self, rng: random.Random) -> float:
        mean = self.reintegration_mib_mean
        value = rng.gauss(mean, self.reintegration_mib_std)
        floor = 0.1 * mean
        return value if value >= floor else floor

    def sample_sas_upload_mib(self, rng: random.Random) -> float:
        mean = self.sas_upload_mib_mean
        value = rng.gauss(mean, self.sas_upload_mib_std)
        floor = 0.1 * mean
        return value if value >= floor else floor
