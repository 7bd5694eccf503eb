"""The memory server's page store with dirty tracking.

Before a host sleeps it uploads its partial VMs' memory images to the
store (compressed page by page); the differential-upload optimization
(§4.3) resends only pages dirtied since the previous upload.  The store
here is *real*: it keeps compressed page bytes keyed by guest
pseudo-physical frame number, so tests exercise the actual
compress/upload/serve/decompress pipeline at small VM sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Set

from repro.errors import MigrationError
from repro.memserver.compression import Lz77Codec
from repro.memserver.link import SAS_LINK, TransferLink
from repro.memserver.pages import PAGE_BYTES
from repro.units import KIB_PER_MIB, PAGE_SIZE_KIB


@dataclass(frozen=True)
class UploadReceipt:
    """Outcome of one memory upload to the store."""

    vm_id: int
    pages_sent: int
    raw_mib: float
    compressed_mib: float
    upload_s: float
    differential: bool

    @property
    def compression_ratio(self) -> float:
        """Compressed/raw ratio of this upload (1.0 for empty uploads)."""
        if self.raw_mib == 0.0:
            return 1.0
        return self.compressed_mib / self.raw_mib


class PageStore:
    """Compressed page images for the VMs a memory server owns."""

    def __init__(
        self,
        codec: Optional[Lz77Codec] = None,
        link: TransferLink = SAS_LINK,
    ) -> None:
        self._codec = codec if codec is not None else Lz77Codec()
        self._link = link
        self._images: Dict[int, Dict[int, bytes]] = {}

    # -- queries --------------------------------------------------------

    def has_image(self, vm_id: int) -> bool:
        return vm_id in self._images

    def image_page_count(self, vm_id: int) -> int:
        return len(self._image(vm_id))

    def vm_ids(self) -> Set[int]:
        return set(self._images)

    # -- uploads ------------------------------------------------------------

    def upload(
        self,
        vm_id: int,
        pages: Dict[int, bytes],
        dirty_pfns: Optional[Iterable[int]] = None,
    ) -> UploadReceipt:
        """Upload a VM's pages, compressing each before the SAS write.

        ``pages`` maps pseudo-physical frame numbers to raw 4 KiB page
        contents.  When ``dirty_pfns`` is given and an image already
        exists, only those pages are (re)sent — the differential upload.
        Returns a receipt with sizes and the modeled upload time.
        """
        image = self._images.get(vm_id)
        if dirty_pfns is not None and image is not None:
            to_send = {}
            for pfn in dirty_pfns:
                if pfn not in pages:
                    raise MigrationError(
                        f"VM {vm_id}: dirty pfn {pfn} not present in pages"
                    )
                to_send[pfn] = pages[pfn]
            differential = True
        else:
            to_send = dict(pages)
            image = {}
            self._images[vm_id] = image
            differential = False

        compressed_bytes = 0
        for pfn, raw in to_send.items():
            if len(raw) != PAGE_BYTES:
                raise MigrationError(
                    f"VM {vm_id}: page {pfn} is {len(raw)} bytes, "
                    f"expected {PAGE_BYTES}"
                )
            blob = self._codec.compress(raw)
            image[pfn] = blob
            compressed_bytes += len(blob)

        raw_mib = len(to_send) * PAGE_SIZE_KIB / KIB_PER_MIB
        compressed_mib = compressed_bytes / (KIB_PER_MIB * 1024.0)
        upload_s = self._link.transfer_s(compressed_mib) if to_send else 0.0
        return UploadReceipt(
            vm_id=vm_id,
            pages_sent=len(to_send),
            raw_mib=raw_mib,
            compressed_mib=compressed_mib,
            upload_s=upload_s,
            differential=differential,
        )

    # -- page service -----------------------------------------------------------

    def fetch_page(self, vm_id: int, pfn: int) -> bytes:
        """Fetch and decompress one page, as the memtap process would."""
        image = self._image(vm_id)
        try:
            blob = image[pfn]
        except KeyError:
            raise MigrationError(f"VM {vm_id}: no page {pfn} in store")
        return Lz77Codec.decompress(blob)

    def fetch_compressed(self, vm_id: int, pfn: int) -> bytes:
        """Fetch the compressed page as transmitted on the wire (§4.3:
        the memory server sends compressed pages; memtap decompresses)."""
        image = self._image(vm_id)
        try:
            return image[pfn]
        except KeyError:
            raise MigrationError(f"VM {vm_id}: no page {pfn} in store")

    def release(self, vm_id: int) -> None:
        """Free a VM's image (reintegration complete or VM re-homed)."""
        self._images.pop(vm_id, None)

    def _image(self, vm_id: int) -> Dict[int, bytes]:
        try:
            return self._images[vm_id]
        except KeyError:
            raise MigrationError(f"no image stored for VM {vm_id}")
