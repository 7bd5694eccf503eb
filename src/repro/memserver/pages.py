"""Synthetic page contents with controllable compressibility.

Real guest memory is a mix of zero pages, text-like data (page cache,
heaps full of strings), code/structured data, and incompressible content
(encrypted or already-compressed buffers).  The page factory below
produces 4 KiB pages of each class deterministically from a seeded RNG,
and :class:`PageClassMix` describes the composition of a whole VM image
so upload sizes can be derived from per-class compression ratios.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Dict, Iterable

from repro.errors import ConfigError
from repro.units import PAGE_SIZE_KIB

PAGE_BYTES = int(PAGE_SIZE_KIB * 1024)

_WORDS = (
    b"the", b"of", b"memory", b"page", b"server", b"energy", b"cluster",
    b"virtual", b"machine", b"idle", b"active", b"consolidation", b"host",
    b"migration", b"partial", b"working", b"set", b"sleep", b"power",
)


class PageKind(enum.Enum):
    """Compressibility class of a page."""

    ZERO = "zero"          # untouched / zeroed pages: compress to ~nothing
    TEXT = "text"          # text-like: highly compressible
    CODE = "code"          # code / structured binary: moderately compressible
    RANDOM = "random"      # encrypted or compressed payloads: incompressible


class SyntheticPageFactory:
    """Deterministic generator of 4 KiB pages of each class."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def make(self, kind: PageKind) -> bytes:
        """Produce one page of the requested class."""
        if kind is PageKind.ZERO:
            return bytes(PAGE_BYTES)
        if kind is PageKind.TEXT:
            return self._text_page()
        if kind is PageKind.CODE:
            return self._code_page()
        return self._random_page()

    def make_many(self, kind: PageKind, count: int) -> Iterable[bytes]:
        for _ in range(count):
            yield self.make(kind)

    def _text_page(self) -> bytes:
        rng = self._rng
        chunks = []
        size = 0
        while size < PAGE_BYTES:
            word = rng.choice(_WORDS)
            chunks.append(word)
            chunks.append(b" ")
            size += len(word) + 1
        return b"".join(chunks)[:PAGE_BYTES]

    def _code_page(self) -> bytes:
        """Structured binary: short random motifs repeated with variation."""
        rng = self._rng
        out = bytearray()
        while len(out) < PAGE_BYTES:
            motif = bytes(rng.randrange(256) for _ in range(rng.randint(4, 12)))
            repeats = rng.randint(2, 8)
            for _ in range(repeats):
                out.extend(motif)
                out.append(rng.randrange(256))
        return bytes(out[:PAGE_BYTES])

    def _random_page(self) -> bytes:
        return bytes(self._rng.randrange(256) for _ in range(PAGE_BYTES))


#: Per-class compression ratios (compressed/raw) of :class:`Lz77Codec`
#: on synthetic pages.  Measured by ``tests/test_compression.py``, which
#: asserts the codec stays within tolerance of these constants; the
#: statistical image models consume them so that 4 GiB images need not
#: be materialized byte by byte.
MEASURED_COMPRESSION_RATIO: Dict[PageKind, float] = {
    PageKind.ZERO: 0.024,    # one 3-byte token per 130-byte match run
    PageKind.TEXT: 0.32,
    PageKind.CODE: 0.64,
    PageKind.RANDOM: 1.008,  # incompressible data pays token overhead
}


@dataclass(frozen=True)
class PageClassMix:
    """Composition of a memory region as fractions per page class."""

    zero: float
    text: float
    code: float
    random: float

    def __post_init__(self) -> None:
        total = self.zero + self.text + self.code + self.random
        if any(f < 0.0 for f in (self.zero, self.text, self.code, self.random)):
            raise ConfigError("page-class fractions must be non-negative")
        if abs(total - 1.0) > 1e-6:
            raise ConfigError(f"page-class fractions must sum to 1, got {total}")

    def fraction(self, kind: PageKind) -> float:
        return {
            PageKind.ZERO: self.zero,
            PageKind.TEXT: self.text,
            PageKind.CODE: self.code,
            PageKind.RANDOM: self.random,
        }[kind]

    def compressed_ratio(self) -> float:
        """Expected compressed/raw ratio of a region with this mix."""
        return sum(
            self.fraction(kind) * MEASURED_COMPRESSION_RATIO[kind]
            for kind in PageKind
        )

    def compressed_mib(self, raw_mib: float) -> float:
        """Expected compressed size of ``raw_mib`` of this mix."""
        if raw_mib < 0.0:
            raise ConfigError("raw size must be non-negative")
        return raw_mib * self.compressed_ratio()


#: A primed desktop VM's *used* memory (no zero pages: those are the
#: untouched remainder of the allocation, accounted separately).  The
#: blend gives the ~0.51 compressed/raw ratio that reproduces the
#: prototype's 10.2 s initial memory upload (Figure 5).
DESKTOP_USED_MIX = PageClassMix(zero=0.0, text=0.55, code=0.33, random=0.12)
