"""File workload descriptions.

The paper's application processes "large size files of a virtual
campus"; :class:`FileSpec` names one such file and its size.  Sending
it part by part is the overlay's job
(:func:`repro.overlay.filetransfer.split_even`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import mbit, to_mbit

__all__ = ["FileSpec"]


@dataclass(frozen=True)
class FileSpec:
    """One logical file to transmit/process."""

    name: str
    size_bits: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("file name must be non-empty")
        if self.size_bits <= 0:
            raise ValueError(f"file size must be > 0, got {self.size_bits}")

    @property
    def size_mbit(self) -> float:
        """Size in the paper's Mb units."""
        return to_mbit(self.size_bits)

    @classmethod
    def of_mbit(cls, name: str, size_mb: float) -> "FileSpec":
        """Construct from a size in Mb (paper convention)."""
        return cls(name=name, size_bits=mbit(size_mb))
