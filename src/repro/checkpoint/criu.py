"""CRIU-style checkpoint/restore simulator (Section 8.6, Figure 12).

The paper's C/R baseline freezes a function after initialization and
restores it on later cold starts.  Two effects define Figure 12's shape:

* restore pays a *fixed* overhead ("CRIU recreates the process tree by
  forking … this procedure incurs an overhead, which seems to be around
  0.1 seconds"), so for small applications C/R is *worse* than a plain
  cold start;
* restore then streams the checkpoint image, so its cost grows with the
  snapshot size — much slower growth than re-running imports, which is why
  pure C/R overtakes pure λ-trim on large applications (lightgbm being the
  exception the paper calls out).

Checkpoint size models a whole-process memory image: a fixed process
overhead, a share of the mapped library image (shared objects, the
interpreter), and the application's live heap.  λ-trim shrinks the heap
term, which is why "debloating always reduces the size of the checkpoint"
(Table 3) but only by ~11% on average.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CheckpointError

__all__ = ["Checkpoint", "CriuSimulator"]


@dataclass(frozen=True)
class Checkpoint:
    """A frozen post-initialization process image."""

    function: str
    size_mb: float
    init_time_saved_s: float

    def __post_init__(self) -> None:
        if self.size_mb < 0:
            raise CheckpointError(f"negative checkpoint size: {self.size_mb}")


@dataclass(frozen=True)
class CriuSimulator:
    """Checkpoint sizing and restore timing model.

    Parameters
    ----------
    process_overhead_mb:
        Pages every Python process carries (interpreter, allocator).
    image_share:
        Fraction of the deployment image resident as mapped libraries.
    heap_share:
        Fraction of the application's live heap captured in the image.
    restore_fixed_s:
        Process-tree recreation overhead (~0.1 s in the paper).
    restore_mb_per_s:
        Checkpoint streaming bandwidth during restore.
    """

    process_overhead_mb: float = 6.0
    image_share: float = 0.08
    heap_share: float = 0.45
    restore_fixed_s: float = 0.1
    restore_mb_per_s: float = 150.0

    def checkpoint_size_mb(self, memory_mb: float, image_size_mb: float = 0.0) -> float:
        """Size of a post-init snapshot for a given footprint and image."""
        if memory_mb < 0 or image_size_mb < 0:
            raise CheckpointError("memory and image sizes must be non-negative")
        return (
            self.process_overhead_mb
            + self.image_share * image_size_mb
            + self.heap_share * memory_mb
        )

    def checkpoint(
        self,
        function: str,
        *,
        memory_mb: float,
        image_size_mb: float = 0.0,
        init_time_s: float = 0.0,
    ) -> Checkpoint:
        """Freeze a function right after initialization (before the handler)."""
        return Checkpoint(
            function=function,
            size_mb=self.checkpoint_size_mb(memory_mb, image_size_mb),
            init_time_saved_s=init_time_s,
        )

    def restore_time_s(self, checkpoint: Checkpoint) -> float:
        """Cold-start latency when restoring instead of initializing."""
        return self.restore_fixed_s + checkpoint.size_mb / self.restore_mb_per_s
