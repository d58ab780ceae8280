"""Striping a block address space over several simulated spindles.

The paper's introduction does its virtual-memory arithmetic on a
multi-disk volume: "a terabyte of storage requires as few as five
disks, giving us a random I/O capacity of only around 500 disk head
movements per second.  This means we can sample only 250 records per
second."  :class:`StripedBlockDevice` models that volume: a flat block
space striped round-robin (in ``stripe_blocks`` chunks) over ``m``
independent :class:`~repro.storage.disk_model.DiskModel` spindles.

Timing model: the spindles operate in parallel, so the volume's clock
is the *maximum* of the member clocks -- an idealised array in which
independent requests overlap perfectly.  A large sequential transfer
therefore streams at up to ``m`` times a single spindle's rate, while a
random single-block access still costs one full seek on whichever
spindle owns the block.  Both effects are exactly the intuition behind
the paper's arithmetic, and the striping ablation benchmark
(``benchmarks/test_striping.py``) reproduces the 250-records-per-second
figure.

The device is cost-only (reads return zeros); the structures never read
their own data on the write path anyway, and payload-retaining runs use
a single simulated or real device.
"""

from __future__ import annotations

from .disk_model import DiskModel, DiskParameters, DiskStats


class StripedBlockDevice:
    """A cost-only block device striped over ``n_disks`` spindles.

    Args:
        n_blocks: total volume capacity in blocks.
        n_disks: number of spindles (the paper's terabyte volume: 5).
        params: per-spindle parameters (the paper's measured disk).
        stripe_blocks: consecutive blocks placed on one spindle before
            rotating to the next.  One 32 KB block per stripe unit by
            default, which maximises sequential parallelism.
    """

    def __init__(self, n_blocks: int, n_disks: int = 5,
                 params: DiskParameters | None = None,
                 *, stripe_blocks: int = 1) -> None:
        if n_blocks < 1:
            raise ValueError("device must have at least one block")
        if n_disks < 1:
            raise ValueError("need at least one spindle")
        if stripe_blocks < 1:
            raise ValueError("stripe unit must be at least one block")
        self.params = params or DiskParameters()
        self._n_blocks = n_blocks
        self.n_disks = n_disks
        self.stripe_blocks = stripe_blocks
        self.disks = [DiskModel(self.params) for _ in range(n_disks)]

    # -- BlockDevice protocol ------------------------------------------------

    @property
    def block_size(self) -> int:
        return self.params.block_size

    @property
    def n_blocks(self) -> int:
        return self._n_blocks

    def read_blocks(self, block: int, n_blocks: int) -> bytes:
        self._access(block, n_blocks, write=False)
        return bytes(n_blocks * self.block_size)

    def write_blocks(self, block: int, data: bytes) -> None:
        if len(data) % self.block_size != 0:
            raise ValueError("data must be a whole number of blocks")
        self._access(block, len(data) // self.block_size, write=True)

    def charge_write(self, block: int, n_blocks: int) -> bool:
        """Fast path for :func:`repro.storage.device.write_zeros`."""
        self._access(block, n_blocks, write=True)
        return True

    def charge_read(self, block: int, n_blocks: int) -> bool:
        """Fast path for :func:`repro.storage.device.read_discard`."""
        self._access(block, n_blocks, write=False)
        return True

    def sync(self) -> None:  # noqa: D102 - simulated device is durable
        pass

    def charge_seek(self) -> None:
        """Charge one bare head movement, rotating over spindles.

        Modelled overheads (boundary read-modify-writes, stack-pointer
        nudges) have no fixed address, so spreading them round-robin
        matches how the addressed operations themselves stripe.
        """
        self._seek_cursor = (getattr(self, "_seek_cursor", -1) + 1) \
            % self.n_disks
        self.disks[self._seek_cursor].charge_seek()

    # -- observers -------------------------------------------------------------

    @property
    def clock(self) -> float:
        """Volume time: the busiest spindle's clock (parallel array)."""
        return max(disk.clock for disk in self.disks)

    @property
    def model(self) -> DiskModel:
        """The busiest spindle (duck-type compatibility for harnesses
        that read ``device.model.stats``; use :meth:`stats` for
        volume-wide counters)."""
        return max(self.disks, key=lambda d: d.clock)

    def stats(self) -> DiskStats:
        """Sum of all spindles' counters."""
        total = DiskStats()
        for disk in self.disks:
            s = disk.stats
            total.seeks += s.seeks
            total.reads += s.reads
            total.writes += s.writes
            total.blocks_read += s.blocks_read
            total.blocks_written += s.blocks_written
            total.sequential_blocks += s.sequential_blocks
            total.seek_seconds += s.seek_seconds
            total.transfer_seconds += s.transfer_seconds
        return total

    def instrument(self, registry, *, name: str = "disk") -> None:
        """Mirror every spindle's counters into ``registry``.

        All spindles share the ``structure=name`` label, so the
        registry hands them the same counter objects and the metrics
        are automatically the volume-wide sums -- equal to
        :meth:`stats`.

        Args:
            registry: a :class:`repro.obs.MetricsRegistry`.
            name: value of the ``structure`` label.
        """
        for disk in self.disks:
            disk.instrument(registry, name=name)

    # -- internals ----------------------------------------------------------------

    def _disk_of(self, block: int) -> int:
        return (block // self.stripe_blocks) % self.n_disks

    def _access(self, block: int, n_blocks: int, *, write: bool) -> None:
        if block < 0 or n_blocks < 1:
            raise ValueError("invalid block range")
        if block + n_blocks > self._n_blocks:
            raise ValueError(
                f"access [{block}, {block + n_blocks}) beyond volume "
                f"of {self._n_blocks} blocks"
            )
        # Walk the range stripe unit by stripe unit, charging each
        # spindle one access per contiguous run it owns.  Runs on the
        # same spindle separated only by other spindles' stripes are
        # physically contiguous there, so the per-spindle head tracking
        # keeps them sequential automatically.
        position = block
        remaining = n_blocks
        while remaining > 0:
            unit_end = ((position // self.stripe_blocks) + 1) \
                * self.stripe_blocks
            run = min(remaining, unit_end - position)
            disk_index = self._disk_of(position)
            # The spindle-local address: which of its own stripe units
            # this is, preserving intra-disk contiguity.
            stripe_number = position // (self.stripe_blocks * self.n_disks)
            local = (stripe_number * self.stripe_blocks
                     + position % self.stripe_blocks)
            self.disks[disk_index].access(local, run, write=write)
            position += run
            remaining -= run
