"""§2.1 background models: hibernation (snapshot boot) and suspend-to-RAM.

These are the alternatives BB rejects for smart TVs, modeled so the
T-SNAPSHOT experiment can regenerate the paper's arithmetic: a 3 GiB
hibernation image on the Galaxy S6's 300 MiB/s UFS takes ~10 s to read
back, snapshot *creation* blocks shutdown even longer, and suspend-to-RAM
is fast but forbidden whenever the user unplugs the TV (and silent
boot-then-suspend violates the EU 1 W standby regulation [9]).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.canonical import unit_draw
from repro.errors import KernelError
from repro.hw.platform import HardwarePlatform
from repro.quantities import msec, transfer_time_ns

#: EU Commission Regulation No 801/2013: standby power cap for TVs.
EU_STANDBY_LIMIT_W = 1.0


@dataclass(frozen=True, slots=True)
class HibernationModel:
    """Snapshot booting: store RAM to flash at power-off, restore at boot.

    Attributes:
        image_fraction: Fraction of DRAM captured in the snapshot image
            (1.0 = whole RAM; real snapshots skip free pages).
        restore_overhead_ns: Fixed bootloader/kernel cost around the image
            read (device reinit, page table fix-up).
        third_party_apps: True when users can install apps, which
            invalidates factory snapshot images: the image must then be
            (re)created at run time, paying :meth:`create_time_ns` at
            shutdown and risking corruption if power is cut mid-write.
    """

    image_fraction: float = 1.0
    restore_overhead_ns: int = msec(300)
    third_party_apps: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.image_fraction <= 1.0:
            raise KernelError(f"image_fraction must be in (0, 1]: {self.image_fraction}")
        if self.restore_overhead_ns < 0:
            raise KernelError("restore overhead cannot be negative")

    def image_bytes(self, platform: HardwarePlatform) -> int:
        """Snapshot image size on this platform."""
        return round(platform.dram.size_bytes * self.image_fraction)

    def restore_time_ns(self, platform: HardwarePlatform) -> int:
        """Cold-boot time via snapshot restore (the paper's ~10 s for 3 GiB)."""
        read_ns = transfer_time_ns(self.image_bytes(platform),
                                   platform.storage.seq_read_bps)
        return self.restore_overhead_ns + read_ns

    def create_time_ns(self, platform: HardwarePlatform) -> int:
        """Shutdown-time cost of writing the snapshot image."""
        return transfer_time_ns(self.image_bytes(platform),
                                platform.storage.seq_write_bps)

    def usable_with_factory_image(self) -> bool:
        """Factory (pre-loaded) snapshots only work without third-party apps."""
        return not self.third_party_apps


@dataclass(frozen=True, slots=True)
class SnapshotVerification:
    """Verdict of a snapshot-image integrity check.

    Attributes:
        intact: Whether the stored image checksums clean; a corrupt image
            must not be restored (half a restored kernel is worse than a
            slow boot), so the boot falls back to the conventional path.
        verify_time_ns: Time the check itself took — charged to the boot
            whichever way the verdict goes.
    """

    intact: bool
    verify_time_ns: int


def verify_snapshot(model: HibernationModel, platform: HardwarePlatform,
                    seed: int, corrupt_rate: float = 0.0,
                    checksum_fraction: float = 0.02,
                    checksum_overhead_ns: int = msec(50),
                    ) -> SnapshotVerification:
    """Simulated integrity check of a stored hibernation image.

    The bootloader reads ``checksum_fraction`` of the image (header plus
    sampled pages) and verifies checksums before committing to a restore —
    the fail-safe real devices ship, because a power cut mid-
    :meth:`HibernationModel.create_time_ns` leaves a torn image on flash.
    The verdict is seed-deterministic: the corruption draw is addressed by
    ``(seed, "snapshot-corrupt")``, never by global RNG state, so recovery
    replays are byte-identical.

    Raises:
        KernelError: If ``corrupt_rate`` or ``checksum_fraction`` is out
            of range.
    """
    if not 0.0 <= corrupt_rate <= 1.0:
        raise KernelError(f"corrupt_rate must be in [0, 1]: {corrupt_rate}")
    if not 0.0 < checksum_fraction <= 1.0:
        raise KernelError(
            f"checksum_fraction must be in (0, 1]: {checksum_fraction}")
    if checksum_overhead_ns < 0:
        raise KernelError("checksum overhead cannot be negative")
    read_bytes = round(model.image_bytes(platform) * checksum_fraction)
    verify_ns = checksum_overhead_ns + transfer_time_ns(
        read_bytes, platform.storage.seq_read_bps)
    draw = unit_draw(repr((seed, "snapshot-corrupt")))
    return SnapshotVerification(intact=draw >= corrupt_rate,
                                verify_time_ns=verify_ns)


@dataclass(frozen=True, slots=True)
class SuspendToRamModel:
    """Suspend-to-RAM ("Instant On"): keep DRAM powered while "off".

    Attributes:
        resume_time_ns: Wake-up latency (< 2 s per §1's Instant-On figure).
        standby_power_w: Power drawn while suspended.
    """

    resume_time_ns: int = msec(1_500)
    standby_power_w: float = 0.5

    def __post_init__(self) -> None:
        if self.resume_time_ns < 0:
            raise KernelError("resume time cannot be negative")
        if self.standby_power_w < 0:
            raise KernelError("standby power cannot be negative")

    def available_after_unplug(self) -> bool:
        """Suspend-to-RAM state is lost the moment the TV is unplugged."""
        return False

    def meets_eu_standby_regulation(self) -> bool:
        """Whether standby consumption stays within the 1 W EU cap.

        The rejected "silent boot then suspend" design kept the application
        processor active (well over 1 W), so it fails this check.
        """
        return self.standby_power_w <= EU_STANDBY_LIMIT_W
