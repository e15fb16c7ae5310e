"""Main-memory facade: four channels, one controller each (Table I).

Routes requests to the owning channel controller by address and shares
one functional backing store (line contents are global) and one metrics
registry, the run's only record of memory-wide counts, across channels.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.memory.address import AddressMapper
from repro.memory.controller import MemoryController
from repro.memory.request import MemoryRequest, RequestKind
from repro.sim.engine import Engine
from repro.sim.metrics import MemoryStats
from repro.telemetry import Telemetry

if TYPE_CHECKING:
    # The config is imported lazily at runtime to avoid a package cycle;
    # the store (and the codec it loads) only by functional runs.
    from repro.core.config import SystemConfig
    from repro.memory.storage import MemoryStorage


def make_controller(
    engine: Engine,
    config: "SystemConfig",
    channel_id: int = 0,
    storage: Optional["MemoryStorage"] = None,
    seed: int = 1,
    telemetry: Optional[Telemetry] = None,
) -> MemoryController:
    """Build the right controller class for ``config``."""
    if config.is_pcmap:
        # Imported here to avoid a circular import at module load time
        # (core.controller subclasses memory.controller).
        from repro.core.controller import PCMapController

        return PCMapController(
            engine, config, channel_id, storage, seed, telemetry
        )
    if getattr(config, "enable_write_pausing", False):
        from repro.core.pausing import WritePausingController

        return WritePausingController(
            engine, config, channel_id, storage, seed, telemetry
        )
    return MemoryController(engine, config, channel_id, storage, seed, telemetry)


class MainMemory:
    """The full PCM main memory behind the LLC."""

    def __init__(
        self,
        engine: Engine,
        config: "SystemConfig",
        seed: int = 1,
        storage: Optional["MemoryStorage"] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.engine = engine
        self.config = config
        #: Shared tracer/registry bundle; every channel controller reports
        #: into it, so its counters aggregate memory-wide.
        self.telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        self.mapper = AddressMapper(config.geometry)
        if storage is None and config.functional:
            from repro.memory.storage import MemoryStorage

            storage = MemoryStorage(keep_pcc=config.geometry.has_pcc_chip)
        self.storage = storage
        self.controllers: List[MemoryController] = [
            make_controller(
                engine, config, channel, storage, seed, self.telemetry
            )
            for channel in range(config.geometry.n_channels)
        ]

    # ------------------------------------------------------------------
    def controller_for(self, address: int) -> MemoryController:
        """The channel controller owning ``address``."""
        decoded = self.mapper.decode(address)
        return self.controllers[decoded.channel]

    def can_accept(self, kind: RequestKind, address: int) -> bool:
        # Cores poll this before every issue: route by the channel digit
        # alone and leave the checked decode to ``submit``.
        controller = self.controllers[self.mapper.channel_of(address)]
        return controller.can_accept(kind)

    def submit(self, request: MemoryRequest) -> None:
        # The routing decode is the same decode the controller would
        # redo; hand it over so submit skips its own mapper lookup.
        decoded = self.mapper.decode(request.address)
        self.controllers[decoded.channel].submit(request, decoded)

    def wait_for_space(self, kind: RequestKind, address: int, callback) -> None:
        self.controller_for(address).wait_for_space(kind, callback)

    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        """True when every channel's queues are empty."""
        return all(controller.idle for controller in self.controllers)

    def aggregate_stats(self) -> MemoryStats:
        """Memory-wide counters, read from the shared metrics registry."""
        return MemoryStats.from_registry(self.telemetry.metrics)

    def irlp_summary(self) -> Tuple[float, float]:
        """(mean, max) IRLP over all write windows of all channels.

        The mean adds the window values left to right, in channel then
        window-creation order: ``sum`` compensates floats on CPython 3.12
        and would round differently there than on 3.10 and 3.11.
        """
        values = [
            value
            for controller in self.controllers
            for value in controller.irlp.values()
        ]
        if not values:
            return 0.0, 0.0
        total = 0.0
        for value in values:
            total += value
        return total / len(values), max(values)

    def write_service_busy_ticks(self) -> int:
        """Total write-window busy time, summed over channels."""
        return sum(
            controller.irlp.drain_busy_ticks()
            for controller in self.controllers
        )
