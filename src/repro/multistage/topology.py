"""The three-stage topology ``v(n, r, m, k)`` of Fig. 8.

* ``r`` input-stage modules of size ``n x m`` -- input module ``g``
  terminates global input ports ``g*n .. g*n + n - 1``;
* ``m`` middle-stage modules of size ``r x r``;
* ``r`` output-stage modules of size ``m x n`` -- output module ``p``
  drives global output ports ``p*n .. p*n + n - 1``;
* exactly one ``k``-wavelength fiber between every pair of modules in
  adjacent stages.

The overall network is ``N x N`` with ``N = n * r``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.multistage import check_middle_count

__all__ = ["ThreeStageTopology"]


@dataclass(frozen=True)
class ThreeStageTopology:
    """Static shape of a three-stage network.

    Attributes:
        n: ports per input (and output) module.
        r: number of input (and output) modules.
        m: number of middle modules.
        k: wavelengths per fiber.
    """

    n: int
    r: int
    m: int
    k: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"module port count n must be >= 1, got {self.n}")
        if self.r < 1:
            raise ValueError(f"module count r must be >= 1, got {self.r}")
        check_middle_count(self.m)
        if self.k < 1:
            raise ValueError(f"wavelength count k must be >= 1, got {self.k}")

    @property
    def n_ports(self) -> int:
        """Overall network size ``N = n r``."""
        return self.n * self.r

    # -- port/module arithmetic ----------------------------------------

    def input_module_of(self, port: int) -> int:
        """Input module terminating global input ``port``."""
        self._check_port(port)
        return port // self.n

    def output_module_of(self, port: int) -> int:
        """Output module driving global output ``port``."""
        self._check_port(port)
        return port // self.n

    def local_port(self, port: int) -> int:
        """Index of ``port`` within its module (0-based)."""
        self._check_port(port)
        return port % self.n

    def ports_of_module(self, module: int) -> range:
        """Global ports of input/output module ``module``."""
        if not 0 <= module < self.r:
            raise ValueError(f"module {module} outside [0, {self.r})")
        return range(module * self.n, (module + 1) * self.n)

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.n_ports:
            raise ValueError(f"port {port} outside [0, {self.n_ports})")

    # -- link inventory ---------------------------------------------------

    @property
    def first_stage_links(self) -> int:
        """Number of fibers between input and middle stages (``r * m``)."""
        return self.r * self.m

    @property
    def second_stage_links(self) -> int:
        """Number of fibers between middle and output stages (``m * r``)."""
        return self.m * self.r

    @property
    def internal_wavelength_channels(self) -> int:
        """Total internal link-wavelength channels (both inter-stage gaps)."""
        return (self.first_stage_links + self.second_stage_links) * self.k

    def describe(self) -> str:
        """Human-readable one-line summary."""
        return (
            f"v(n={self.n}, r={self.r}, m={self.m}, k={self.k}): "
            f"{self.n_ports}x{self.n_ports} WDM network, "
            f"{self.r} input modules ({self.n}x{self.m}), "
            f"{self.m} middle modules ({self.r}x{self.r}), "
            f"{self.r} output modules ({self.m}x{self.n})"
        )
