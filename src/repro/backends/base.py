"""The back-end protocol the data collector drives.

A back-end owns compute resources pinned to one VM type at a time (an Azure
Batch pool, a Slurm partition) and can run the application's setup script
and per-scenario compute jobs on them.  Algorithm 1's pool-recycling logic
lives in the collector; the back-end only exposes split-phase primitives.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.appkit.script import AppScript
from repro.clock import SimClock
from repro.core.scenarios import Scenario


@dataclass(frozen=True)
class ScenarioRunResult:
    """Outcome of one scenario execution on a back-end.

    ``preempted`` marks an attempt cut short by a spot reclaim; the
    preemption counters on a *final* result are accumulated across every
    attempt of the scenario by the collector's spot recovery loop.
    """

    succeeded: bool
    exec_time_s: float
    cost_usd: float
    stdout: str
    app_vars: Dict[str, str] = field(default_factory=dict)
    infra_metrics: Dict[str, float] = field(default_factory=dict)
    failure_reason: Optional[str] = None
    started_at: float = 0.0
    finished_at: float = 0.0
    #: Capacity tier the attempt ran on (``ondemand`` or ``spot``).
    capacity: str = "ondemand"
    #: True when this outcome is a spot interruption (not an app failure).
    preempted: bool = False
    #: Spot interruptions absorbed before this result was produced.
    preemptions: int = 0
    #: Billed node-seconds that produced no surviving work (lost progress,
    #: restore overhead) across all attempts.
    wasted_node_s: float = 0.0


@dataclass(frozen=True)
class AsyncOp:
    """A non-blocking back-end operation in flight.

    ``ready_at`` is the absolute simulated timestamp at which the operation
    completes.  Once the shared clock has reached it (typically via an
    :class:`~repro.clock.EventQueue`), call :meth:`finish` to finalize the
    operation and obtain its result — ``None`` for provisioning,
    ``bool`` for setup, :class:`ScenarioRunResult` for scenario runs.

    Scenario ops on spot capacity also carry an ``_interrupt`` hook: call
    :meth:`interrupt` with the clock sitting at the eviction instant
    (strictly before ``ready_at``) to cut the attempt short; it returns a
    ``preempted`` :class:`ScenarioRunResult` billed up to that instant.
    An interrupted op must not be finished.
    """

    ready_at: float
    _finalize: Callable[[], object]
    _interrupt: Optional[Callable[[], object]] = None

    def finish(self) -> object:
        return self._finalize()

    @property
    def interruptible(self) -> bool:
        return self._interrupt is not None

    def interrupt(self) -> object:
        if self._interrupt is None:
            raise NotImplementedError("this operation cannot be interrupted")
        return self._interrupt()


def resumed_wall_s(full_wall_s: float, resume_from_s: float,
                   restart_overhead_s: float) -> float:
    """Attempt wall time of a (possibly resumed) scenario execution.

    The application always runs in full in the simulation; a resumed
    attempt only spends the remaining work plus the restore overhead.
    Shared by every preemption-capable back-end so the two substrates'
    spot billing can never drift apart.
    """
    if not resume_from_s and not restart_overhead_s:
        return full_wall_s
    return max(0.0, full_wall_s - resume_from_s) + restart_overhead_s


class ExecutionBackend(abc.ABC):
    """Primitive operations Algorithm 1 needs from a resource manager.

    The protocol is split-phase: each ``submit_*`` primitive starts an
    operation on the back-end's :attr:`clock` and returns an
    :class:`AsyncOp` whose ``ready_at`` says when it completes, so the
    collector's scheduler can keep several SKU pools in flight at once.
    A back-end whose work is instantaneous returns
    ``AsyncOp(self.clock.now, fn)``.  The blocking conveniences
    (:meth:`ensure_capacity`, :meth:`run_setup`, :meth:`run_scenario`)
    are written once below over those primitives.
    """

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Back-end identifier (e.g. ``azurebatch``, ``slurm``)."""

    @property
    @abc.abstractmethod
    def clock(self) -> SimClock:
        """The simulated clock shared by this back-end's resources.

        The sweep scheduler runs its event queue on it; every op's
        ``ready_at`` is a timestamp on this clock.
        """

    # -- split-phase primitives ----------------------------------------------------

    @abc.abstractmethod
    def submit_provision(self, sku_name: str, nodes: int) -> AsyncOp:
        """Start making ``nodes`` nodes of ``sku_name`` available.

        Called when Algorithm 1 switches VM type (fresh pool) and when a
        scenario needs more nodes than currently provisioned (the paper's
        incremental resize).  Quota is allocated and billing starts
        immediately; the boot wait is the op's ``ready_at``.
        ``finish()`` returns ``None``.
        """

    @abc.abstractmethod
    def submit_setup(self, sku_name: str, script: AppScript) -> AsyncOp:
        """Start the application setup task; ``finish()`` returns bool.

        The caller must have provisioned at least one node (via a finished
        :meth:`submit_provision`) first.
        """

    @abc.abstractmethod
    def submit_scenario(self, scenario: Scenario, script: AppScript,
                        resume_from_s: float = 0.0,
                        restart_overhead_s: float = 0.0) -> AsyncOp:
        """Start one scenario; ``finish()`` returns ScenarioRunResult.

        The caller must have provisioned ``scenario.nnodes`` nodes first.

        ``resume_from_s`` and ``restart_overhead_s`` implement
        checkpoint/restart on spot capacity: the attempt's wall time is the
        application's full runtime minus the checkpointed progress, plus
        the restore overhead.  Back-ends without preemption support may
        ignore them (the collector only passes non-zero values after an
        interruption, which requires ``supports_preemption``).
        """

    @abc.abstractmethod
    def release_capacity(self, sku_name: str, delete: bool) -> None:
        """Shrink to zero (``delete=False``) or delete the SKU's resources."""

    @abc.abstractmethod
    def teardown(self) -> None:
        """Release everything (end of collection)."""

    def needs_setup(self, sku_name: str) -> bool:
        """True when the SKU's resources still need the application setup."""
        return True

    # -- spot capacity (preemption-aware back-ends) -------------------------------
    #
    # Back-ends that can run on interruptible capacity set ``capacity``
    # to ``"spot"``, report ``supports_preemption``, honour the
    # resume/overhead parameters of :meth:`submit_scenario`, and attach
    # an interrupt hook to scenario ops.  The default keeps other
    # back-ends valid: the collector refuses spot sweeps on them.

    @property
    def supports_preemption(self) -> bool:
        """True when scenario ops can be interrupted mid-run (spot)."""
        return False

    # -- blocking conveniences over the primitives --------------------------------

    def _wait(self, op: AsyncOp) -> object:
        """Advance the clock to ``op.ready_at`` and finish the op."""
        if op.ready_at > self.clock.now:
            self.clock.advance_to(op.ready_at)
        return op.finish()

    def ensure_capacity(self, sku_name: str, nodes: int) -> None:
        """Make ``nodes`` nodes of ``sku_name`` available, waiting for boot."""
        self._wait(self.submit_provision(sku_name, nodes))

    def run_setup(self, sku_name: str, script: AppScript) -> bool:
        """Run the application setup for the current VM type's resources."""
        if not self.needs_setup(sku_name):
            return True
        self.ensure_capacity(sku_name, 1)
        return bool(self._wait(self.submit_setup(sku_name, script)))

    def run_scenario(self, scenario: Scenario,
                     script: AppScript) -> ScenarioRunResult:
        """Execute one scenario and return its measurement."""
        self.ensure_capacity(scenario.sku_name, scenario.nnodes)
        result = self._wait(self.submit_scenario(scenario, script))
        assert isinstance(result, ScenarioRunResult)
        return result

    # -- cost/observability -------------------------------------------------------

    @property
    @abc.abstractmethod
    def provisioning_overhead_s(self) -> float:
        """Cumulative simulated seconds spent provisioning/booting nodes."""

    @property
    @abc.abstractmethod
    def total_infrastructure_cost_usd(self) -> float:
        """Billed cost including boot/idle time (not just task time)."""
