"""Slurm back-end: the paper's planned alternative to Azure Batch."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.appkit.script import AppScript
from repro.backends.base import (AsyncOp, ExecutionBackend,
                                 ScenarioRunResult, resumed_wall_s)
from repro.backends.common import execute_run, execute_setup
from repro.clock import SimClock
from repro.core.scenarios import Scenario
from repro.errors import BackendError
from repro.slurmsim.cluster import JobCompletion, SlurmCluster

if False:  # pragma: no cover - typing only
    from repro.perf.noise import NoiseModel


def partition_for(sku_name: str, capacity: str = "ondemand") -> str:
    prefix = "part-spot-" if capacity == "spot" else "part-"
    return prefix + sku_name.lower().replace("standard_", "")


@dataclass
class SlurmBackend(ExecutionBackend):
    """ExecutionBackend over a simulated cloud-bursting Slurm cluster."""

    cluster: SlurmCluster
    noise: Optional["NoiseModel"] = None
    #: Capacity tier for partitions created from here on (``ondemand``
    #: or ``spot``); spot partitions burst onto discounted, interruptible
    #: nodes under distinct partition names.
    capacity: str = "ondemand"
    _provisioning_s: float = 0.0
    _setup_done: Dict[str, bool] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return "slurm"

    @property
    def supports_preemption(self) -> bool:
        return True

    @property
    def clock(self) -> SimClock:
        return self.cluster.clock

    def _partition(self, sku_name: str) -> str:
        return partition_for(sku_name, self.capacity)

    def submit_provision(self, sku_name: str, nodes: int) -> AsyncOp:
        part_name = self._partition(sku_name)
        if part_name not in self.cluster.partitions:
            self.cluster.create_partition(part_name, sku_name,
                                          spot=self.capacity == "spot")
            self._setup_done[part_name] = False
        partition = self.cluster.get_partition(part_name)
        ready_at = partition.begin_power_up(nodes)
        self._provisioning_s += ready_at - self.cluster.clock.now
        return AsyncOp(ready_at, lambda: None)

    def release_capacity(self, sku_name: str, delete: bool) -> None:
        part_name = self._partition(sku_name)
        if part_name in self.cluster.partitions:
            self.cluster.get_partition(part_name).power_down(0)
            # Slurm partitions are configuration, not billed resources;
            # "delete" has no extra effect beyond powering down.

    def teardown(self) -> None:
        self.cluster.teardown()

    def needs_setup(self, sku_name: str) -> bool:
        return not self._setup_done.get(self._partition(sku_name), False)

    def submit_setup(self, sku_name: str, script: AppScript) -> AsyncOp:
        part_name = self._partition(sku_name)
        if self._setup_done.get(part_name):
            return AsyncOp(self.cluster.clock.now, lambda: True)

        def runner(hosts, filesystem, workdir):
            execution = execute_setup(script, hosts, filesystem, workdir,
                                      noise=self.noise)
            return JobCompletion(
                exit_code=execution.exit_code,
                stdout=execution.stdout,
                wall_time_s=execution.wall_time_s,
            )

        job = self.cluster.start_job(
            name=f"setup-{script.appname}", partition=part_name, nodes=1,
            runner=runner,
        )
        completion = self.cluster.pending_completion(job.job_id)

        def finalize() -> bool:
            self.cluster.complete_job(job.job_id)
            self._setup_done[part_name] = job.exit_code == 0
            return self._setup_done[part_name]

        assert job.start_time is not None
        return AsyncOp(job.start_time + completion.wall_time_s, finalize)

    def submit_scenario(self, scenario: Scenario, script: AppScript,
                        resume_from_s: float = 0.0,
                        restart_overhead_s: float = 0.0) -> AsyncOp:
        part_name = self._partition(scenario.sku_name)
        captured: Dict[str, object] = {}

        def runner(hosts, filesystem, workdir):
            execution = execute_run(script, scenario, hosts, filesystem,
                                    workdir, noise=self.noise)
            captured["execution"] = execution
            return JobCompletion(
                exit_code=execution.exit_code,
                stdout=execution.stdout,
                wall_time_s=resumed_wall_s(execution.wall_time_s,
                                           resume_from_s,
                                           restart_overhead_s),
            )

        job = self.cluster.start_job(
            name=f"run-{scenario.scenario_id}",
            partition=part_name,
            nodes=scenario.nnodes,
            runner=runner,
        )
        completion = self.cluster.pending_completion(job.job_id)

        def finalize() -> ScenarioRunResult:
            self.cluster.complete_job(job.job_id)
            execution = captured.get("execution")
            if execution is None:
                raise BackendError(f"job {job.job_id} did not execute")
            price = self.cluster.get_partition(part_name).hourly_price
            cost = scenario.nnodes * price * completion.wall_time_s / 3600.0
            failure = None
            if execution.exit_code != 0:
                for line in execution.stdout.splitlines():
                    if "reason:" in line:
                        failure = line.split("reason:", 1)[1].strip()
                        break
                else:
                    failure = "job exited non-zero"
            return ScenarioRunResult(
                succeeded=execution.exit_code == 0,
                exec_time_s=completion.wall_time_s,
                cost_usd=cost,
                stdout=execution.stdout,
                app_vars=dict(execution.app_vars),
                infra_metrics=dict(execution.infra_metrics),
                failure_reason=failure,
                started_at=job.start_time or 0.0,
                finished_at=job.end_time or 0.0,
                capacity=self.capacity,
            )

        def interrupt() -> ScenarioRunResult:
            self.cluster.interrupt_job(job.job_id)
            assert job.start_time is not None and job.end_time is not None
            elapsed = job.end_time - job.start_time
            price = self.cluster.get_partition(part_name).hourly_price
            return ScenarioRunResult(
                succeeded=False,
                exec_time_s=elapsed,
                cost_usd=scenario.nnodes * price * elapsed / 3600.0,
                stdout="",
                failure_reason="spot capacity reclaimed",
                started_at=job.start_time,
                finished_at=job.end_time,
                capacity=self.capacity,
                preempted=True,
                preemptions=1,
            )

        assert job.start_time is not None
        return AsyncOp(job.start_time + completion.wall_time_s, finalize,
                       interrupt)

    @property
    def provisioning_overhead_s(self) -> float:
        return self._provisioning_s

    @property
    def total_infrastructure_cost_usd(self) -> float:
        return self.cluster.total_cost_usd
