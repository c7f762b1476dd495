"""End-to-end acceptance: the advisor as a service, purely over the wire.

Everything here drives deploy -> collect -> advise through
:class:`~repro.client.RemoteSession` against a live in-process server on
an ephemeral port — no direct session access — including N >= 4
concurrent collect jobs across deployments and job state surviving a
full server stop/restart.
"""

import threading

import pytest

from repro.client import RemoteSession
from repro.service.app import make_server
from tests.conftest import make_config


class LiveServer:
    """A running service over a state dir; restartable."""

    def __init__(self, state_dir: str, workers: int = 4):
        self.state_dir = state_dir
        self.workers = workers
        self.server = None
        self.thread = None

    def start(self) -> "LiveServer":
        self.server = make_server(self.state_dir, port=0,
                                  workers=self.workers)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       kwargs={"poll_interval": 0.05},
                                       daemon=True)
        self.thread.start()
        return self

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server.server_address[1]}"

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.server.state.close()
        self.thread.join(timeout=10)

    def restart(self) -> "LiveServer":
        self.stop()
        return self.start()


@pytest.fixture
def live(tmp_path):
    server = LiveServer(str(tmp_path / "state")).start()
    yield server
    server.stop()


def test_full_flow_with_concurrent_jobs_and_restart(live):
    remote = RemoteSession(live.url, timeout=15)

    # -- deploy 4 independent sweeps, purely over the wire ------------------
    infos = [
        remote.deploy(make_config(
            rgprefix=f"e2e{chr(ord('a') + i)}rg",
            nnodes=[1, 2],
        ).to_dict())
        for i in range(4)
    ]
    assert len({info.name for info in infos}) == 4

    # -- submit 4 collect jobs at once, then wait for all of them -----------
    jobs = [remote.collect(deployment=info.name) for info in infos]
    states = {job.record.state for job in jobs}
    assert states <= {"queued", "running"}  # all submitted asynchronously
    for job in jobs:
        record = job.wait(timeout=120)
        assert record.state == "done", record.error
        assert record.progress["total"] == 2

    # -- every deployment collected exactly its own scenarios ---------------
    for info, job in zip(infos, jobs):
        result = job.result()
        assert result.deployment == info.name
        assert result.completed == 2
        assert result.dataset_points == 2

    # -- advice over the wire, per deployment -------------------------------
    advices = {}
    for info in infos:
        advice = remote.advise(deployment=info.name)
        assert advice.deployment == info.name
        assert advice.dataset_points == 2
        assert len(advice.rows) >= 1
        advices[info.name] = advice

    # -- job state survives a full server stop/restart ----------------------
    job_ids = {job.id for job in jobs}
    live.restart()
    reborn = RemoteSession(live.url, timeout=15)
    listed = reborn.jobs()
    assert {record.id for record in listed} == job_ids
    assert {record.state for record in listed} == {"done"}
    # ... and so does everything the jobs produced.
    for info in infos:
        again = reborn.advise(deployment=info.name)
        assert again.rows == advices[info.name].rows

    # -- health/metrics reflect the restart boundary ------------------------
    health = reborn.health()
    assert health["status"] == "ok"
    assert health["jobs"]["done"] == 4


def _forge_crashed_job(state_dir: str, job_id: str, attempts: int) -> None:
    """Rewrite a finished job as if its worker died mid-run: running,
    expired lease, ``attempts`` claims already burned."""
    import json
    import os
    import sqlite3

    from repro.fleet.jobstore import fleet_db_path

    conn = sqlite3.connect(fleet_db_path(state_dir))
    try:
        (payload,) = conn.execute(
            "SELECT payload FROM jobs WHERE id = ?", (job_id,)).fetchone()
        record = json.loads(payload)
        record.update(state="running", finished_at=None, result=None,
                      worker_id="ghost-worker", lease_expires_at=1.0,
                      attempts=attempts)
        conn.execute(
            "UPDATE jobs SET state = 'running', worker_id = 'ghost-worker',"
            " lease_expires_at = 1.0, attempts = ?, payload = ?"
            " WHERE id = ?",
            (attempts, json.dumps(record), job_id),
        )
        conn.commit()
    finally:
        conn.close()
    assert os.path.exists(fleet_db_path(state_dir))


def _wait_finished(remote: RemoteSession, job_id: str, timeout: float = 60.0):
    import time

    deadline = time.monotonic() + timeout
    while True:
        record = remote.job(job_id)
        if record.finished:
            return record
        assert time.monotonic() < deadline, \
            f"job {job_id} still {record.state} after {timeout}s"
        time.sleep(0.05)


def test_restart_reclaims_interrupted_running_job(live):
    """A job whose worker died mid-run is *re-claimed* after a restart —
    it completes on the surviving server instead of going stale."""
    remote = RemoteSession(live.url, timeout=15)
    info = remote.deploy(make_config(rgprefix="reclaimrg").to_dict())
    job = remote.collect(deployment=info.name)
    job.wait(timeout=120)

    live.stop()
    _forge_crashed_job(live.state_dir, job.id, attempts=1)
    live.start()

    reborn = RemoteSession(live.url, timeout=15)
    recovered = _wait_finished(reborn, job.id)
    assert recovered.state == "done", recovered.error
    assert recovered.attempts == 2  # the original claim plus the re-claim
    assert reborn.advise(deployment=info.name).rows


def test_restart_parks_crash_looping_job_as_stale(live):
    """A job that burned through max_attempts claims must come back as
    `stale` — visible, terminal, and not hanging any client."""
    remote = RemoteSession(live.url, timeout=15)
    info = remote.deploy(make_config(rgprefix="stalerg").to_dict())
    job = remote.collect(deployment=info.name)
    job.wait(timeout=120)

    live.stop()
    _forge_crashed_job(live.state_dir, job.id, attempts=5)
    live.start()

    reborn = RemoteSession(live.url, timeout=15)
    stale = _wait_finished(reborn, job.id)
    assert stale.state == "stale"
    assert "giving up" in stale.error
    assert stale.finished  # a client wait() returns instead of hanging
    # The collected data is still there: advice keeps working.
    assert reborn.advise(deployment=info.name).rows
