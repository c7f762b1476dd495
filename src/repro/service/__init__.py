"""repro.service — the advisor as a service.

Two pieces:

* :mod:`repro.service.router` — the HTTP-agnostic JSON router over the
  :class:`~repro.api.AdvisorSession` facade, reusing the frozen request/
  result dataclasses for every payload;
* :mod:`repro.service.app` — the threaded stdlib HTTP server binding the
  router to a socket (the ``hpcadvisor-sim serve`` command).

Collect/predict sweeps run as jobs on the shared fleet queue
(:mod:`repro.fleet`): :func:`build_state` gives every server a
:class:`~repro.fleet.FleetJobManager` over ``<state-dir>/fleet.sqlite``.
The matching typed client lives in :mod:`repro.client`.
"""

from repro.service.metrics import Metrics
from repro.service.router import Response, Router, ServiceState
from repro.service.app import build_state, make_server, serve

__all__ = [
    "Metrics", "Response", "Router", "ServiceState",
    "build_state", "make_server", "serve",
]
