"""Multi-process deployment of experiment specs over real TCP.

``repro.launch`` is the control plane that turns one
:class:`~repro.experiment.spec.ExperimentSpec` into a set of OS processes:

* :mod:`~repro.launch.worker` — the per-replica entrypoint
  (``python -m repro.launch.worker``) that builds a
  :class:`~repro.runtime.server.ReplicaServer` over a real
  :class:`~repro.net.tcp.TcpTransport` from a serialized spec fragment, runs
  its own site's workload clients, and ships measurements back;
* :class:`~repro.launch.supervisor.Supervisor` — spawns the workers, drives
  the handshake (hello → setup → bound → peers → running → run → result →
  exit) with per-phase timeouts, allocates ports by letting each worker bind
  ephemerally and report back, and guarantees teardown (ask politely, then
  SIGTERM, then SIGKILL — a crashed worker surfaces as a
  :class:`~repro.errors.LaunchError`, never a hang);
* :class:`~repro.launch.backend.ProcessBackend` — the ``proc`` entry in
  :data:`~repro.experiment.deployment.BACKENDS`, reducing the workers'
  payloads to the uniform :class:`~repro.experiment.result.ExperimentResult`.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy(
    globals(),
    {
        ".backend": ("ProcessBackend",),
        ".supervisor": ("Supervisor",),
    },
)

__all__ = ["ProcessBackend", "Supervisor"]
