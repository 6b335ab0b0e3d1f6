"""``python -m repro.service '<json>'``: one shard worker process.

The router of :mod:`repro.service.workers` starts it with its own
settings as one JSON object: the
:class:`~repro.service.workers.ShardWorkerService` arguments plus
``listen_fd``, the listening socket the worker inherits.  The worker
serves until SIGTERM, SIGINT or its parent's exit, then stops as every
serving process does (:meth:`~repro.service.server.RunningService.stop`).
"""

import json
import socket
import sys

from .server import run_until_stopped, start
from .workers import ShardWorkerService

settings = json.loads(sys.argv[1])
listener = socket.socket(fileno=settings.pop("listen_fd"))
run_until_stopped(
    start(listener, lambda: ShardWorkerService(**settings)),
    watch_parent=True,
)
