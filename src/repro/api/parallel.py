"""Multiprocessing shard execution: the ``"stochastic-parallel"`` backend.

Since the runtime refactor this module is a thin registration shim:
the pool machinery (worker initializer, per-shard reseed-and-execute
tasks, pickled activation slabs) lives in
:class:`repro.runtime.scheduler.ShardParallelScheduler`, and
:class:`StochasticParallelBackend` simply *is* that scheduler exposed
under the backend registry's shard-level protocol (``run_plan``), so
every existing entry point — ``Session(backend="stochastic-parallel")``,
``repro.cli run --workers N``, serving front-ends sharing one pool —
keeps working unchanged.

The guarantees are the scheduler's:

* the compiled network is shipped **once per worker** via the pool
  initializer; each contiguous shard group's activation rows ride
  the pipe to their worker as one pickled slab;
* each shard task re-derives the network's full sampler state from the
  shard's child seed (:func:`repro.runtime.plan.seed_shard`) and
  executes through the same :func:`repro.runtime.plan.run_stages` the
  serial loop uses, so N-worker output is **bit-identical** to serial
  execution for the same session seed;
* per-shard telemetry travels back with the logits and is merged in
  plan order (:func:`repro.api.results.merge_telemetry`).

The backend is *stateful* (it owns a pool configured for one network),
so :func:`~repro.api.backends.get_backend` constructs a fresh instance
per request-for-name instead of caching it; a :class:`~repro.api.Session`
resolves its strategy once and keeps the pool warm across requests.
Construct it directly to configure it::

    from repro.api.parallel import StochasticParallelBackend

    backend = StochasticParallelBackend(workers=4)
    with engine.session(seed=0, backend=backend) as session:
        result = session.run(images)
    backend.close()
"""

from __future__ import annotations

from repro.api.backends import register_backend
from repro.runtime.scheduler import ShardParallelScheduler


@register_backend(
    "stochastic-parallel",
    summary="process-pool micro-batch shards (bit-identical to serial)",
)
class StochasticParallelBackend(ShardParallelScheduler):
    """Shard-level execution strategy over a worker process pool.

    A facade over :class:`~repro.runtime.scheduler.ShardParallelScheduler`
    (which see, for ``workers`` / ``inner`` / ``recovery``); registered
    as the ``"stochastic-parallel"`` backend so sessions select it by
    name.
    """

    deterministic = False
    #: Carries configuration and a live pool — never registry-cached.
    stateless = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<backend stochastic-parallel workers={self.workers} "
            f"inner={self.inner!r}>"
        )
