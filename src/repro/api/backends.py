"""Pluggable execution backends for the inference :class:`~repro.api.Engine`.

A backend decides *how* a compiled crossbar stage is executed — which
sampling engine turns a :class:`~repro.hardware.accelerator.TiledLinearLayer`
plus a flat +-1 activation batch into the layer's +-1 outputs. Backends
are stateless strategy objects registered under string keys so callers
(CLI flags, experiment configs, serving layers) select them by name, and
new execution strategies (multiprocessing shards, GPU offload, remote
workers) plug in without touching the engine:

    from repro.api import register_backend

    @register_backend("my-backend", summary="...")
    class MyBackend:
        deterministic = False

        def run_layer(self, layer, flat, *, rng, validate=None):
            ...

First-class backends:

``"ideal"``
    Noise-free sign of the exact pre-activation (the equivalence
    reference; bit-for-bit equal to the legacy ``mode="ideal"``).
``"stochastic"``
    The hardware-default dispatch: fused inverse-CDF Binomial counts for
    an exact APC, packed bit-level otherwise — exactly the legacy
    ``mode="stochastic"`` path.
``"stochastic-dense"``
    Legacy per-tile sampling on dense float ``(L, N, cols)`` windows.
``"stochastic-packed"``
    Bit-level execution on uint64 bit-plane words (:mod:`repro.sc.packed`).
``"stochastic-batched"``
    Fused inverse-CDF sampling drawn from the *session's* shard
    generator, block by block, instead of the layers' own sampler
    generators — the :class:`~repro.api.Session` owns the randomness.
``"stochastic-parallel"``
    Shard-level strategy (:mod:`repro.api.parallel`, a facade over
    :class:`repro.runtime.scheduler.ShardParallelScheduler`):
    micro-batch shards of the session's
    :class:`~repro.runtime.plan.ShardPlan` are executed on a process
    pool (activations shipped by pickle), bit-identical to
    serial execution for the same session seed. Implements ``run_plan``
    / ``run_shards`` instead of ``run_layer``.

Backends answer *how* a crossbar stage is sampled; the orthogonal
question of *where shards and tiles run* belongs to the runtime
schedulers (:mod:`repro.runtime.scheduler` — ``"serial"``,
``"shard-parallel"``, ``"tile-parallel"``), selected per session via
``engine.session(scheduler=...)``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Type

import numpy as np

from repro.hardware.accelerator import TiledLinearLayer

_REGISTRY: Dict[str, Type] = {}
_ALIASES: Dict[str, str] = {}
#: Cached instances of stateless backends — one strategy object per
#: registered name, shared by every session (constructing a fresh
#: object per ``Session.run`` was pure garbage churn). Stateful
#: backends (``stateless = False``, e.g. process pools) are excluded.
_INSTANCES: Dict[str, object] = {}
#: When set (CLI ``--workers``), requests for the default-dispatch
#: ``"stochastic"`` backend resolve to this strategy instance instead,
#: so existing experiments parallelize without threading a new argument
#: through every harness.
_DISPATCH_OVERRIDE = None


def register_backend(name: str, *, aliases: Tuple[str, ...] = (), summary: str = ""):
    """Class decorator registering an execution backend under ``name``.

    The class must provide ``run_layer(layer, flat, *, rng, validate)``
    returning the +-1 ``(N, out)`` outputs, and may set a
    ``deterministic`` flag (True suppresses sampling telemetry).
    """

    def decorator(cls):
        if name in _REGISTRY or name in _ALIASES:
            raise ValueError(f"backend {name!r} is already registered")
        cls.name = name
        if summary:
            cls.summary = summary
        _REGISTRY[name] = cls
        for alias in aliases:
            if alias in _REGISTRY or alias in _ALIASES:
                raise ValueError(f"backend alias {alias!r} is already registered")
            _ALIASES[alias] = name
        return cls

    return decorator


def available_backends() -> List[str]:
    """Canonical (alias-free) backend names, sorted."""
    return sorted(_REGISTRY)


def backend_aliases() -> Dict[str, str]:
    """Alias -> canonical-name mapping (e.g. ``exact -> ideal``)."""
    return dict(_ALIASES)


def set_dispatch_override(backend):
    """Install (or clear, with None) the default-dispatch override.

    While installed, :func:`get_backend` resolves ``"stochastic"`` /
    ``"auto"`` to ``backend`` instead of the registered class — the CLI
    uses this to route any experiment's stochastic inference through a
    configured parallel backend. Returns the previous override so
    callers can restore it.
    """
    global _DISPATCH_OVERRIDE
    previous = _DISPATCH_OVERRIDE
    _DISPATCH_OVERRIDE = backend
    return previous


def get_backend(name, *, allow_override: bool = True):
    """Resolve the backend registered under ``name`` (or an alias).

    Passing an object that already satisfies a backend protocol
    (``run_layer`` for layer-level strategies, ``run_plan`` for
    shard-level ones) returns it unchanged, so engines accept both
    names and ready-made strategy instances. Stateless backends are
    cached — every caller shares one instance per name.

    ``allow_override=False`` ignores the dispatch override installed by
    :func:`set_dispatch_override`; the parallel backend resolves its
    *inner* strategy this way so routing ``"stochastic"`` to a process
    pool cannot recurse (a forked worker inherits the override global).
    """
    if hasattr(name, "run_layer") or hasattr(name, "run_plan"):
        return name
    key = _ALIASES.get(name, name)
    cls = _REGISTRY.get(key)
    if cls is None:
        raise KeyError(
            f"unknown backend {name!r}; registered: {', '.join(available_backends())}"
        )
    if allow_override and key == "stochastic" and _DISPATCH_OVERRIDE is not None:
        return _DISPATCH_OVERRIDE
    if not getattr(cls, "stateless", True):
        return cls()
    instance = _INSTANCES.get(key)
    if instance is None:
        instance = _INSTANCES[key] = cls()
    return instance


def resolve_strategy(source):
    """Resolve ``source`` (name or instance) to ``(strategy, owned)``.

    ``owned`` is True only when this call *constructed* a throwaway
    stateful instance from a name — the caller is then responsible for
    closing it. Caller-provided instances, cached stateless singletons,
    and the shared dispatch-override instance are never owned (closing
    the override from a session would tear down the pool every other
    caller is using).
    """
    strategy = get_backend(source)
    owned = (
        isinstance(source, str)
        and not getattr(strategy, "stateless", True)
        and strategy is not _DISPATCH_OVERRIDE
    )
    return strategy, owned


class ExecutionBackend:
    """Base class for execution strategies (subclassing is optional)."""

    name = "?"
    summary = ""
    #: True when the backend consumes no randomness (telemetry then
    #: reports zero sampled windows).
    deterministic = False
    #: Stateless strategies are cached by :func:`get_backend` (one
    #: shared instance per name). Backends that carry configuration or
    #: resources (worker pools) set this False and are constructed
    #: fresh per request-for-name.
    stateless = True

    def run_layer(
        self,
        layer: TiledLinearLayer,
        flat: np.ndarray,
        *,
        rng: np.random.Generator,
        validate=None,
    ) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<backend {self.name}>"


@register_backend("ideal", aliases=("exact",), summary="noise-free sign reference")
class IdealBackend(ExecutionBackend):
    deterministic = True

    def run_layer(self, layer, flat, *, rng, validate=None):
        return layer.ideal_output(flat)


@register_backend(
    "stochastic",
    aliases=("auto",),
    summary="hardware-default dispatch (fused tables / packed bit-level)",
)
class StochasticAutoBackend(ExecutionBackend):
    def run_layer(self, layer, flat, *, rng, validate=None):
        return layer.forward(flat, validate=validate)


@register_backend(
    "stochastic-dense", summary="legacy per-tile sampling on dense float windows"
)
class StochasticDenseBackend(ExecutionBackend):
    def run_layer(self, layer, flat, *, rng, validate=None):
        return layer.forward_dense(flat, validate=validate)


@register_backend(
    "stochastic-packed", summary="bit-level path on uint64 bit-plane words"
)
class StochasticPackedBackend(ExecutionBackend):
    def run_layer(self, layer, flat, *, rng, validate=None):
        return layer.forward_packed(flat, validate=validate)


@register_backend(
    "stochastic-batched",
    summary="fused inverse-CDF counts drawn from the session generator",
)
class StochasticBatchedBackend(ExecutionBackend):
    def run_layer(self, layer, flat, *, rng, validate=None):
        return layer.forward_batched(flat, validate=validate, rng=rng)
