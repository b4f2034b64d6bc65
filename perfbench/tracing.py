"""Span tracing installed from outside the program.

The benchmark never edits program code: :func:`install` replaces module
and class attributes of each layer's public entry points with wrappers
that record a span per call (name, start, end, parent, request id) and,
for a few of them, a derived sample (daemon queue wait, stage times).
Spans stay in memory and are written out once, at shutdown.

The same installer runs in-process for ``offline-vgg`` and inside the
traced server child for the wire workloads (``trace_serve.py``).
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Dict, List

import numpy as np

from loadgen import percentile

#: Per-layer metric names and units, in report order.
LAYER_METRICS: Dict[str, str] = {
    "protocol.decode_us": "us",
    "protocol.encode_us": "us",
    "protocol.frames_per_req": "count",
    "server.submit_us": "us",
    "server.shed": "count",
    "router.dispatch_us": "us",
    "router.spillovers": "count",
    "router.failovers": "count",
    "router.sticky_ratio": "fraction",
    "daemon.wait_ms.p50": "ms",
    "daemon.wait_ms.p99": "ms",
    "daemon.exec_ms.p50": "ms",
    "daemon.reqs_per_wave": "count",
    "daemon.imgs_per_wave": "count",
    "daemon.coalesced_ratio": "fraction",
    "daemon.queue_high_water": "count",
    "plan.outside_stages_us": "us",
    "plan.shards_per_req": "count",
    "stage.encode_us_per_img": "us",
    "stage.conv_us_per_img": "us",
    "stage.linear_us_per_img": "us",
    "stage.pool_us_per_img": "us",
    "stage.head_us_per_img": "us",
    "stage.lowering_us_per_img": "us",
    "kernel.us_per_img": "us",
    "kernel.ns_per_window": "ns",
    "kernel.windows_per_img": "count",
    "session.run_ms.p50": "ms",
    "session.outside_stages_ms.p50": "ms",
    "chip.energy_per_img_j": "J",
    "chip.latency_per_img_s": "s",
    "chip.tops_per_w": "TOPS/W",
    "setup.train_s": "s",
    "setup.compile_s": "s",
    "setup.ready_s": "s",
    "setup.warmup_s": "s",
    "loadgen.late_p99_ms": "ms",
    "host.steal_pct": "%",
}

STAGE_KINDS = ("encode", "conv", "linear", "pool", "head")


class Tracer:
    """In-memory span store plus the samples derived at span exit."""

    def __init__(self) -> None:
        # One record per call: [id, name, start, end, parent_id, rid].
        self.spans: List[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.totals: Dict[str, float] = defaultdict(float)
        self.instances: Dict[str, list] = defaultdict(list)
        self._restore: List[tuple] = []
        self.window_start = 0.0

    def open_window(self) -> None:
        """Start the measured window: samples and totals restart, and
        only spans starting after now count (set-up spans always do)."""
        with self._lock:
            self.samples.clear()
            self.totals.clear()
            self.window_start = time.perf_counter()

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.totals[key] += value

    def sample(self, key: str, value: float) -> None:
        with self._lock:
            self.samples[key].append(value)

    def wrap(self, owner, attr: str, name: str, *, rid_arg=None, after=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``after(record, args, kwargs, result)`` runs once the call
        returned. Class attributes keep their classmethod-ness.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_cm = isinstance(raw, classmethod)
        func = raw.__func__ if is_cm else raw
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if rid_arg is not None:
                rid = args[rid_arg]
            elif parent is not None:
                rid = parent[5]
            else:
                rid = getattr(tracer._local, "rid", None)
            record = [
                next(tracer._ids),
                name,
                time.perf_counter(),
                0.0,
                None if parent is None else parent[0],
                rid,
            ]
            tracer.spans.append(record)
            stack.append(record)
            try:
                result = func(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(record, args, kwargs, result)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_cm else wrapper)
        self._restore.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # ------------------------------------------------------------------
    def by_name(self, name: str) -> List[list]:
        """Finished spans called ``name`` inside the measured window."""
        since = 0.0 if name.startswith("setup.") else self.window_start
        return [s for s in self.spans if s[1] == name and s[3] > 0 and s[2] >= since]

    def self_times(self) -> Dict[str, dict]:
        """Per span name: calls, total time and self time (total minus
        the part of its interval that child spans cover), seconds."""
        children: Dict[int, list] = defaultdict(list)
        for span in self.spans:
            if span[4] is not None and span[3] > 0:
                children[span[4]].append((span[2], span[3]))
        table: Dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span in self.spans:
            if span[3] <= 0:
                continue
            total = span[3] - span[2]
            covered, cursor = 0.0, span[2]
            for start, end in sorted(children.get(span[0], ())):
                start, end = max(start, cursor), min(end, span[3])
                if end > start:
                    covered += end - start
                    cursor = end
            row = table[span[1]]
            row["calls"] += 1
            row["total_s"] += total
            row["self_s"] += total - covered
        return dict(table)

    def dump(self, path: str, extra: dict) -> None:
        """Write every span plus ``extra`` (gzip JSON)."""
        payload = dict(extra)
        payload["span_fields"] = ["id", "name", "start", "end", "parent", "rid"]
        payload["spans"] = self.spans
        payload["self_times"] = self.self_times()
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh, default=_jsonable)


def _jsonable(value):
    if isinstance(value, np.generic):
        return value.item()
    return str(value)


# ----------------------------------------------------------------------
def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads use."""
    from repro.api import backends as api_backends
    from repro.api.engine import Engine, Session
    from repro.experiments import common
    from repro.net import protocol
    from repro.net.router import DaemonRouter
    from repro.net.server import NetworkServer
    from repro.runtime import scheduler as rt_scheduler
    from repro.runtime.daemon import ServingDaemon

    def remember(kind):
        def after(record, args, kwargs, result):
            tracer.instances[kind].append(args[0])

        return after

    # setup
    tracer.wrap(common, "trained_mlp", "setup.train")
    tracer.wrap(common, "trained_vgg", "setup.train")
    tracer.wrap(Engine, "from_model", "setup.compile")

    # wire protocol (server side: the decode sets the request id that
    # the following submit spans on the same thread inherit)
    def set_rid(record, args, kwargs, result):
        tracer._local.rid = args[1]

    tracer.wrap(protocol, "parse_header", "protocol.parse_header")
    tracer.wrap(protocol, "decode_payload", "protocol.decode_payload", rid_arg=1, after=set_rid)
    for fn in ("encode_response", "encode_partial", "encode_progress", "encode_error"):
        tracer.wrap(protocol, fn, f"protocol.{fn}", rid_arg=0)

    tracer.wrap(NetworkServer, "__init__", "server.init", after=remember("server"))
    tracer.wrap(DaemonRouter, "__init__", "router.init", after=remember("router"))
    tracer.wrap(DaemonRouter, "try_submit", "router.try_submit")
    tracer.wrap(ServingDaemon, "__init__", "daemon.init", after=remember("daemon"))

    def daemon_submitted(record, args, kwargs, result):
        daemon, submitted = args[0], record[2]
        parent = record[4]
        routers = tracer.instances["router"]
        if parent is not None and routers:
            router = routers[-1]
            seed = kwargs.get("seed")
            index = next(
                (h.index for h in router.replicas if h.daemon is daemon), None
            )
            if seed is not None and index is not None:
                tracer.add("router.sticky", float(seed % len(router.replicas) == index))
                tracer.add("router.routed", 1.0)

        def resolved(fut, t0=submitted):
            if fut.cancelled() or fut.exception() is not None:
                return
            res = fut.result()
            tracer.sample(
                "daemon.wait_s", time.perf_counter() - t0 - res.wall_time_s
            )
            tracer.sample("plan.shards", float(res.micro_batches))

        result.add_done_callback(resolved)

    tracer.wrap(ServingDaemon, "try_submit", "daemon.try_submit", after=daemon_submitted)

    # plan / scheduler / stage walk
    def shards_ran(record, args, kwargs, result):
        rows = int(np.asarray(args[2]).shape[0])
        stage_total = 0.0
        for _, telemetry in result:
            for layer in telemetry:
                tracer.add(f"stage.{layer.kind}_s", layer.wall_time_s)
                tracer.add("kernel.windows", float(layer.windows))
                stage_total += layer.wall_time_s
        tracer.add("plan.images", float(rows))
        tracer.add("plan.outside_s", (record[3] - record[2]) - stage_total)
        tracer.sample("plan.run_shards_s", record[3] - record[2])

    tracer.wrap(rt_scheduler.SerialScheduler, "run_shards", "scheduler.run_shards", after=shards_ran)
    tracer.wrap(rt_scheduler, "run_stages", "plan.run_stages")

    # kernels: every layer-level backend class that defines run_layer
    pending = [api_backends.ExecutionBackend]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "run_layer" in cls.__dict__:
            tracer.wrap(cls, "run_layer", "kernel.run_layer")

    # api session
    def session_ran(record, args, kwargs, result):
        stage_total = sum(layer.wall_time_s for layer in result.layers)
        tracer.sample("session.run_s", record[3] - record[2])
        tracer.sample("session.outside_s", (record[3] - record[2]) - stage_total)
        tracer.sample("plan.shards", float(result.micro_batches))

    tracer.wrap(Session, "run", "session.run", after=session_ran)


# ----------------------------------------------------------------------
def _mean_duration(spans) -> float:
    return float(np.mean([s[3] - s[2] for s in spans])) if spans else 0.0


def derive(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics measurable in the traced process. Layers the
    workload does not pass through read 0."""
    out: Dict[str, float] = {name: 0.0 for name in LAYER_METRICS}
    t = tracer.totals
    servers = tracer.instances["server"]
    daemons = tracer.instances["daemon"]
    routers = tracer.instances["router"]

    if servers:
        stats = servers[-1].stats
        requests = max(stats.requests, 1)
        decode = sum(s[3] - s[2] for s in tracer.by_name("protocol.parse_header"))
        decode += sum(s[3] - s[2] for s in tracer.by_name("protocol.decode_payload"))
        encode_spans = [
            s
            for fn in ("encode_response", "encode_partial", "encode_progress")
            for s in tracer.by_name(f"protocol.{fn}")
        ]
        encode = sum(s[3] - s[2] for s in encode_spans)
        frames = len(encode_spans) + len(tracer.by_name("protocol.encode_error"))
        out["protocol.decode_us"] = decode / requests * 1e6
        out["protocol.encode_us"] = encode / requests * 1e6
        out["protocol.frames_per_req"] = frames / requests
        outer = "router.try_submit" if routers else "daemon.try_submit"
        out["server.submit_us"] = (
            _mean_duration([s for s in tracer.by_name(outer) if s[4] is None]) * 1e6
        )
        out["server.shed"] = float(
            stats.rejected_queue_full + stats.rejected_rate_limited + stats.rejected_quota
        )

    if routers:
        selfs = tracer.self_times().get("router.try_submit")
        if selfs and selfs["calls"]:
            out["router.dispatch_us"] = selfs["self_s"] / selfs["calls"] * 1e6
        rstats = routers[-1].stats
        out["router.spillovers"] = float(rstats.spillovers)
        out["router.failovers"] = float(rstats.failovers)
        if t.get("router.routed"):
            out["router.sticky_ratio"] = t["router.sticky"] / t["router.routed"]

    if daemons:
        waits = np.asarray(tracer.samples.get("daemon.wait_s", []))
        if len(waits):
            out["daemon.wait_ms.p50"] = percentile(waits, 50) * 1e3
            out["daemon.wait_ms.p99"] = percentile(waits, 99) * 1e3
        execs = tracer.samples.get("plan.run_shards_s", [])
        out["daemon.exec_ms.p50"] = percentile(execs, 50) * 1e3
        snaps = [d.stats for d in daemons]
        waves = sum(s.waves for s in snaps)
        if waves:
            out["daemon.reqs_per_wave"] = sum(s.completed for s in snaps) / waves
            out["daemon.imgs_per_wave"] = sum(s.total_images for s in snaps) / waves
        submitted = sum(s.submitted for s in snaps)
        if submitted:
            out["daemon.coalesced_ratio"] = sum(s.coalesced_requests for s in snaps) / submitted
        out["daemon.queue_high_water"] = float(max(s.queue_high_water for s in snaps))

    images = t.get("plan.images", 0.0)
    shards = tracer.samples.get("plan.shards", [])
    if images:
        requests = max(len(shards), 1)
        out["plan.outside_stages_us"] = t["plan.outside_s"] / requests * 1e6
        out["plan.shards_per_req"] = float(np.mean(shards)) if shards else 0.0
        for kind in STAGE_KINDS:
            out[f"stage.{kind}_us_per_img"] = t.get(f"stage.{kind}_s", 0.0) / images * 1e6
        kernel = sum(s[3] - s[2] for s in tracer.by_name("kernel.run_layer"))
        crossbar = t.get("stage.conv_s", 0.0) + t.get("stage.linear_s", 0.0)
        out["stage.lowering_us_per_img"] = (crossbar - kernel) / images * 1e6
        out["kernel.us_per_img"] = kernel / images * 1e6
        windows = t.get("kernel.windows", 0.0)
        out["kernel.windows_per_img"] = windows / images
        if windows:
            out["kernel.ns_per_window"] = kernel / windows * 1e9

    runs = tracer.samples.get("session.run_s", [])
    if runs:
        out["session.run_ms.p50"] = percentile(runs, 50) * 1e3
        out["session.outside_stages_ms.p50"] = (
            percentile(tracer.samples["session.outside_s"], 50) * 1e3
        )

    train = tracer.by_name("setup.train")
    if train:
        out["setup.train_s"] = percentile([s[3] - s[2] for s in train], 50)
    compiles = tracer.by_name("setup.compile")
    if compiles:
        out["setup.compile_s"] = percentile([s[3] - s[2] for s in compiles], 50)
    return out


def self_time_lines(table: Dict[str, dict]) -> List[str]:
    """Human-readable self-time report, heaviest first."""
    lines = [f"{'span':<32}{'calls':>9}{'total_s':>11}{'self_s':>11}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"{name:<32}{row['calls']:>9}{row['total_s']:>11.4f}{row['self_s']:>11.4f}"
        )
    return lines
