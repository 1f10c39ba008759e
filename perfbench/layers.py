"""The per-layer metrics of a traced run, and how they add up.

Every workload reports every metric below; a layer the workload does
not drive reads 0.  The arrow in each comment names the end-to-end
metric the layer metric should move, and on which workload.
"""

from __future__ import annotations

from typing import Dict

PER_LAYER: Dict[str, str] = {
    "hin.load_graph_s": "s",                 # -> setup_s, all workloads
    "hin.add_edges_us": "us",                # -> ingest_mix throughput_qps, p50_ms
    "hin.adjacency_ms": "ms",                # -> ingest_mix throughput_qps, p50_ms
    "core.engine.warm_s": "s",               # -> setup_s, all workloads
    "core.engine.materialise_ms": "ms",      # -> ingest_mix p90_ms, throughput_qps
    "core.engine.materialisations": "count",  # 0 after set-up on http_topk, batch_offline
    "core.engine.relevance_vector_us": "us",  # -> http_topk p50_ms
    "core.cache.hit_ratio": "ratio",         # -> ingest_mix throughput_qps
    "core.cache.bytes": "bytes",             # -> peak_rss_mb
    "core.backend.plan_steps": "count",      # -> ingest_mix throughput_qps
    "core.search.select_top_k_us": "us",     # -> http_topk p50_ms, batch_offline throughput_qps
    "core.measures.prepare_us": "us",        # -> batch_offline throughput_qps, p50_ms
    "core.measures.score_rows_ms": "ms",     # -> batch_offline throughput_qps, p50_ms
    "runtime.resilience.overhead_us": "us",  # -> http_topk p50_ms
    "runtime.resilience.degraded": "count",  # must be 0 -> http_topk p50_ms
    "serve.batch.run_ms": "ms",              # -> batch_offline p50_ms, throughput_qps
    "serve.batch.groups": "count",           # -> batch_offline p50_ms, throughput_qps
    "serve.procs.batches": "count",          # -> batch_offline p50_ms, throughput_qps
    "serve.batch.unattributed_ms": "ms",     # -> batch_offline p50_ms, throughput_qps
    "serve.http.server_ms": "ms",            # -> http_topk p50_ms, throughput_qps
    "serve.http.outside_ms": "ms",           # -> http_topk p50_ms, throughput_qps
    "serve.admission.shed": "count",         # must be 0
    "obs.trace_overhead_pct": "%",           # traced against untraced, per workload
    "obs.unattributed_pct": "%",             # share of the total no timed layer covers
}


def common_metrics(outcome, probe, *, load_s, warm_s, ops, hits, misses,
                   cache_bytes, total, unattributed) -> None:
    """The layer metrics every traced run reports alike.

    ``ops`` is the number of timed units (batches, cycle pairs or
    requests) that per-unit counts are divided by.
    """
    outcome.put("hin.load_graph_s", load_s, "s")
    outcome.put("hin.add_edges_us", probe.mean("ingest.write", 1e6), "us")
    outcome.put("hin.adjacency_ms", probe.mean("hin.adjacency_rebuild", 1e3), "ms")
    outcome.put("core.engine.warm_s", warm_s, "s")
    outcome.put("core.engine.materialise_ms", probe.mean("core.engine.materialise", 1e3), "ms")
    outcome.put("core.engine.materialisations",
                probe.calls.get("core.engine.materialise", 0), "count")
    # Self time: the scoring, without a materialisation it triggers.
    calls = probe.calls.get("core.engine.relevance_vector", 0)
    outcome.put("core.engine.relevance_vector_us",
                probe.self_time.get("core.engine.relevance_vector", 0.0) / calls * 1e6
                if calls else 0.0, "us")
    outcome.put("core.cache.hit_ratio", hits / (hits + misses) if hits + misses else 0.0, "ratio")
    outcome.put("core.cache.bytes", cache_bytes, "bytes")
    outcome.put("core.backend.plan_steps",
                probe.counts.get("core.backend.plan_steps", 0) / ops if ops else 0.0, "count")
    outcome.put("core.search.select_top_k_us", probe.mean("core.search.select_top_k", 1e6), "us")
    outcome.put("core.measures.prepare_us", probe.mean("core.measures.prepare", 1e6), "us")
    outcome.put("core.measures.score_rows_ms", probe.mean("core.measures.score_rows", 1e3), "ms")
    outcome.put("obs.unattributed_pct", unattributed / total * 100.0 if total else 0.0, "%")


def split_line(workload: str, total: float, parts: Dict[str, float],
               unattributed: float, ops: int, unit: str) -> str:
    """One line showing the timed parts and the remainder summing to the total."""
    shown = sorted(((s, n) for n, s in parts.items() if s > 0), reverse=True)
    body = " + ".join(f"{n} {s / ops * 1e3:.3f}" for s, n in shown) if ops else ""
    added = sum(parts.values()) + unattributed
    return (
        f"split {workload}: per {unit} ms: {body} + unattributed "
        f"{unattributed / max(ops, 1) * 1e3:.3f} = {added / max(ops, 1) * 1e3:.3f} "
        f"(measured total {total / max(ops, 1) * 1e3:.3f})"
    )
