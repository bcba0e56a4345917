"""Per-layer metrics from the spans of a traced run.

Every metric here is named in ``BENCHMARK.json`` under ``per_layer``
with the same unit and direction. "Per op" divides by the top-level
operations attempted in the traced window. A layer the workload never
reaches reads 0.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

# (name, unit, better) in the order the report prints them.
PER_LAYER = (
    ("permissions.parse.calls_per_op", "calls/op", "lower"),
    ("permissions.parse.us_per_call", "us", "lower"),
    ("permissions.implies.calls_per_check", "calls/check", "lower"),
    ("rbac.is_permitted.us_p50", "us", "lower"),
    ("rbac.is_permitted.us_p99", "us", "lower"),
    ("rbac.is_permitted.calls_per_op", "calls/op", "lower"),
    ("rbac.write.us_per_call", "us", "lower"),
    ("rbac.seed_s", "s", "lower"),
    ("tokens.verify.us_per_call", "us", "lower"),
    ("tokens.verify.calls_per_op", "calls/op", "lower"),
    ("tokens.sign.calls_per_op", "calls/op", "lower"),
    ("registry.views_built_per_op", "views/op", "lower"),
    ("registry.fetches", "count", "lower"),
    ("gatekeeper.validate.self_us_per_call", "us", "lower"),
    ("gatekeeper.validate.calls_per_op", "calls/op", "lower"),
    ("gatekeeper.rejects", "count", "lower"),
    ("router.route.us_per_call", "us", "lower"),
    ("router.forward.calls_per_op", "calls/op", "lower"),
    ("router.forward.transport_ms_per_call", "ms", "lower"),
    ("sharing.is_shared_with.us_per_call", "us", "lower"),
    ("sharing.calls_per_op", "calls/op", "lower"),
    ("secrets.read.us_per_call", "us", "lower"),
    ("secrets.read.calls_per_op", "calls/op", "lower"),
    ("wire.decode.us_per_req", "us", "lower"),
    ("wire.encode.us_per_resp", "us", "lower"),
    ("service.handle.us_per_req", "us", "lower"),
    ("service.handle.self_us_per_req", "us", "lower"),
    ("service.http_us_per_req", "us", "lower"),
    ("service.cpu_ms_per_op", "ms", "lower"),
    ("federation.hops_per_op", "hops/op", "lower"),
    ("federation.hop.client_us_per_call", "us", "lower"),
    ("federation.token_acquires", "count", "lower"),
    ("stubs.self_ms_per_op", "ms", "lower"),
    ("skadmin.bootstrap_s", "s", "lower"),
    ("op_p99_ms", "ms", "lower"),
    ("read_p50_ms", "ms", "lower"),
    ("forward_p50_ms", "ms", "lower"),
    ("grant_visible_p50_ms", "ms", "lower"),
    ("server.rss_growth_kb_per_op", "kB/op", "lower"),
    ("loadgen.cpu_busy_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def load_spans(path):
    with open(path) as src:
        doc = json.load(src)
    return [tuple(span) for span in doc["spans"]]


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def span_metrics(spans, ops, client_request_us):
    """Span-derived per-layer metrics.

    ``ops`` is the number of top-level operations the spans belong to and
    ``client_request_us`` the mean latency the generator saw per HTTP
    request in the same window.
    """
    by_name = defaultdict(list)
    children = defaultdict(list)
    for span in spans:
        sid, parent, op, name, start, end, note = span
        by_name[name].append(span)
        if parent is not None:
            children[parent].append(span)

    def dur_us(span):
        return (span[5] - span[4]) / 1000.0

    def self_us(span):
        start, end = span[4], span[5]
        covered, cursor = 0, start
        for child in sorted(children.get(span[0], ()), key=lambda c: c[4]):
            lo, hi = max(child[4], cursor), min(child[5], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return (end - start - covered) / 1000.0

    def minus_downstream_us(span):
        downstream = sum(dur_us(c) for c in children.get(span[0], ()) if c[3] == "service.handle")
        return dur_us(span) - downstream

    def count(name):
        return len(by_name[name])

    def per_op(name):
        return count(name) / ops

    def mean_dur(name):
        return _mean([dur_us(s) for s in by_name[name]])

    checks = [dur_us(s) for s in by_name["rbac.is_permitted"]]
    handles = by_name["service.handle"]
    top_level = [dur_us(s) for s in handles if s[1] is None and s[2]]
    sharing = [s for name, group in by_name.items() if name.startswith("sharing.") for s in group]
    decode_us = sum(dur_us(s) for s in by_name["wire.decode"])
    return {
        "permissions.parse.calls_per_op": per_op("permissions.parse"),
        "permissions.parse.us_per_call": mean_dur("permissions.parse"),
        "permissions.implies.calls_per_check": count("permissions.implies") / max(len(checks), 1),
        "rbac.is_permitted.us_p50": _quantile(checks, 50),
        "rbac.is_permitted.us_p99": _quantile(checks, 99),
        "rbac.is_permitted.calls_per_op": len(checks) / ops,
        "rbac.write.us_per_call": mean_dur("rbac.write"),
        "tokens.verify.us_per_call": mean_dur("tokens.verify"),
        "tokens.verify.calls_per_op": per_op("tokens.verify"),
        "tokens.sign.calls_per_op": per_op("tokens.sign"),
        "registry.views_built_per_op": per_op("registry.view"),
        "registry.fetches": count("registry.fetch"),
        "gatekeeper.validate.self_us_per_call": _mean([self_us(s) for s in by_name["gatekeeper.validate"]]),
        "gatekeeper.validate.calls_per_op": per_op("gatekeeper.validate"),
        "gatekeeper.rejects": sum(s[6] or 0 for s in by_name["gatekeeper.validate"]),
        "router.route.us_per_call": mean_dur("router.route"),
        "router.forward.calls_per_op": per_op("router.forward"),
        "router.forward.transport_ms_per_call":
            _mean([minus_downstream_us(s) for s in by_name["router.forward"]]) / 1000.0,
        "sharing.is_shared_with.us_per_call": mean_dur("sharing.is_shared_with"),
        "sharing.calls_per_op": len(sharing) / ops,
        "secrets.read.us_per_call": mean_dur("secrets.read"),
        "secrets.read.calls_per_op": per_op("secrets.read"),
        "wire.decode.us_per_req": decode_us / max(len(handles), 1),
        "wire.encode.us_per_resp": mean_dur("wire.encode"),
        "service.handle.us_per_req": _mean([dur_us(s) for s in handles]),
        "service.handle.self_us_per_req": _mean([self_us(s) for s in handles]),
        "service.http_us_per_req": client_request_us - _mean(top_level) if top_level else 0.0,
        "federation.hops_per_op": per_op("federation.hop"),
        "federation.hop.client_us_per_call":
            _mean([minus_downstream_us(s) for s in by_name["federation.hop"]]),
        "federation.token_acquires": count("federation.token_acquire"),
        "stubs.self_ms_per_op": sum(self_us(s) for s in by_name["stubs.dispatch"]) / ops / 1000.0,
    }
