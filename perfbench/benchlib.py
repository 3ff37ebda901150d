"""Pure helpers of the host-time benchmark: metric names, medians and ratios, manifest parsing.

Kept free of process and file-system side effects (apart from reading the manifest) so that
test_perfbench.py can cover them directly.
"""

import json
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

MAX_BOUND = 0.25


class ManifestError(ValueError):
    pass


def valid_name(name):
    return isinstance(name, str) and NAME_RE.match(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and UNIT_RE.match(unit) is not None


def median(values):
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def ratio(numerator, denominator):
    """numerator / denominator, or 0 when the denominator is 0 (a rate of nothing)."""
    return numerator / denominator if denominator else 0.0


def _check_metric_list(entries, kind, bounded):
    if not isinstance(entries, list):
        raise ManifestError(f"{kind} must be a list")
    keys = {"name", "unit", "better", "bound"} if bounded else {"name", "unit", "better"}
    for m in entries:
        if not isinstance(m, dict) or set(m) != keys:
            raise ManifestError(f"{kind} entry {m!r} must have exactly the keys {sorted(keys)}")
        if not valid_name(m["name"]):
            raise ManifestError(f"bad metric name {m['name']!r}")
        if not valid_unit(m["unit"]):
            raise ManifestError(f"bad unit {m['unit']!r} for {m['name']}")
        if m["better"] not in ("lower", "higher"):
            raise ManifestError(f"{m['name']}: better must be 'lower' or 'higher'")
        if bounded:
            bound = m["bound"]
            if isinstance(bound, bool) or not isinstance(bound, (int, float)) or not (
                0 < bound <= MAX_BOUND
            ):
                raise ManifestError(f"{m['name']}: bound must be in (0, {MAX_BOUND}]")


def parse_manifest(text):
    """Parses BENCHMARK.json and checks the parts run.py relies on: the workload names and the
    metrics it reports. Returns the manifest dict or raises ManifestError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ManifestError(f"not JSON: {e}") from e
    if not isinstance(doc, dict) or not {"workloads", "end_to_end", "per_layer"} <= set(doc):
        raise ManifestError("manifest needs workloads, end_to_end and per_layer")

    e2e, layers = doc["end_to_end"], doc["per_layer"]
    _check_metric_list(e2e, "end_to_end", bounded=True)
    _check_metric_list(layers, "per_layer", bounded=False)
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower" for m in e2e):
        raise ManifestError("end_to_end must contain setup_s in s, lower is better")

    names = [w["name"] for w in doc["workloads"]] + [m["name"] for m in e2e + layers]
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        raise ManifestError(f"names used more than once: {sorted(dupes)}")
    return doc


def load_manifest(path):
    with open(path, encoding="utf-8") as f:
        return parse_manifest(f.read())


def result_line(correct, attempted, failed, values, units):
    """The benchmark's final stdout line: {"correct", "attempted", "failed", "metrics"}."""
    metrics = {name: {"value": values[name], "unit": units[name]} for name in values}
    return json.dumps(
        {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
         "metrics": metrics}
    )


def self_times(spans):
    """Per span name: (total seconds, self seconds), self = duration minus direct children."""
    child = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end_ns"] - s["start_ns"]
    out = {}
    for i, s in enumerate(spans):
        dur = s["end_ns"] - s["start_ns"]
        total, own = out.get(s["name"], (0.0, 0.0))
        out[s["name"]] = (total + dur * 1e-9, own + (dur - child[i]) * 1e-9)
    return out
