"""The program keeps every seam that the benchmark's traced run reports.

``BENCHMARK.json`` lists the per-layer metrics of a traced ``opbench`` run.
A metric whose seams are gone is reported absent, and the traced run then
lacks a declared metric, so a refactor must keep the wrapped functions.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from opbench.trace import Tracer  # noqa: E402

# reported by the run itself, not read off a seam
RUN_METRICS = {"trace.overhead_s", "matrices.eigh_lapack_floor_s"}


def test_traced_run_reports_every_declared_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {metric["name"] for metric in spec["per_layer"]}
    tracer = Tracer()
    try:
        tracer.install()
        reported = set(tracer.metric_names()) | RUN_METRICS
    finally:
        tracer.remove()
    assert sorted(declared - reported) == []
