"""perfbench times trustsat's layers by replacing module attributes (see
perfbench/spans.py). A refactor that drops a traced entry point makes its
per-layer metrics read 0; these tests make it fail here instead."""
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_absent_hook_targets_are_pinned():
    assert _load_spans().absent_targets() == [
        "trustsat.editing.compute_weights",
        "trustsat.selection.compute_weights",
        "trustsat._kernels.influence_columns",
        "trustsat.editing.build_graph",
    ]
