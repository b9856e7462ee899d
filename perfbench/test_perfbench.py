"""Self-test of the benchmark harness, on the small `tiny` grid.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", "tiny",
         "--seed", "7", "--seconds", "1", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def declared_units(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def is_count(name):
    return name.endswith((".calls", ".ops", ".cells")) or name in (
        "families.distinct_rows",
        "families.max_terms",
        "families.max_coeff_bits",
    )


def test_untraced_run_emits_every_end_to_end_metric():
    code, result = bench("--trace", "0")
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert units(result["metrics"]) == declared_units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    runs = [bench("--trace", "1") for _ in range(2)]
    counts = []
    for code, result in runs:
        assert code == 0 and result["correct"]
        assert units(result["metrics"]) == declared_units("per_layer")
        counts.append({n: m["value"] for n, m in result["metrics"].items() if is_count(n)})
    assert counts[0] == counts[1]
    assert counts[0]["verify.cells"] == 80
    assert counts[0]["kernels.add_terms.calls"] > 0
    assert runs[0][1]["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_wrong_known_answer_raises_fail_ratio(tmp_path):
    known = json.loads((BENCH / "known_answers.json").read_text())
    known["tiny"]["json_sha256"] = "0" * 64
    path = tmp_path / "known.json"
    path.write_text(json.dumps(known))
    code, result = bench("--trace", "1", "--known", str(path))
    assert code == 1
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["fail_ratio"]["value"] > 0


def test_fails_without_source_to_benchmark(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, result = bench("--trace", "0", root=tmp_path)
    assert code != 0 and result is None
