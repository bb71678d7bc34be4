"""Self-test of the benchmark on tiny shapes.

    python3 -m pytest perfbench/test_selftest.py

Shows that every metric named in BENCHMARK.json is emitted with its unit,
that traced counts repeat exactly, that a corrupted output is counted as a
failed step, and that the benchmark refuses to run without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from sparsejl import oracle, transform  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(capsys, name: str, trace: int) -> dict:
    code = run.main(["--workload", name, "--seed", "5", "--seconds", "0", "--trace", str(trace), "--tiny"])
    assert code == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def tiny(name: str, work: Path):
    workload = WORKLOADS[name](work, 5, tiny=True)
    workload.prepare()
    workload.load()
    return workload


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(capsys, name, trace, section):
    result = bench(capsys, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name_, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name_
        if trace == 0:
            assert entry["value"] > 0, name_


def test_traced_counts_repeat(tmp_path):
    counts = []
    for attempt in range(2):
        work = tmp_path / str(attempt)
        work.mkdir()
        layer = run.measure(tiny("certify_desk", work), seconds=0, trace=True)["per_layer"]
        counts.append({k: v for k, v in layer.items() if isinstance(v, int)})
    assert counts[0] == counts[1]
    assert counts[0]["streams.words"] > 0 and counts[0]["transform.apply.calls"] == 0


def test_flipped_sign_byte_is_a_failed_step(capsys, monkeypatch):
    serialize = transform.serialize

    def flip_last_sign(matrix):
        data = bytearray(serialize(matrix))
        data[-1] ^= 1
        return bytes(data)

    monkeypatch.setattr(transform, "serialize", flip_last_sign)
    result = bench(capsys, "embed_readme", 0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 2  # the build and the transform of the bad matrix


def test_perturbed_moment_is_a_failed_step(tmp_path, monkeypatch):
    exact = oracle.exact_moment_Z
    monkeypatch.setattr(oracle, "exact_moment_Z", lambda spec: exact(spec) * (1 + 1e-9))
    result = run.measure(tiny("oracle_suite", tmp_path), seconds=0, trace=False)
    assert result["failed"] == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle_suite", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
