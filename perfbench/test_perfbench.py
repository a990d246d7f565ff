"""Self-tests of the benchmark on its tiny `smoke` workload.

Each test runs perfbench/run.py in a child process, as the benchmark is run
for real, and reads what it prints.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ["analysis.entries_checked", "analysis.grid_points",
          "linalg.mat_mul.calls", "hopf_tensor.tensor.calls"]


def _run(*args, root=ROOT, code=None):
    """Run the benchmark (or `code` with run.py importable); return the process."""
    cmd = [sys.executable]
    cmd += ["-c", code] if code else [str(root / "perfbench" / "run.py")]
    cmd += ["--workload", "smoke", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=root / "perfbench" if code else root,
                          capture_output=True, text=True, timeout=170)


def _printed(stdout):
    """name -> (value, unit) from the `metric name = value unit` lines."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            name, _, rest = line[len("metric "):].partition(" = ")
            value, unit = rest.split()
            out[name] = (float(value), unit)
    return out


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_untraced_run_prints_every_end_to_end_metric():
    proc = _run("--seed", "1", "--trace", "0")
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    printed = _printed(proc.stdout)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0
        assert printed[metric["name"]] == (got["value"], metric["unit"])
    assert printed["job_max_s"][1] == "s"
    assert printed["entries_checked_per_s"][1] == "entries/s"
    assert printed["failed_frac"] == (0.0, "fraction")


def test_traced_runs_print_every_layer_metric_and_repeat_counts():
    results = []
    for seed in ("1", "2"):
        proc = _run("--seed", seed, "--trace", "1")
        result = _result(proc)
        assert result["correct"]
        printed = _printed(proc.stdout)
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        for metric in SPEC["per_layer"]:
            got = result["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert printed[metric["name"]] == (got["value"], metric["unit"])
        results.append(result["metrics"])
    for name in COUNTS:
        assert results[0][name]["value"] == results[1][name]["value"] > 0


def test_wrong_reference_is_counted_as_failed():
    code = ("import sys, run\n"
            "load = run.load_reference\n"
            "def wrong(workload):\n"
            "    ref = load(workload)\n"
            "    ref['build.L(-1,0)']['dim'] = 4\n"
            "    return ref\n"
            "run.load_reference = wrong\n"
            "sys.exit(run.main(sys.argv[1:]))\n")
    proc = _run("--seed", "1", "--trace", "0", code=code)
    result = _result(proc)
    assert not result["correct"]
    assert result["failed"] >= 1
    frac = _printed(proc.stdout)["failed_frac"][0]
    assert frac == result["failed"] / result["attempted"] > 0
    assert "FAILED build.L(-1,0)" in proc.stderr


def test_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--seed", "1", "--trace", "0", root=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
