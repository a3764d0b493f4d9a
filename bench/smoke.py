"""Fast self-test of the benchmark, at tiny sizes (the `smoke` workload).

    python3 bench/smoke.py

Run from the repository root; takes about fifteen seconds. It checks that
BENCHMARK.json keeps to the benchmark contract, that a traced and an
untraced protocol call write byte-identical report.json, that every metric
name and unit `bench/run.py` prints matches BENCHMARK.json, and that the
benchmark refuses to run, printing no result, in a directory that holds
only BENCHMARK.json and bench/. Exits 0 when every check passes.
"""
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_spec(spec: dict, workloads) -> list:
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if len(names) != len(set(names)):
        problems.append("a name is used twice")
    problems += [f"bad name {n!r}" for n in names if not NAME.fullmatch(n)]
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or w["name"] not in workloads:
            problems.append(f"workload entry {w}")
        elif len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w['name']}: why longer than one line")
    for m in spec["end_to_end"]:
        if (set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25
                or m["better"] not in ("lower", "higher") or not UNIT.fullmatch(m["unit"])):
            problems.append(f"end_to_end entry {m}")
    for m in spec["per_layer"]:
        if (set(m) != {"name", "unit", "better"} or m["better"] not in ("lower", "higher")
                or not UNIT.fullmatch(m["unit"])):
            problems.append(f"per_layer entry {m}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s must be an end_to_end metric in s, lower better")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s should have the largest bound")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number in 1..60")
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("need 2 to 8 workloads")
    return problems


def run_bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", "smoke",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc, listed: list, trace: int) -> list:
    if proc.returncode != 0:
        return [f"run.py --trace {trace} exited {proc.returncode}: {proc.stderr[-500:]}"]
    *_, detail, last = proc.stdout.splitlines()
    result = json.loads(last)
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"--trace {trace}: not a clean run: {detail}")
    printed = [(k, v["unit"]) for k, v in result["metrics"].items()]
    expected = [(m["name"], m["unit"]) for m in listed]
    if printed != expected:
        problems.append(f"--trace {trace}: printed metrics {printed} != BENCHMARK.json {expected}")
    if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
        problems.append(f"--trace {trace}: a metric value is not a number")
    return problems


def check_report_identical(work: Path) -> list:
    """An untraced and a traced call in the same directory must write the
    same report.json bytes."""
    from run import child_env
    env = child_env(ROOT / "src")
    reports = []
    for flags in ([], ["--trace"]):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        subprocess.run([sys.executable, str(BENCH / "call.py"), "--workload", "smoke",
                        "--seed", "0", "--dir", str(work)] + flags,
                       env=env, check=True, timeout=180)
        result = json.loads((work / "result.json").read_text())
        if "error" in result:
            return [f"call {flags}: {result['error']}"]
        reports.append((work / "out" / "report.json").read_bytes())
    return [] if reports[0] == reports[1] else ["traced report.json differs from untraced"]


def check_bare_directory(work: Path) -> list:
    """With only BENCHMARK.json and bench/ present, the benchmark must fail
    without printing a result."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", work / "BENCHMARK.json")
    shutil.copytree(BENCH, work / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(work, 0)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".bench_work" / f"smoke-{os.getpid()}"
    try:
        problems = check_spec(spec, WORKLOADS)
        problems += check_report_identical(work / "call")
        problems += check_result(run_bench(ROOT, 0), spec["end_to_end"], 0)
        problems += check_result(run_bench(ROOT, 1), spec["per_layer"], 1)
        problems += check_bare_directory(work / "bare")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
