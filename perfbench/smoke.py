"""Smoke check for the benchmark: every workload, shortened, on the held-out
seed.

    python3 perfbench/smoke.py

For each workload it runs ``run.py`` with ``--trace 0`` and ``--trace 1`` and
asserts that every metric named in BENCHMARK.json prints, by name and with
its unit, both in the human-readable lines and in the final JSON. It also
runs ``lcrsim run`` on the same shortened scenario and seed and asserts that
the benchmark's ``tps`` matches what the command line reports. Exits 1 on
the first failure.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile

from worker import OUT, ROOT, SRC, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
HELD_OUT_SEED = 101


def bench(workload: str, trace: int, duration_s: float) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(HELD_OUT_SEED), "--seconds", "1", "--trace", str(trace),
         "--duration-s", str(duration_s)],
        capture_output=True, text=True, timeout=175)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n"
                             f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def cli_tps(scenario_name: str, protocol: str, duration_s: float) -> float:
    with open(os.path.join(SRC, "lcrsim", "scenarios", f"{scenario_name}.yaml")) as fh:
        text = fh.read()
    text = re.sub(r"(?m)^duration_s: .*$", f"duration_s: {duration_s}", text)
    os.makedirs(OUT, exist_ok=True)
    with tempfile.NamedTemporaryFile("w", suffix=".yaml", dir=OUT, delete=False) as fh:
        fh.write(text)
    try:
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "lcrsim.cli", "run", fh.name,
             "--seed", str(HELD_OUT_SEED), "--protocol", protocol],
            capture_output=True, text=True, timeout=175, env=env)
    finally:
        os.unlink(fh.name)
    if proc.returncode != 0:
        raise AssertionError(f"lcrsim run {scenario_name}: exit {proc.returncode}\n"
                             f"{proc.stderr}")
    return float(re.search(r"^tps=([0-9.]+)", proc.stdout, re.M).group(1))


def check_metrics(where: str, lines: list[str], result: dict, specs: list[dict]) -> None:
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        raise AssertionError(f"{where}: {result}")
    if set(result["metrics"]) != {s["name"] for s in specs}:
        raise AssertionError(f"{where}: metrics {sorted(result['metrics'])} != "
                             f"{sorted(s['name'] for s in specs)}")
    for spec in specs:
        got = result["metrics"][spec["name"]]
        if got["unit"] != spec["unit"] or not isinstance(got["value"], (int, float)):
            raise AssertionError(f"{where}: {spec['name']} printed as {got}")
        pattern = re.compile(rf"^{re.escape(spec['name'])} = \S+ {re.escape(spec['unit'])}$")
        if not any(pattern.match(line) for line in lines):
            raise AssertionError(f"{where}: no line '{spec['name']} = <value> {spec['unit']}'")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload, (scenario_name, protocol, duration_s) in WORKLOADS.items():
        for trace, specs in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            where = f"{workload} trace={trace}"
            try:
                lines, result = bench(workload, trace, duration_s)
                check_metrics(where, lines, result, specs)
                if trace == 0:
                    expected = cli_tps(scenario_name, protocol, duration_s)
                    got = result["metrics"]["tps"]["value"]
                    if f"{got:.1f}" != f"{expected:.1f}":
                        raise AssertionError(f"{where}: tps {got} but lcrsim run "
                                             f"reports {expected}")
            except AssertionError as exc:
                print(f"FAIL {exc}", file=sys.stderr)
                return 1
            print(f"ok   {where}: {len(specs)} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
