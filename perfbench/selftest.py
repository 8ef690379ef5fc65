#!/usr/bin/env python3
"""Fast self-test of the benchmark: python3 perfbench/selftest.py

Runs every workload at toy size with tracing off and on, and checks that
each metric named in BENCHMARK.json is printed with its unit, and that a
sweep CSV with one corrupted byte is counted as a failed operation.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402


def bench_run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, timeout=300, cwd=run.ROOT, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


class ToyRuns(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        bench = json.loads(run.BENCHMARK.read_text(encoding="utf-8"))
        for workload in run.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    table, result = bench_run(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    declared = {m["name"]: m["unit"] for m in bench[key]}
                    printed = {name: (m["value"], m["unit"])
                               for name, m in result["metrics"].items()}
                    self.assertEqual(set(printed), set(declared))
                    rows = {line.split()[0]: line.split() for line in table}
                    for name, unit in declared.items():
                        self.assertEqual(printed[name][1], unit)
                        self.assertIsInstance(printed[name][0], (int, float))
                        self.assertEqual(rows[name][-1], unit)
                    if trace:
                        wall = float(rows["trace.wall_s"][1])
                        self_sum = float(rows["trace.self_sum_s"][1])
                        self.assertAlmostEqual(self_sum, wall, delta=0.05 * wall)


class CorruptedOutput(unittest.TestCase):
    def test_one_corrupted_byte_fails_a_row(self):
        sys.path.insert(0, str(run.SRC))
        cli = run.fresh_cli()
        workload = run.make_workload("paper_sweep", 7, toy=True)
        workload.build(cli)
        tally = run.Tally()
        workload.solve(cli, tally, 1)
        workload.run_pass(cli)
        workload.check_pass(tally, None, {})
        self.assertEqual(tally.failed, 0)

        text = workload.csv_path.read_text(encoding="utf-8")
        header, first, rest = text.split("\n", 2)
        cells = first.split(",")
        column = header.split(",").index("total_interrupts")
        digit = cells[column][0]
        cells[column] = ("1" if digit != "1" else "2") + cells[column][1:]
        corrupted = "\n".join((header, ",".join(cells), rest))
        self.assertEqual(len(corrupted), len(text))

        tally = run.Tally()
        workload.check_csv(corrupted, tally)
        self.assertGreater(tally.failed / tally.attempted, 0)


if __name__ == "__main__":
    unittest.main()
