"""The README's Library example and Performance tables, held to the code and the records.

The CLI examples are checked by ``test_cli.TestReadmeExamples``.
"""

import json
import re
import statistics
from fractions import Fraction
from pathlib import Path

import revlcg

ROOT = Path(__file__).parents[1]
README = (ROOT / "README.md").read_text()

# a Performance cell: the median and the quartiles, in one unit
CELL = re.compile(r"(?P<median>[\d.]+) (?P<unit>\S+) \[(?P<q1>[\d.]+), (?P<q3>[\d.]+)\]")
SCALE = {"s": 1, "ms": 1e-3, "M/s": 1e6, "k/s": 1e3, "MiB": 1}


def section(title):
    """The README's text under ``## title``, up to the next ``## `` heading."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def table(text, first):
    """The header cells and the rows of cells of the table whose first header cell is ``first``."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"| {first} |"))
    rows = []
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return [cell.strip() for cell in lines[start].strip("|").split("|")], rows


class TestLibraryExample:
    # each assigned name and the result its comment gives
    RESULTS = {
        "inverse": "InverseParams(c=205, d=1497)",
        "state": "(1731, 0)",
        "back": "(0, 0)",
        "r": "Fraction(1731, 4194304)",
    }

    def test_commented_results_hold(self):
        block = section("Library").split("```python\n", 1)[1].split("```", 1)[0]
        namespace = {}
        exec(block, namespace)
        comments = dict(re.findall(r"^(\w+) = .*#\s*(.+)$", block, re.M))
        for name, result in self.RESULTS.items():
            assert comments[name].startswith(result), (name, comments[name])
            expected = eval(result, {"Fraction": Fraction, "InverseParams": revlcg.InverseParams})
            assert namespace[name] == expected, name
        assert comments["coupling"] == "carry enabled by default"
        assert namespace["coupling"].carry_enabled is True


class TestPerformanceTables:
    def test_record_table_is_the_change_side_of_its_record(self):
        text = section("Performance")
        cited = set(re.findall(r"BENCH_\d+\.json", text))
        assert len(cited) == 1, cited
        path = ROOT / cited.pop()
        assert path.is_file(), path
        # the README calls it the latest record
        latest = max(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.partition("_")[2]))
        assert path == latest, latest.name
        record = json.loads(path.read_text())
        header, rows = table(text, "metric")
        workloads = [cell.strip("`") for cell in header[1:]]
        assert workloads == list(dict.fromkeys(run["workload"] for run in record["runs"]))
        metrics = [row[0].strip("`") for row in rows]
        assert metrics == [m["name"] for m in record["spec"]["end_to_end"]]
        for metric, (_, *cells) in zip(metrics, rows):
            for workload, cell in zip(workloads, cells, strict=True):
                values = [
                    run["result"]["metrics"][metric]["value"]
                    for run in record["runs"]
                    if run["workload"] == workload and run["side"] == "change"
                ]
                q1, median, q3 = statistics.quantiles(values, n=4)
                printed = CELL.fullmatch(cell)
                assert printed, cell
                scale = SCALE[printed["unit"]]
                for key, value in (("median", median), ("q1", q1), ("q3", q3)):
                    decimals = len(printed[key].partition(".")[2])
                    assert f"{value / scale:.{decimals}f}" == printed[key], (workload, metric, key, value)

    def test_timed_statements_give_their_verdicts(self):
        text = section("Performance")
        setup = re.search(r"^SETUP='(.*)'$", text, re.M)[1]
        assert '-s "$SETUP" "STATEMENT"' in text
        _, rows = table(text, "statement")
        assert rows
        namespace = {}
        exec(setup, namespace)
        for statement, verdict, _ in rows:
            assert verdict in ("pass", "fail"), statement
            report = eval(statement.strip("`"), namespace)
            assert report.passed is (verdict == "pass"), statement
