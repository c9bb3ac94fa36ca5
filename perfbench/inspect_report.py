"""Summarize one ``report.json`` as a JSON line on stdout.

    python3 perfbench/inspect_report.py REPORT_JSON

Runs as its own process so that ``run.py`` never holds a parsed report:
a child's ``ru_maxrss`` includes the memory high-water mark of the parent
it was spawned from, so the parent has to stay smaller than any child.
"""

import json
import sys


def summarize(report: dict) -> dict:
    records = report["records"]
    verdict = report["verdict"]
    problems = []
    if verdict["fail"] or verdict["errors"]:
        problems.append(f"verdict {verdict}")
    if any("error" in r for r in records):
        problems.append("a record carries an error")
    t1 = [r for r in records if r["check_id"] == "T1"]
    if any(r.get("pass") is not True or r.get("theory_constant") != 4.0 for r in t1):
        problems.append("a T1 record does not pass with constant 4")
    return {
        "problems": problems,
        "tool_version": report["environment"]["tool_version"],
        "records": len(records),
        "optimizer_iterations": sum(e["iterations_used"] for e in report["estimates"]),
    }


if __name__ == "__main__":
    with open(sys.argv[1], "r", encoding="utf-8") as fh:
        print(json.dumps(summarize(json.load(fh))))
