"""Machine-readable verification reports."""
from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field

ARTIFACT_VERSION = "1.0.0"


@dataclass
class Record:
    check_id: str
    inputs: dict
    values: dict
    verdict: str  # "pass" | "fail" | "error"

    def to_json(self):
        return asdict(self)


@dataclass
class Report:
    config: dict
    records: list = field(default_factory=list)

    def add(self, check_id, inputs, values, ok):
        self.records.append(Record(check_id, inputs, values,
                                   "pass" if ok else "fail"))

    def add_error(self, check_id, inputs, exc):
        self.records.append(Record(check_id, inputs,
                                   {"error": f"{type(exc).__name__}: {exc}"},
                                   "error"))

    @property
    def ok(self):
        return all(r.verdict == "pass" for r in self.records)

    def summary(self):
        counts = {"pass": 0, "fail": 0, "error": 0}
        for r in self.records:
            counts[r.verdict] += 1
        return counts

    def to_json(self):
        return {
            "artifact_version": ARTIFACT_VERSION,
            "config": self.config,
            "records": [r.to_json() for r in self.records],
            "summary": self.summary(),
        }


def emit(report: Report, fmt: str) -> bytes:
    """Serialize with stable field order; byte-identical for equal input."""
    if fmt == "json":
        return (json.dumps(report.to_json(), sort_keys=True,
                           separators=(",", ":")) + "\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check_id", "inputs", "values", "verdict"])
        for r in report.records:
            writer.writerow([
                r.check_id,
                json.dumps(r.inputs, sort_keys=True, separators=(",", ":")),
                json.dumps(r.values, sort_keys=True, separators=(",", ":")),
                r.verdict,
            ])
        return buf.getvalue().encode()
    raise ValueError(f"unknown format {fmt!r}")
