"""Every committed benchmark record, `BENCH_<n>.json` at the root of the
repository, parses and carries the fields that compare a change with
its parent; a claimed gain names a workload and an end-to-end metric
that `BENCHMARK.json` declares."""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDS = sorted(p for p in ROOT.glob("BENCH_*.json")
                 if p.stem[len("BENCH_"):].isdigit())
KEYS = {"change", "claimed", "command", "machine", "method", "parent",
        "workloads"}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_records_are_found():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_has_the_fields_and_a_declared_claim(path):
    record = json.loads(path.read_text())
    assert KEYS <= set(record), KEYS - set(record)
    claimed = record["claimed"]
    if claimed is not None:
        assert claimed["workload"] in {w["name"]
                                       for w in BENCHMARK["workloads"]}
        assert claimed["metric"] in {m["name"]
                                     for m in BENCHMARK["end_to_end"]}
