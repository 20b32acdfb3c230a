import csv
import json

import pytest

from cloudsched import cli
from cloudsched.simulator import run
from cloudsched.workload import generate_arrivals, sample_jobs

# Low admission odds and few retries leave some jobs stuck, so the job table
# has empty (None) cells next to completed rows.
CONFIG = {
    "simulation": {"num_tasks": 150, "num_vms": 40, "seed": 4, "max_retries": 2},
    "allocation_bands": [[1, 100, 0.3]],
}
MODES = ("native", "resultant")


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    out = tmp_path_factory.mktemp("simulate")
    config = out / "config.json"
    config.write_text(json.dumps(CONFIG))
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == cli.EXIT_OK
    parsed = cli.parse_config(config)
    jobs = sample_jobs(parsed.workload, generate_arrivals(parsed.workload))
    return out, {mode: run(parsed.sim, jobs, mode=mode) for mode in MODES}


def _cell(value) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


class TestSimulateOutputs:
    @pytest.mark.parametrize("mode", MODES)
    def test_report_file_is_compact_to_json(self, simulated, mode):
        out, reports = simulated
        text = (out / f"report_{mode}.json").read_text()
        assert text == reports[mode].to_json() + "\n"

    @pytest.mark.parametrize("mode", MODES)
    def test_report_round_trips_through_load_report(self, simulated, mode):
        out, reports = simulated
        assert cli.load_report(out / f"report_{mode}.json") == reports[mode]

    @pytest.mark.parametrize("mode", MODES)
    def test_job_table_cells(self, simulated, mode):
        out, reports = simulated
        with open(out / f"jobs_{mode}.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert tuple(header) == cli._JOB_TABLE_HEADER
        expected = [[_cell(v) for v in row] for row in cli._job_rows(reports[mode])]
        assert rows == expected
        statuses = {r.status for r in reports[mode].jobs}
        assert {"completed", "stuck"} <= statuses
        assert any(cell == "" for row in rows for cell in row)


class TestTableText:
    def test_csv_cells(self):
        text = cli._table_text(("a", "b", "c", "d", "e"),
                               [(None, 0.1 + 0.2, 3, "x,y", True)], "csv")
        assert text == 'a,b,c,d,e\r\n,0.30000000000000004,3,"x,y",True\r\n'
