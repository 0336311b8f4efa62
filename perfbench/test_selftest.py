"""Fast self-test of the benchmark: every workload at tiny sizes, untraced and traced.

    python3 -m pytest perfbench -q
"""

import pytest

import run


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_runs_clean(workload, trace):
    line, record = run.measure(workload, seed=1, seconds=1, trace=trace, tiny=True)
    assert record["failed_ratio"] == 0, record["problems"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert set(line["metrics"]) == set(run.declared_metrics(trace))
    assert all(v >= 0 for v in line["metrics"].values())
    if trace and workload != "frontend":
        assert record["rows"]
