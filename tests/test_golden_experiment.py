"""Same behaviour: the experiment writes the recorded result CSVs.

``streamcc experiment`` on ``data/experiment_small.json`` must write the
same per-policy CSVs, apart from the ``apte_us`` column, which is a time.
The digest is taken the way ``bench/runner.py`` pins its experiment
workload: SHA-256 over each CSV's name and then its rows, each without its
last column. To record a new value after an intended change of behaviour,
copy the digest the failing assertion prints.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path

from streamcc.evaluation import ExperimentConfig, run_experiment, write_results

EXPERIMENT_SMALL_DIGEST = "7f102a862d29a0c85344a2a0211463c21f6749ed454123372bf60ffb82449626"


def csv_digest(paths: list[Path]) -> str:
    """SHA-256 of the result CSVs, each row without its last column (``apte_us``)."""
    digest = hashlib.sha256()
    for path in sorted(p for p in paths if p.suffix == ".csv"):
        digest.update(f"{path.name}\n".encode())
        for line in path.read_text(encoding="utf-8").splitlines():
            digest.update((line.rsplit(",", 1)[0] + "\n").encode())
    return digest.hexdigest()


def test_experiment_small_csvs_match_the_recorded_digest(data_dir, tmp_path):
    config = replace(ExperimentConfig.from_json(data_dir / "experiment_small.json"), output_dir=tmp_path)
    result = run_experiment(config)
    assert all(run.error is None for run in result.runs)
    paths = write_results(result, config.output_dir)
    assert [p.name for p in paths if p.suffix == ".csv"] == [
        "baseline.csv",
        "bounded-states-w3.csv",
        "bounded-cases-n10.csv",
        "combined-w3-n10.csv",
    ]
    assert csv_digest(paths) == EXPERIMENT_SMALL_DIGEST
