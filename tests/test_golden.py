"""Golden outputs of the eight shipped configs.

Each ``configs/<experiment>.cfg`` runs through ``validate_config`` /
``run_experiment``, and its ``results`` and ``comparisons`` must match
``tests/golden/<experiment>.json``: strings, ints and bools exactly, floats
within 1e-10 relative or 1e-14 absolute.  A refactor that leaves every
output alone passes unchanged.  A change to an estimator or an oracle moves
these numbers on purpose: regenerate the files it moves with
``PYTHONPATH=src python tests/test_golden.py <experiment> ...`` (every file
when no experiment is named) and say so in CHANGES.md.  Regenerating a file
whose outputs did not change can still move its bytes at round-off on
another host, so name only the experiments the change means to move.
"""

import json
import math
import pathlib
import sys

import pytest

from fracqm.cli import run_experiment, validate_config

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
REL_TOL, ABS_TOL = 1e-10, 1e-14


def _outputs(experiment):
    config = validate_config((CONFIGS / f"{experiment}.cfg").read_text())
    report = run_experiment(config)
    # a JSON round trip gives the types write_report's output has
    return json.loads(json.dumps({"results": report.results,
                                  "comparisons": report.comparisons}))


def _mismatches(got, want, where="$"):
    if isinstance(want, float) and type(got) is float:
        if got == want or (math.isnan(got) and math.isnan(want)):
            return []
        if abs(got - want) <= max(ABS_TOL, REL_TOL * abs(want)):
            return []
        return [f"{where}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{where}: type {type(got).__name__} != {type(want).__name__}"]
    if isinstance(want, dict):
        if set(got) != set(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{where}[{i}]")]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


@pytest.mark.parametrize("experiment", sorted(p.stem for p in CONFIGS.glob("*.cfg")))
def test_shipped_config_matches_golden(experiment):
    want = json.loads((GOLDEN / f"{experiment}.json").read_text())
    mismatches = _mismatches(_outputs(experiment), want)
    assert not mismatches, "\n".join(mismatches[:20])


if __name__ == "__main__":
    shipped = sorted(p.stem for p in CONFIGS.glob("*.cfg"))
    unknown = sorted(set(sys.argv[1:]) - set(shipped))
    if unknown:
        sys.exit(f"no shipped config for {', '.join(unknown)}; choose from {', '.join(shipped)}")
    GOLDEN.mkdir(exist_ok=True)
    for experiment in sys.argv[1:] or shipped:
        path = GOLDEN / f"{experiment}.json"
        path.write_text(json.dumps(_outputs(experiment), indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
