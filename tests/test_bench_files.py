"""The checked-in BENCH_*.json files follow the schema that
tools/bench_pairs.py writes.  Nothing here runs the benchmark."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_there_are_bench_files():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_follows_the_schema(path):
    doc = json.loads(path.read_text())
    assert _bench_pairs().problems(doc) == []
    assert len(doc["parent_commit"]) == 40
    names = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    assert set(doc["workloads"]) <= names


@pytest.mark.parametrize("breakage, found", [
    (lambda d, w: w.update(pairs=w["pairs"] + 1), "pairs must equal the number of seeds"),
    (lambda d, w: w["change"]["wall_s"].update(median=-1.0), "median is not the runs' median"),
    (lambda d, w: w["pairs_change_lower"].update(wall_s=-1), "must count pairs"),
    (lambda d, w: d.pop("claim"), "missing key 'claim'"),
])
def test_schema_check_finds_a_broken_file(breakage, found):
    doc = json.loads(BENCH_FILES[0].read_text())
    breakage(doc, next(iter(doc["workloads"].values())))
    assert any(found in p for p in _bench_pairs().problems(doc))


MEDIANS = {
    "parent": {"median": 2.0, "runs": [1.0, 2.0, 3.0], "quartiles": [1.0, 2.0, 3.0]},
    "change": {"median": 3.0, "runs": [2.5, 3.0, 3.5], "quartiles": [2.5, 3.0, 3.5]},
}
DIFFERENCES = [
    ("solve_p_s", "p_max_abs_diff"),
    ("skeleton_G0_s", "eta_max_abs_diff"),
    ("rate_I_s", "value_max_rel_diff"),
    ("rate_Ibar_s", "value_max_rel_diff"),
]


# the EM probe's process CPU seconds, recorded from BENCH_24.json on
CPU_KEYS = ("run_coupled_cpu_s", "limit_path_cpu_s")


def _medians():
    return json.loads(json.dumps(MEDIANS))


def _with_layers():
    # the first file with layer timings, given the timings it predates; it
    # keeps the CLI timing in the older best-of-3 form
    doc = next(d for d in (json.loads(p.read_text()) for p in BENCH_FILES) if "layers" in d)
    for key in ("cli_import_s", "limit_path_s"):
        doc["layers"].setdefault(key, {
            "parent": {"best": 0.61, "runs": [0.7, 0.61, 0.65]},
            "change": {"best": 0.3, "runs": [0.3, 0.31, 0.33]},
        })
    for key in ("em_particle_steps_per_s", "batch_paths_events_per_s", *CPU_KEYS):
        doc["layers"].setdefault(key, _medians())
    for key, diff in DIFFERENCES:
        doc["layers"].setdefault(key, {diff: 1e-14, **_medians()})
    return doc


MEDIAN_KEYS = ["batch_paths_events_per_s", "batch_paths_iterations_per_s",
               "em_particle_steps_per_s",
               "solve_p_s", "skeleton_G0_s", "rate_I_s", "rate_Ibar_s",
               "cli_jump_sim_s", "cli_import_s", "limit_path_s", *CPU_KEYS]


@pytest.mark.parametrize("path", [p for p in BENCH_FILES if int(p.stem.split("_")[1]) >= 24],
                         ids=lambda p: p.name)
def test_em_probe_records_cpu_beside_wall_seconds(path):
    layers = json.loads(path.read_text())["layers"]
    for key in ("em_particle_steps_per_s", "limit_path_s", *CPU_KEYS):
        assert all(layers[key][side]["runs"] for side in ("parent", "change"))


@pytest.mark.parametrize("key", MEDIAN_KEYS)
def test_schema_check_reads_the_median_timings(key):
    doc = _with_layers()
    doc["layers"][key].update(_medians())
    assert _bench_pairs().problems(doc) == []
    doc["layers"][key]["change"]["median"] += 1.0
    assert any(f"layers.{key}.change: median is not the runs' median" in p
               for p in _bench_pairs().problems(doc))
    doc["layers"][key]["parent"]["runs"] = []
    assert any(f"layers.{key}.parent: needs its runs" in p for p in _bench_pairs().problems(doc))


@pytest.mark.parametrize("key, diff", DIFFERENCES)
@pytest.mark.parametrize("value", [-1.0, float("inf"), None])
def test_schema_check_reads_the_output_differences(key, diff, value):
    doc = _with_layers()
    doc["layers"][key][diff] = value
    assert any(f"layers.{key}.{diff}: must be a finite difference >= 0" in p
               for p in _bench_pairs().problems(doc))


def test_files_without_the_analysis_timings_pass():
    # files written before the analysis probe existed lack its keys
    doc = _with_layers()
    for key, _ in DIFFERENCES:
        del doc["layers"][key]
    assert _bench_pairs().problems(doc) == []


@pytest.mark.parametrize("key", ["cli_jump_sim_s", "cli_import_s", "limit_path_s"])
def test_schema_check_reads_the_best_of_timings(key):
    # older files kept these three timings as the best of 3 runs
    doc = _with_layers()
    assert _bench_pairs().problems(doc) == []
    doc["layers"][key]["change"]["best"] += 1.0
    assert any(f"layers.{key}.change: best is not the runs' minimum" in p
               for p in _bench_pairs().problems(doc))
    doc["layers"][key]["parent"]["runs"] = []
    assert any(f"layers.{key}.parent: needs its runs" in p for p in _bench_pairs().problems(doc))
