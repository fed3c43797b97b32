"""``compare`` verdicts on synthetic result sets, and the BENCHMARK.json validator."""

import copy
import json

import compare
import config


def test_judge_ok_regressed_unresolved_and_exact():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    slower = [value * 0.8 for value in steady]
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]

    assert compare.judge(steady, steady, "higher", 0.10)[0] == "ok"
    verdict, worse, _ = compare.judge(steady, slower, "higher", 0.10)
    assert verdict == "regressed" and 0.19 < worse < 0.21
    # The same numbers are an improvement when lower is better.
    assert compare.judge(steady, slower, "lower", 0.10)[0] == "ok"
    # Spread wider than the bound: the comparison cannot tell.
    assert compare.judge(noisy, noisy, "higher", 0.10)[0] == "unresolved"
    # A worsening inside the bound is not a regression.
    assert compare.judge(steady, [v * 0.95 for v in steady], "higher", 0.10)[0] == "ok"
    # Exact counts: equal seed by seed or regressed, whatever the medians say.
    assert compare.judge([7.0], [7.0], "higher", 0.0, paired_equal=True)[0] == "ok"
    assert compare.judge([7.0], [7.0], "higher", 0.0, paired_equal=False)[0] == "regressed"


def _result(workload, seed, scale=1.0, failed=0):
    detail = {name: 10.0 for name, (names, _) in config.DETAIL_BOUNDS.items() if workload in names}
    return {
        "workload": workload,
        "seed": seed,
        "trace": False,
        "comparable": True,
        "outputs_sha256": f"{workload}-{seed}",
        "ops_failed": failed,
        "end_to_end": {
            "rate_per_s": 1000.0 * scale + seed,
            "op_p75_ms": 10.0 / scale + 0.01 * seed,
            "peak_rss_mb": 80.0,
            "setup_s": 0.3 + 0.12 * (seed % 2),  # spreads by a third: not tested, as by the driver
        },
        "detail": detail,
    }


def _write_set(directory, scale=1.0, failed=0):
    directory.mkdir()
    for workload in config.WORKLOADS:
        for seed in range(4):
            path = directory / f"{workload}-seed{seed}-trace0.json"
            path.write_text(json.dumps(_result(workload, seed, scale, failed)))


def test_compare_exit_codes(tmp_path, capsys):
    _write_set(tmp_path / "a")
    _write_set(tmp_path / "same")
    _write_set(tmp_path / "slow", scale=0.7)
    _write_set(tmp_path / "broken", failed=3)
    assert compare.compare(tmp_path / "a", tmp_path / "same") == 0
    assert "regressed" not in capsys.readouterr().out
    assert compare.compare(tmp_path / "a", tmp_path / "slow") == 1
    assert "regressed" in capsys.readouterr().out
    assert compare.compare(tmp_path / "a", tmp_path / "broken") == 1
    (tmp_path / "empty").mkdir()
    assert compare.compare(tmp_path / "a", tmp_path / "empty") == 1


def test_benchmark_json_matches_config_and_the_drivers_limits():
    assert compare.check() == 0
    document = compare.benchmark_document()
    assert compare.problems_of(document) == []
    assert [w["name"] for w in document["workloads"]] == list(config.WORKLOADS)


def test_validator_refuses_what_the_driver_would():
    good = compare.benchmark_document()

    def broken(mutate):
        document = copy.deepcopy(good)
        mutate(document)
        return compare.problems_of(document)

    assert broken(lambda d: d["end_to_end"][0].update(bound=0.3))
    assert broken(lambda d: d["end_to_end"][0].update(name="bad name"))
    assert broken(lambda d: d["per_layer"][0].update(unit="tokens per second"))
    assert broken(lambda d: d["workloads"][0].update(why="x" * 201))
    assert broken(lambda d: d["workloads"].append(dict(d["workloads"][0])))  # duplicate name
    assert broken(lambda d: d.update(run_seconds=61))
    assert broken(lambda d: d["end_to_end"].pop())  # setup_s missing
    assert broken(lambda d: d.update(extra=1))
    assert broken(lambda d: d["per_layer"].extend({"name": f"m{i}", "unit": "s", "better": "lower"} for i in range(128)))
