"""Tests for the command-line interface."""

import pickle

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_compare_command(capsys):
    assert main(["compare", "--gpus", "256", "--batch", "768"]) == 0
    out = capsys.readouterr().out
    assert "MegaScale" in out and "Megatron-LM" in out
    assert "speedup" in out


def test_ablation_command(capsys):
    assert main(["ablation"]) == 0
    out = capsys.readouterr().out
    assert "baseline" in out
    assert "LAMB" in out


def test_init_command(capsys):
    assert main(["init", "--gpus", "2048"]) == 0
    out = capsys.readouterr().out
    assert "tcpstore_naive" in out
    assert "redis_ordered" in out


def test_production_command(capsys):
    assert main(["production", "--gpus", "256", "--weeks", "0.1", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "restarts" in out
    assert "effective time rate" in out


def test_tune_command(capsys):
    assert main(["tune", "--model", "gpt-13b", "--gpus", "16", "--batch", "64", "--top", "2"]) == 0
    out = capsys.readouterr().out
    assert "#1" in out and "MFU" in out


@pytest.mark.parametrize(
    "payload",
    [
        b"\x80\x09",  # a pickle protocol that does not exist
        pickle.dumps({"fingerprint": "stale", "entries": 5}),
        pickle.dumps(["not", "a", "store"]),
        b"this is not a pickle",
    ],
    ids=["bad-protocol", "entries-not-a-dict", "not-a-dict", "not-a-pickle"],
)
def test_tune_cache_dir_over_a_corrupt_file_starts_fresh(capsys, tmp_path, payload):
    (tmp_path / "plan-search.pkl").write_bytes(payload)
    argv = [
        "tune", "--model", "gpt-13b", "--gpus", "16", "--batch", "64",
        "--top", "2", "--cache-dir", str(tmp_path),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "#1" in out and "persistent-cache hits" not in out
    assert main(argv) == 0  # the rewritten file serves the second run
    assert "0 engine evaluations" in capsys.readouterr().out


def test_diagnose_scenario_command(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    assert main([
        "diagnose", "--scenario", "straggler", "--seed", "1",
        "--out", str(out_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "straggler" in out
    assert "#1" in out
    assert out_path.exists()


def test_diagnose_saved_trace_command(capsys, tmp_path):
    from repro.observability.diagnosis import run_scenario

    trace = tmp_path / "session.json"
    run_scenario("tor-blast", seed=0).save(str(trace))
    assert main(["diagnose", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "tor-blast" in out


def test_diagnose_saved_trace_with_a_backward_only_rank(capsys, tmp_path):
    # A valid training lane where rank 9 recorded backward but no forward
    # span: the forward heat map skips rank 9 instead of a KeyError traceback.
    import json

    from repro.observability.diagnosis import run_scenario

    hub = run_scenario("straggler", seed=1)
    hub.span("training", "backward", 9, 0.0, 0.01, stream="compute", step=0)
    trace = tmp_path / "session.json"
    hub.save(str(trace))
    out_path = tmp_path / "report.json"
    assert main(["diagnose", "--trace", str(trace), "--out", str(out_path)]) == 0
    assert "straggler" in capsys.readouterr().out
    assert json.loads(out_path.read_text())["findings"][0]["cause"] == "straggler"


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_production_trace_flag_writes_document(tmp_path):
    import json

    trace = tmp_path / "run.json"
    argv = [
        "production", "--gpus", "256", "--weeks", "0.1", "--seed", "1",
        "--correlated", "--trace", str(trace),
    ]
    assert main(argv) == 0
    document = json.loads(trace.read_text())
    from repro.observability import lane_summary

    lanes = {l["name"].split("/")[-1] for l in lane_summary(document)}
    assert {"training", "collectives", "network", "fault"} <= lanes
    assert (tmp_path / "run.metrics.jsonl").exists()


def test_sweep_trace_flag_writes_document(tmp_path, capsys):
    import json

    trace = tmp_path / "sweep.json"
    argv = ["sweep", "--trace", str(trace)]
    assert main(argv) == 0
    events = json.loads(trace.read_text())["traceEvents"]
    assert any(e["ph"] == "X" and e["name"].startswith("candidate") for e in events)
    assert "trace" in capsys.readouterr().out


def test_trace_command_summarizes_lanes(tmp_path, capsys):
    trace = tmp_path / "run.json"
    main([
        "production", "--gpus", "256", "--weeks", "0.1", "--seed", "1",
        "--trace", str(trace),
    ])
    capsys.readouterr()
    assert main(["trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "lane" in out and "spans" in out
    assert "training" in out and "fault" in out
    assert main(["trace", str(trace), "--lane", "training"]) == 0
    out = capsys.readouterr().out
    assert "rank" in out  # ASCII timeline rendered


def test_tune_command_fabric_backend(capsys):
    argv = [
        "tune", "--model", "gpt-13b", "--gpus", "16", "--batch", "64",
        "--top", "2", "--backend", "fabric",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "#1" in out and "MFU" in out


def test_compare_command_fabric_backend(capsys):
    argv = ["compare", "--gpus", "256", "--batch", "768", "--backend", "fabric"]
    assert main(argv) == 0
    assert "speedup" in capsys.readouterr().out


# A validation report small enough to finish in well under a second.
_SMALL_VALIDATE = ["validate", "--gpus", "128", "--nodes-per-pod", "8", "--trials", "5"]


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A directory of saved files, good and bad, for the trace and
    calibrate readers."""
    from repro.observability import TelemetryHub

    directory = tmp_path_factory.mktemp("saved")
    hub = TelemetryHub(job_name="unit")
    hub.span("training", "forward", 0, 0.0, 1.0)
    hub.save(str(directory / "session.json"))
    (directory / "list.json").write_text("[]")
    (directory / "events.json").write_text('{"traceEvents": [1]}')
    (directory / "bad.metrics.jsonl").write_text("[1, 2]\n")
    (directory / "pair.json").write_text("[1, 2]")
    (directory / "constants.json").write_text('{"constants": {"gemm_eff_max": "x"}}')
    (directory / "ids.json").write_text('{"anchors": [{"anchor_id": 3}]}')
    (directory / "stray").mkdir()
    (directory / "stray" / "stray.json").write_text("{}")
    return directory


@pytest.mark.parametrize(
    "argv, blames",
    [
        (["production", "--spares", "-3"], "--spares"),
        (["trace", "no-such-trace.json"], "no-such-trace.json"),
        (["mc", "--seeds", "0"], "--seeds"),
        (["mc", "--weeks", "-1"], "weeks"),
        (["tune", "--model", "X"], "--model"),
        (["compare", "--tp", "0"], "--tp"),
        (["compare", "--pp", "0"], "--pp"),
        (["validate", "--gpus-per-node", "0"], "--gpus-per-node"),
        (["tune", "--gpus-per-node", "0"], "--gpus-per-node"),
        (["calibrate", "--check", "--drift-tolerance", "nan"], "--drift-tolerance"),
        (["calibrate", "--check", "--drift-tolerance", "-1"], "--drift-tolerance"),
        (_SMALL_VALIDATE + ["--max-rel-error", "nan"], "--max-rel-error"),
        (_SMALL_VALIDATE + ["--max-rel-error", "inf"], "--max-rel-error"),
        (["mc", "--seeds", "2", "--nodes", "8", "--weeks", "nan"], "--weeks"),
        (["production", "--gpus", "64", "--weeks", "inf"], "--weeks"),
        (["schedule", "--days", "nan"], "--days"),
        (["calibrate", "--fit", "--max-evals", "0"], "--max-evals"),
        (["calibrate", "--fit", "--max-evals", "-1"], "--max-evals"),
        (["mc", "--seed", "3", "--weeks", "0.05", "--nodes", "8"], "--seed"),
        (["production", "--gpus", "64", "--weeks", "0.05", "--seed", "-1"], "--seed"),
        (["schedule", "--days", "0.5", "--seed", "-1"], "--seed"),
        (_SMALL_VALIDATE + ["--seed", "-1"], "--seed"),
        (["diagnose", "--scenario", "clean", "--seed", "-1"], "--seed"),
        (["trace", "no-such-trace.json", "--width", "9"], "--width"),
        (_SMALL_VALIDATE + ["--group-size", "1"], "--group-size"),
        (["trace", "{saved}/events.json"], "events.json"),
        (["diagnose", "--trace", "{saved}/list.json"], "list.json"),
        (["diagnose", "--trace", "{saved}/session.json",
          "--metrics", "{saved}/bad.metrics.jsonl"], "bad.metrics.jsonl"),
        (["diagnose", "--trace", "{saved}/session.json",
          "--metrics", "{saved}/session.json"], "session.json"),
        (["trace", "{saved}/session.json", "--lane", "nosuchlane"], "--lane"),
        (["diagnose"], "--trace"),
        (["diagnose", "--trace", "x.json", "--scenario", "clean"], "--scenario"),
        (["diagnose", "--scenario", "gremlins"], "--scenario"),
        (["calibrate", "--profile", "{saved}/list.json"], "list.json"),
        (["calibrate", "--profile", "{saved}/constants.json"], "constants.json"),
        (["calibrate", "--check", "--baseline", "{saved}/pair.json"], "pair.json"),
        (["calibrate", "--check", "--baseline", "{saved}/ids.json"], "ids.json"),
        (["calibrate", "--fixtures", "{saved}/stray"], "stray.json"),
        (["calibrate", "--check", "--profile", "{saved}/no-such-profile.json"],
         "no-such-profile.json"),
    ],
    ids=[
        "negative-spares", "missing-trace", "zero-seeds", "negative-weeks", "unknown-model",
        "zero-tp", "zero-pp", "validate-zero-gpus-per-node", "tune-zero-gpus-per-node",
        "nan-drift-tolerance", "negative-drift-tolerance", "nan-max-rel-error",
        "inf-max-rel-error", "nan-weeks", "inf-weeks", "nan-days",
        "zero-max-evals", "negative-max-evals", "abbreviated-seeds",
        "production-negative-seed", "schedule-negative-seed", "validate-negative-seed",
        "diagnose-negative-seed", "narrow-trace-width", "validate-group-size-1",
        "trace-not-a-document", "diagnose-not-a-document", "diagnose-bad-sidecar",
        "diagnose-trace-as-sidecar",
        "trace-unknown-lane", "diagnose-no-source", "diagnose-both-sources",
        "diagnose-unknown-scenario", "calibrate-profile-not-an-object",
        "calibrate-profile-constant-not-a-number", "calibrate-baseline-not-an-object",
        "calibrate-baseline-id-not-a-string", "calibrate-not-a-fixture",
        "calibrate-missing-profile",
    ],
)
def test_invalid_input_is_one_error_line(argv, blames, saved, capsys):
    with pytest.raises(SystemExit) as exc:
        main([arg.format(saved=saved) for arg in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("repro: error:"), captured.err
    assert blames in lines[0], captured.err  # names the bad input, not a symptom
    assert "Traceback" not in captured.err + captured.out


def test_calibrate_gate_fails_anchors_the_baseline_lacks(tmp_path, capsys):
    """An empty baseline once passed the drift gate without comparing a
    single prediction."""
    from repro.calibration import load_anchors

    baseline = tmp_path / "empty.json"
    baseline.write_text('{"anchors": []}')
    assert main(["calibrate", "--check", "--baseline", str(baseline)]) == 1
    out = capsys.readouterr().out
    fails = [line for line in out.splitlines() if line.startswith("FAIL:")]
    assert len(fails) == len(load_anchors())
    assert all("not in the baseline; re-save it with --save-baseline" in f for f in fails)
    assert "drift gate passed" not in out
