"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate"])
        assert args.scale == 1.0
        assert args.out == "detections.csv"


class TestCommands:
    def test_zones(self, capsys):
        assert main(["zones"]) == 0
        out = capsys.readouterr().out
        assert "zone60853" in out
        assert out.count("zone608") >= 52

    def test_generate_and_validate(self, tmp_path, capsys):
        out_path = str(tmp_path / "detections.csv")
        assert main(["generate", "--scale", "0.01",
                     "--out", out_path]) == 0
        generated = capsys.readouterr().out
        assert "wrote" in generated

        assert main(["validate", out_path]) == 0
        validated = capsys.readouterr().out
        assert "0 errors" in validated

    def test_stats_small_scale(self, capsys):
        assert main(["stats", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "statistic" in out

    def test_experiments_small_scale(self, capsys):
        assert main(["experiments", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        for marker in ("T1", "F1", "F6", "S41", "ENG", "QRY"):
            assert marker in out


class TestQueryCommand:
    def test_query_help_smoke(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["query", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--visiting" in out
        assert "--or" in out

    def test_query_basic(self, capsys):
        assert main(["query", "--scale", "0.01",
                     "--annotation", "goal=visit",
                     "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "matches:" in out
        assert "visitor" in out

    def test_query_or_not_explain(self, capsys):
        assert main(["query", "--scale", "0.01",
                     "--visiting", "zone60853", "--or",
                     "--not", "--visiting", "zone60886",
                     "--explain", "--count"]) == 0
        out = capsys.readouterr().out
        assert "plan:" in out
        assert "union" in out
        assert "difference" in out
        assert "matches:" in out

    def test_query_order_and_offset(self, capsys):
        assert main(["query", "--scale", "0.01",
                     "--min-entries", "2",
                     "--order-by", "duration", "--desc",
                     "--offset", "1", "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("visitor") == 2

    def test_query_from_jsonl(self, tmp_path, capsys):
        from repro.storage import write_trajectories_jsonl
        from tests.conftest import make_trajectory

        path = str(tmp_path / "t.jsonl")
        write_trajectories_jsonl(
            [make_trajectory(mo_id="m1", states=("a", "b")),
             make_trajectory(mo_id="m2", states=("c",),
                             start=9000.0)], path)
        assert main(["query", "--jsonl", path,
                     "--visiting", "a"]) == 0
        out = capsys.readouterr().out
        assert "corpus: 2 trajectories" in out
        assert "matches: 1" in out

    def test_query_bad_annotation(self, capsys):
        assert main(["query", "--scale", "0.01",
                     "--annotation", "nonsense"]) == 2
        assert "KIND=VALUE" in capsys.readouterr().err

    def test_query_dangling_or(self, capsys):
        assert main(["query", "--scale", "0.01",
                     "--visiting", "zone60853", "--or"]) == 2
        assert "--or" in capsys.readouterr().err

    def test_query_dangling_not(self, capsys):
        assert main(["query", "--scale", "0.01",
                     "--visiting", "zone60853", "--not"]) == 2
        assert "--not" in capsys.readouterr().err

    def test_query_missing_jsonl(self, capsys):
        assert main(["query", "--jsonl", "/no/such/file"]) == 1
        assert "error" in capsys.readouterr().err


class TestPipelineCommands:
    def test_pipeline_help_smoke(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["pipeline", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "run" in out
        assert "stages" in out

    def test_pipeline_run_help_smoke(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["pipeline", "run", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--batch-size" in out
        assert "--streaming" in out

    def test_pipeline_stages_lists_catalog(self, capsys):
        assert main(["pipeline", "stages"]) == 0
        out = capsys.readouterr().out
        for name in ("clean", "segment", "trace", "annotate",
                     "store", "prefixspan"):
            assert name in out

    def test_pipeline_run_small(self, capsys):
        assert main(["pipeline", "run", "--scale", "0.01",
                     "--store", "--mine",
                     "--batch-size", "64"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out
        assert "stored trajectories:" in out

    def test_pipeline_run_streaming_with_jsonl(self, tmp_path,
                                               capsys):
        out_path = str(tmp_path / "trajectories.jsonl")
        assert main(["pipeline", "run", "--scale", "0.01",
                     "--streaming", "--out", out_path]) == 0
        capsys.readouterr()
        from repro.storage import read_trajectories_jsonl
        assert read_trajectories_jsonl(out_path)

    def test_pipeline_run_from_csv(self, tmp_path, capsys):
        csv_path = str(tmp_path / "detections.csv")
        assert main(["generate", "--scale", "0.01",
                     "--out", csv_path]) == 0
        assert main(["pipeline", "run", "--csv", csv_path]) == 0
        out = capsys.readouterr().out
        assert "annotate" in out

    def test_pipeline_run_unknown_stage(self, capsys):
        assert main(["pipeline", "run", "--scale", "0.01",
                     "--stages", "clean,nope"]) == 2
        err = capsys.readouterr().err
        assert "nope" in err

    def test_pipeline_run_jsonl_stage_needs_out(self, capsys):
        assert main(["pipeline", "run", "--scale", "0.01",
                     "--stages", "clean,segment,trace,annotate,"
                                 "jsonl-sink"]) == 2
        err = capsys.readouterr().err
        assert "--out" in err

    def test_pipeline_run_jsonl_stage_listed_with_out(self, tmp_path,
                                                      capsys):
        # Listing jsonl-sink explicitly plus --out must not attach
        # two sinks writing the same file.
        out_path = str(tmp_path / "t.jsonl")
        assert main(["pipeline", "run", "--scale", "0.01",
                     "--stages", "clean,segment,trace,annotate,"
                                 "jsonl-sink",
                     "--out", out_path]) == 0
        out = capsys.readouterr().out
        assert out.count("jsonl-sink") == 2  # chain line + table row
        from repro.storage import read_trajectories_jsonl
        assert read_trajectories_jsonl(out_path)


class TestSnapshotRestore:
    def test_snapshot_then_restore(self, tmp_path, capsys):
        directory = str(tmp_path / "corpus")
        assert main(["snapshot", "--scale", "0.01",
                     "--out", directory]) == 0
        out = capsys.readouterr().out
        assert "snapshot:" in out and directory in out

        assert main(["restore", directory]) == 0
        out = capsys.readouterr().out
        assert "restored:" in out
        assert "LouvreSpace" in out
        assert "visits" in out

    def test_snapshot_json_round_trip(self, tmp_path, capsys):
        import json as json_module

        directory = str(tmp_path / "corpus")
        assert main(["snapshot", "--scale", "0.01",
                     "--out", directory, "--json"]) == 0
        saved = json_module.loads(capsys.readouterr().out)
        assert saved["trajectories"] > 0

        assert main(["restore", directory, "--json"]) == 0
        restored = json_module.loads(capsys.readouterr().out)
        assert restored["trajectories"] == saved["trajectories"]
        assert restored["space"] == "LouvreSpace"
        assert restored["summary"]["visits"] == saved["trajectories"]

    def test_snapshot_from_jsonl(self, tmp_path, capsys):
        jsonl_path = str(tmp_path / "t.jsonl")
        assert main(["pipeline", "run", "--scale", "0.01",
                     "--streaming", "--out", jsonl_path]) == 0
        capsys.readouterr()
        directory = str(tmp_path / "corpus")
        assert main(["snapshot", "--jsonl", jsonl_path,
                     "--out", directory]) == 0
        capsys.readouterr()
        assert main(["restore", directory]) == 0
        assert "restored:" in capsys.readouterr().out

    def test_restore_missing_dir_fails(self, tmp_path, capsys):
        assert main(["restore", str(tmp_path / "nothing")]) == 1
        assert "error" in capsys.readouterr().err

    def test_restore_corrupt_snapshot_fails(self, tmp_path, capsys):
        import os as os_module

        directory = str(tmp_path / "corpus")
        assert main(["snapshot", "--scale", "0.01",
                     "--out", directory]) == 0
        capsys.readouterr()
        current = open(os_module.path.join(directory,
                                           "CURRENT")).read().strip()
        manifest = os_module.path.join(directory, current,
                                       "MANIFEST.json")
        raw = bytearray(open(manifest, "rb").read())
        raw[len(raw) // 2] ^= 0x01
        open(manifest, "wb").write(bytes(raw))
        assert main(["restore", directory]) == 1
        assert "corrupt" in capsys.readouterr().err

class TestStreamCommands:
    @pytest.fixture()
    def server(self):
        from repro.service.aserver import AsyncServiceServer
        from repro.service.registry import SessionRegistry

        registry = SessionRegistry()
        server = AsyncServiceServer(registry, port=0)
        server.start()
        try:
            yield server
        finally:
            server.stop()

    def test_stream_help_smoke(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["stream", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for name in ("replay", "status", "close"):
            assert name in out

    def test_replay_status_close_round_trip(self, server, capsys):
        import json as json_module

        base = ["--url", server.url, "--session", "live",
                "--stream", "gates", "--json"]
        assert main(["stream", "replay", "--scale", "0.01",
                     "--chunk", "50", "--no-close"] + base) == 0
        replayed = json_module.loads(capsys.readouterr().out)
        assert replayed["replayed"] == replayed["corpus_events"] > 0
        assert replayed["closed"] is False

        assert main(["stream", "status"] + base) == 0
        status = json_module.loads(capsys.readouterr().out)
        assert status["events_acked"] == replayed["replayed"]

        assert main(["stream", "close"] + base) == 0
        closed = json_module.loads(capsys.readouterr().out)
        assert closed["events_acked"] == replayed["replayed"]
        assert closed["episodes_total"] > 0

    def test_replay_resumes_with_offset(self, server, capsys):
        base = ["--url", server.url, "--session", "live",
                "--stream", "gates", "--json"]
        import json as json_module

        assert main(["stream", "replay", "--scale", "0.01",
                     "--chunk", "40", "--limit", "100"] + base) == 0
        first = json_module.loads(capsys.readouterr().out)
        assert first["replayed"] == 100 and first["closed"] is False

        assert main(["stream", "replay", "--scale", "0.01",
                     "--chunk", "40", "--offset", "100"] + base) == 0
        second = json_module.loads(capsys.readouterr().out)
        assert second["closed"] is True
        assert second["events_acked"] \
            == first["replayed"] + second["replayed"] \
            == second["corpus_events"]

    def test_unknown_stream_status_fails(self, server, capsys):
        assert main(["stream", "status", "--url", server.url,
                     "--session", "nowhere"]) == 1
        assert "unknown_stream" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["call", '{"command": "ListSessions"}'],
        ["stream", "status"],
        ["stream", "close"],
        ["synth", "replay", "--mode", "queries", "--queries", "1"],
    ], ids=["call", "stream-status", "stream-close", "synth-replay"])
    def test_unreachable_server_fails(self, capsys, argv):
        assert main(argv + ["--url", "http://127.0.0.1:9",
                            "--timeout", "2"]) == 1
        assert "error: cannot reach" in capsys.readouterr().err

    def test_bad_chunk_rejected(self, capsys):
        assert main(["stream", "replay", "--chunk", "0"]) == 2
        assert "--chunk" in capsys.readouterr().err


class TestCacheDir:
    def test_pipeline_run_cache_dir(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["pipeline", "run", "--scale", "0.01",
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        import os as os_module
        assert [name for name in os_module.listdir(cache_dir)
                if name.endswith(".json")]
        # second run replays the persisted prefix
        assert main(["pipeline", "run", "--scale", "0.01",
                     "--cache-dir", cache_dir]) == 0
        assert "annotate" in capsys.readouterr().out
