"""CLI tests: exit codes, diagnostics, and byte-identical reruns."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import luxmote.deployment
from luxmote.cli import main
from luxmote.config import load_deployment_config, load_node_config
from luxmote.deployment import run_deployment
from luxmote.simulate import run_node, write_node_log_csv
from luxmote.traces import load_trace_csv

REPO = Path(__file__).resolve().parent.parent
DEPLOY_CONFIG = str(REPO / "configs" / "deployment_15node.json")
NODE_CONFIG = str(REPO / "configs" / "node_default.json")
SWEEP_CONFIG = str(REPO / "configs" / "sweep_default.json")
TRACE_DIR = str(REPO / "configs" / "traces")
LIGHT_TRACE = str(REPO / "configs" / "traces" / "n01_light.csv")


def _write_trace(path, rows):
    with path.open("w", encoding="utf-8") as fh:
        fh.write("time_s,value\n")
        fh.writelines(f"{t!r},{v!r}\n" for t, v in rows)


class TestSimulateNode:
    def test_happy_path(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "simulate-node",
                "--config", NODE_CONFIG,
                "--light-trace", LIGHT_TRACE,
                "--duration-s", "3600",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "n01_log.csv").exists()
        ledger = json.loads((out / "n01_ledger.json").read_text())
        assert ledger["uptime_fraction"] == 1.0
        assert ledger["energy_residual_relative"] <= 1e-6

    def test_log_csv_header(self, tmp_path):
        out = tmp_path / "out"
        main(
            [
                "simulate-node",
                "--config", NODE_CONFIG,
                "--light-trace", LIGHT_TRACE,
                "--duration-s", "60",
                "--out", str(out),
            ]
        )
        first = (out / "n01_log.csv").read_text().splitlines()[0]
        assert first == "time_s,node_id,voltage_v,lux,qos,action,packets"

    def test_decreasing_trace_cites_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time_s,value\n0.0,100\n10.0,100\n5.0,100\n")
        code = main(
            [
                "simulate-node",
                "--config", NODE_CONFIG,
                "--light-trace", str(bad),
                "--duration-s", "60",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "line 4" in capsys.readouterr().err

    def test_missing_config(self, tmp_path, capsys):
        code = main(
            [
                "simulate-node",
                "--config", str(tmp_path / "nope.json"),
                "--light-trace", LIGHT_TRACE,
                "--duration-s", "60",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_node_id_cannot_reach_outside_out(self, tmp_path, capsys):
        path = tmp_path / "node.json"
        path.write_text(json.dumps({"node_id": "../escaped"}))
        out = tmp_path / "runs" / "out"
        code = main(
            [
                "simulate-node",
                "--config", str(path),
                "--light-trace", LIGHT_TRACE,
                "--duration-s", "60",
                "--out", str(out),
            ]
        )
        assert code == 1
        assert f"{path}: node_id must not" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_nonpositive_duration(self, tmp_path, capsys):
        code = main(
            [
                "simulate-node",
                "--config", NODE_CONFIG,
                "--light-trace", LIGHT_TRACE,
                "--duration-s", "0",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "duration" in capsys.readouterr().err

    @pytest.mark.parametrize("duration", ["nan", "inf", "-inf"])
    def test_nonfinite_duration(self, tmp_path, capsys, duration):
        code = main(
            [
                "simulate-node",
                "--config", NODE_CONFIG,
                "--light-trace", LIGHT_TRACE,
                "--duration-s", duration,
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "--duration-s" in capsys.readouterr().err

    def test_sub_millisecond_table_exits_promptly(self, tmp_path, capsys):
        # With no action energy and no light, nothing kills the node; at
        # 1e-300 intervals the clock would stop once t + T == t.
        table = [[s, lo, hi, a * 1e-300, b * 1e-300, c * 1e-300]
                 for s, lo, hi, a, b, c in TestValidateConfig.TABLE]
        config = tmp_path / "node.json"
        config.write_text(json.dumps({"load": {"e_sense_tx_j": 0}, "table": table}))
        light = tmp_path / "dark.csv"
        light.write_text("time_s,value\n0,0\n")
        t0 = time.perf_counter()
        code = main(
            [
                "simulate-node",
                "--config", str(config),
                "--light-trace", str(light),
                "--duration-s", "100",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert time.perf_counter() - t0 < 1.0
        assert code == 1
        assert f"{config}.table: sense_interval_s: state 1 interval" in capsys.readouterr().err
        assert main(["validate-config", "--config", str(config)]) == 1

    @pytest.mark.parametrize(
        "node_id, voltage_v, rows",
        [
            ('a,"b', 3.0, [(0.0, 300.0), (600.0, 150.0)]),
            ("line\nbreak", 3.0, [(0.0, 300.0), (600.0, 0.0)]),
            ("dead", 1.0, [(0.0, 0.0)]),
        ],
    )
    def test_log_matches_in_memory_run(self, tmp_path, node_id, voltage_v, rows):
        # "dead" starts below v_cutoff in the dark: its log is the header alone.
        config = tmp_path / "node.json"
        config.write_text(json.dumps({"node_id": node_id, "supercap": {"voltage_v": voltage_v}}))
        light = tmp_path / "light.csv"
        _write_trace(light, rows)
        out = tmp_path / "out"
        argv = ["--light-trace", str(light), "--duration-s", "1800", "--out", str(out)]
        assert main(["simulate-node", "--config", str(config), *argv]) == 0
        memory = run_node(load_node_config(config), load_trace_csv(light), duration_s=1800.0)
        write_node_log_csv(memory, tmp_path / "expected.csv")
        written = (out / f"{node_id}_log.csv").read_bytes()
        assert written == (tmp_path / "expected.csv").read_bytes()
        assert (len(written.splitlines()) == 1) == (node_id == "dead")

    def test_rerun_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(
                [
                    "simulate-node",
                    "--config", NODE_CONFIG,
                    "--light-trace", LIGHT_TRACE,
                    "--duration-s", "1800",
                    "--out", str(out),
                ]
            )
            outs.append(
                (
                    (out / "n01_log.csv").read_bytes(),
                    (out / "n01_ledger.json").read_bytes(),
                )
            )
        assert outs[0] == outs[1]


class TestSimulateDeployment:
    def test_bundled_fifteen_node_config(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "simulate-deployment",
                "--config", DEPLOY_CONFIG,
                "--trace-dir", TRACE_DIR,
                "--duration-s", "600",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["nodes"]) == 15
        assert report["aggregate"]["packets_delivered"] > 0
        for i in range(1, 16):
            assert (out / f"n{i:02d}_log.csv").exists()

    def test_missing_node_trace_names_node(self, tmp_path, capsys):
        config = {
            "nodes": [{"node_id": "lonely", "supercap": {"voltage_v": 3.0}}]
        }
        path = tmp_path / "dep.json"
        path.write_text(json.dumps(config))
        code = main(
            [
                "simulate-deployment",
                "--config", str(path),
                "--trace-dir", str(tmp_path),
                "--duration-s", "60",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "lonely" in capsys.readouterr().err

    def test_node_id_cannot_reach_outside_the_directories(self, tmp_path, capsys):
        # An unchecked id would read <trace-dir>/../escaped_light.csv and
        # write escaped_log.csv next to --out.
        traces = tmp_path / "traces"
        traces.mkdir()
        (tmp_path / "escaped_light.csv").write_text("time_s,value\n0,300\n")
        path = tmp_path / "dep.json"
        path.write_text(json.dumps({"nodes": [{"node_id": "../escaped"}]}))
        out = tmp_path / "runs" / "out"
        code = main(
            [
                "simulate-deployment",
                "--config", str(path),
                "--trace-dir", str(traces),
                "--duration-s", "60",
                "--out", str(out),
            ]
        )
        assert code == 1
        assert f"{path}.nodes[0]: node_id must not" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_node_without_records_gets_header_only_log(self, tmp_path):
        # "a" starts below v_cutoff in the dark with no light sample inside
        # the run, so it logs no event; simulate-node would still write its log.
        traces = tmp_path / "traces"
        traces.mkdir()
        (traces / "a_light.csv").write_text("time_s,value\n0,0\n")
        (traces / "b_light.csv").write_text("time_s,value\n0,300\n")
        path = tmp_path / "dep.json"
        nodes = [{"node_id": "a", "supercap": {"voltage_v": 1.0}}, {"node_id": "b"}]
        path.write_text(json.dumps({"nodes": nodes}))
        out = tmp_path / "out"
        code = main(
            [
                "simulate-deployment",
                "--config", str(path),
                "--trace-dir", str(traces),
                "--duration-s", "600",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["a_log.csv", "b_log.csv", "report.json"]
        header = "time_s,node_id,voltage_v,lux,qos,action,packets\n"
        assert (out / "a_log.csv").read_text() == header
        assert len((out / "b_log.csv").read_text().splitlines()) > 1

    def test_nonpositive_duration(self, tmp_path, capsys):
        code = main(
            [
                "simulate-deployment",
                "--config", DEPLOY_CONFIG,
                "--trace-dir", TRACE_DIR,
                "--duration-s", "-5",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1

    def test_nan_duration(self, tmp_path, capsys):
        code = main(
            [
                "simulate-deployment",
                "--config", DEPLOY_CONFIG,
                "--trace-dir", TRACE_DIR,
                "--duration-s", "nan",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "--duration-s" in capsys.readouterr().err


# Node entry and peak lux of each node _mixed_fleet can write.
_FLEET = {
    "periodic": ({"node_id": "periodic", "supercap": {"voltage_v": 3.0}}, 500.0),
    "leaky": ({"node_id": "leaky", "supercap": {"voltage_v": 2.5, "leak_current_a": 1e-6}}, 300.0),
    "pir": ({"node_id": "pir", "mode": "event_detection", "supercap": {"voltage_v": 2.5}}, 300.0),
    "dim": (
        {
            "node_id": "dim",
            "position_m": [40.0, 0.0],
            "supercap": {"capacitance_f": 0.02, "voltage_v": 2.3},
        },
        40.0,
    ),
}


def _mixed_fleet(tmp_path, duration_s, node_ids=tuple(_FLEET)):
    """Deployment config and trace directory for ``node_ids``: minute-step
    light with a three-hour dark stretch, and 60 motion events for "pir"."""
    traces = tmp_path / "traces"
    traces.mkdir()
    for node_id in node_ids:
        peak = _FLEET[node_id][1]
        light = [
            (m * 60.0, 0.0 if 60 <= m < 240 else peak + (m * 37) % 50 * peak / 100)
            for m in range(duration_s // 60)
        ]
        _write_trace(traces / f"{node_id}_light.csv", light)
    _write_trace(traces / "pir_events.csv", [(k * 337.0 + 5.0, 1.0) for k in range(60)])
    config = tmp_path / "dep.json"
    config.write_text(json.dumps({"nodes": [_FLEET[node_id][0] for node_id in node_ids]}))
    return config, traces


def _deploy_argv(config, traces, duration_s, out):
    return [
        "simulate-deployment",
        "--config", str(config),
        "--trace-dir", str(traces),
        "--duration-s", str(float(duration_s)),
        "--out", str(out),
    ]


class TestDeploymentOutputBytes:
    """SHA-256 of every file ``simulate-deployment`` writes for a small fixed
    fleet: minute-step light with a three-hour dark stretch, a 1 µA leaky
    node, an event-detection node and a dim 0.02 F node that browns out in
    the dark and recovers.  Light samples fall on wakeup times, so the tie
    order between samples and wakeups shows in the logs.  A change to the
    event loop or the writers that moves one byte fails here."""

    DURATION_S = 6 * 3600
    EXPECTED = {
        "dim_log.csv": "d99c778f4e17ce7e0da32717887072750a8b797ff4be6a55184f1e7a36bf5e4f",
        "leaky_log.csv": "d1b8bd989c5ee16a24e183898e60f2d5b68ad3e3172ced935d4e78d6a6858c9c",
        "pir_log.csv": "2264dee76b140c4b9c56ce6f90beda440d15c4b07761d631022e974eaec54b32",
        "report.json": "316b1000391b190d3791efc5facf4e4eab330c42fa44eb78fc307b8b6b570af0",
    }

    def test_outputs_byte_identical(self, tmp_path):
        config, traces = _mixed_fleet(tmp_path, self.DURATION_S, ("leaky", "pir", "dim"))
        out = tmp_path / "out"
        code = main(_deploy_argv(config, traces, self.DURATION_S, out))
        assert code == 0
        ledgers = json.loads((out / "report.json").read_text())["ledgers"]
        assert (ledgers["dim"]["deaths"], ledgers["dim"]["recoveries"]) == (1, 1)
        assert ledgers["leaky"]["ledger"]["leak_j"] > 0.0
        assert ledgers["pir"]["events_detected"] == 60
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
        }
        assert digests == self.EXPECTED


class TestDeploymentProcesses:
    """simulate-deployment splits its nodes over one process per available
    CPU; the split must not show in any output byte, error or stdout line."""

    DURATION_S = 6 * 3600

    @staticmethod
    def _record_pullers(monkeypatch, tmp_path):
        # Each process that enters the loop pulling nodes appends its pid to
        # one file, also when the other processes leave it no node.
        pids = tmp_path / "pullers.txt"
        pull = luxmote.deployment._run_pulled

        def recording(*args):
            with pids.open("a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return pull(*args)

        monkeypatch.setattr(luxmote.deployment, "_run_pulled", recording)
        return pids

    def test_process_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        config, traces = _mixed_fleet(tmp_path, self.DURATION_S)
        pids = self._record_pullers(monkeypatch, tmp_path)
        outputs = []
        for cpus in ({0}, {0, 1}, {0, 1, 2}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            out = tmp_path / f"out{len(cpus)}"
            assert main(_deploy_argv(config, traces, self.DURATION_S, out)) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            assert len(set(pids.read_text().split())) == len(cpus)
            pids.unlink()
        names = ["dim_log.csv", "leaky_log.csv", "periodic_log.csv", "pir_log.csv", "report.json"]
        assert sorted(outputs[0]) == names
        assert outputs[0] == outputs[1] == outputs[2]

    def test_logs_written_by_workers_match_in_memory_run(self, tmp_path, monkeypatch):
        config_path, traces = _mixed_fleet(tmp_path, self.DURATION_S)
        config = load_deployment_config(config_path)
        light = {n.node_id: load_trace_csv(traces / f"{n.node_id}_light.csv") for n in config.nodes}
        events = {"pir": load_trace_csv(traces / "pir_events.csv")}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        kwargs = dict(duration_s=float(self.DURATION_S), detail=True)
        memory = run_deployment(config, light, events, **kwargs)
        written = run_deployment(config, light, events, log_dir=tmp_path / "logs", **kwargs)
        assert list(written.logs) == list(memory.logs)
        assert written.metrics == memory.metrics
        for node_id, log in written.logs.items():
            assert log.records == []
            assert memory.logs[node_id].records
            assert log == dataclasses.replace(memory.logs[node_id], records=[])
            write_node_log_csv(memory.logs[node_id], tmp_path / "expected.csv")
            expected = (tmp_path / "expected.csv").read_bytes()
            assert (tmp_path / "logs" / f"{node_id}_log.csv").read_bytes() == expected

    def test_logs_match_in_memory_runs(self, tmp_path, monkeypatch):
        # Ids that need csv quoting, and a node that starts dead in the dark
        # and logs the header alone, each written by whichever process pulls it.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        traces = tmp_path / "traces"
        traces.mkdir()
        nodes = [
            {"node_id": 'a,"b', "supercap": {"voltage_v": 3.0}},
            {"node_id": "line\nbreak", "mode": "advertising", "supercap": {"voltage_v": 2.5}},
            {"node_id": "dead", "supercap": {"voltage_v": 1.0}},
        ]
        lights = ([(0.0, 300.0), (900.0, 100.0)], [(0.0, 450.0), (900.0, 0.0)], [(0.0, 0.0)])
        for node, rows in zip(nodes, lights):
            _write_trace(traces / f"{node['node_id']}_light.csv", rows)
        config = tmp_path / "dep.json"
        config.write_text(json.dumps({"nodes": nodes}))
        out = tmp_path / "out"
        assert main(_deploy_argv(config, traces, 1800, out)) == 0
        for node in load_deployment_config(config).nodes:
            light = load_trace_csv(traces / f"{node.node_id}_light.csv")
            write_node_log_csv(run_node(node, light, duration_s=1800.0), tmp_path / "expected.csv")
            expected = (tmp_path / "expected.csv").read_bytes()
            assert (out / f"{node.node_id}_log.csv").read_bytes() == expected
        assert (out / "dead_log.csv").read_bytes().count(b"\n") == 1

    def test_each_node_runs_once_with_more_processes_than_cpus(self, tmp_path, monkeypatch):
        # A lost update of the shared node counter would run a node twice or
        # never; every run appends its node id to one file.
        cpus = len(os.sched_getaffinity(0)) + 2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        runs = tmp_path / "runs.txt"
        run_node = luxmote.deployment.run_node

        def recording(node, *args, **kwargs):
            with runs.open("a", encoding="utf-8") as fh:
                fh.write(f"{node.node_id}\n")
            return run_node(node, *args, **kwargs)

        monkeypatch.setattr(luxmote.deployment, "run_node", recording)
        ids = [f"n{i:02d}" for i in range(4 * cpus)]
        config = load_deployment_config(self._lit_fleet(tmp_path, ids)[0])
        light = {i: load_trace_csv(tmp_path / "traces" / f"{i}_light.csv") for i in ids}
        out = tmp_path / "out"
        t0 = time.perf_counter()
        report = run_deployment(config, light, duration_s=600.0, detail=True, log_dir=out)
        assert time.perf_counter() - t0 < 60.0
        assert sorted(runs.read_text().split()) == ids
        assert list(report.logs) == ids
        assert sorted(p.name for p in out.iterdir()) == [f"{i}_log.csv" for i in ids]

    def test_worker_that_dies_is_an_error(self, tmp_path, monkeypatch):
        # The worker dies on the first node it takes; this process waits for
        # that before running its own node, so the worker surely takes one.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        died = tmp_path / "died"
        caller = os.getpid()
        run_node = luxmote.deployment.run_node

        def dying(*args, **kwargs):
            if os.getpid() != caller:
                died.touch()
                os._exit(3)
            deadline = time.monotonic() + 30.0
            while not died.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            return run_node(*args, **kwargs)

        monkeypatch.setattr(luxmote.deployment, "run_node", dying)
        config = load_deployment_config(self._lit_fleet(tmp_path, ("a", "b", "c"))[0])
        light = {i: load_trace_csv(tmp_path / "traces" / f"{i}_light.csv") for i in ("a", "b", "c")}
        with pytest.raises(RuntimeError, match=r"^node worker \d+ ended with exit code 3$"):
            run_deployment(config, light, duration_s=600.0, detail=True, log_dir=tmp_path / "out")
        assert died.exists()

    def test_log_dir_needs_detail(self, tmp_path):
        with pytest.raises(ValueError, match="log_dir needs detail=True"):
            config = load_deployment_config(DEPLOY_CONFIG)
            run_deployment(config, {}, duration_s=60.0, log_dir=tmp_path)

    @staticmethod
    def _lit_fleet(tmp_path, node_ids):
        traces = tmp_path / "traces"
        traces.mkdir()
        for node_id in node_ids:
            (traces / f"{node_id}_light.csv").write_text("time_s,value\n0,300\n")
        config = tmp_path / "dep.json"
        config.write_text(json.dumps({"nodes": [{"node_id": i} for i in node_ids]}))
        return config, traces

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}])
    def test_first_failing_node_in_config_order(self, tmp_path, monkeypatch, capsys, cpus):
        # At 1e18 s the float spacing (128 s) exceeds both nodes' 20 s
        # shortest interval, so both fail; "zeta" comes first in the config.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        config, traces = self._lit_fleet(tmp_path, ("zeta", "alpha"))
        out = tmp_path / "out"
        assert main(_deploy_argv(config, traces, 1e18, out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: node zeta: shortest periodic_sensing interval")
        assert "alpha" not in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}])
    def test_first_failing_write_in_config_order(self, tmp_path, monkeypatch, capsys, cpus):
        # With two processes "zeta" is a worker's only node, while this
        # process fails on "alpha" after "ok": the worker's failure comes
        # first in config order.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        config, traces = self._lit_fleet(tmp_path, ("ok", "zeta", "alpha"))
        out = tmp_path / "out"
        for node_id in ("zeta", "alpha"):
            (out / f"{node_id}_log.csv").mkdir(parents=True)
        assert main(_deploy_argv(config, traces, 600, out)) == 1
        err = capsys.readouterr().err
        assert "zeta_log.csv" in err and "alpha" not in err
        assert (out / "ok_log.csv").is_file()
        assert not (out / "report.json").exists()

    def test_each_summary_line_printed_once(self, tmp_path):
        # Piped stdout is block-buffered (PYTHONUNBUFFERED is dropped for
        # that): a forked worker that flushed its copy of the parent's
        # buffer would print the explore line a second time.
        config, traces = _mixed_fleet(tmp_path, 3600)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"capacitances_f": [1.0], "qos_states": [7]}))
        script = (
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from luxmote.cli import main\n"
            "argv = sys.argv[1:]\n"
            "assert main(['explore', '--config', argv[0], '--out', argv[1]]) == 0\n"
            "assert main(argv[2:]) == 0\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        paths = [str(REPO / "src"), env.get("PYTHONPATH")]
        env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(grid), str(tmp_path / "frontier.csv"),
             *_deploy_argv(config, traces, 3600, tmp_path / "out")],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 2, lines
        assert lines[0].startswith("1 frontier rows written to")
        assert lines[1].startswith("4 nodes: ")


class TestExplore:
    def test_bundled_grid(self, tmp_path):
        out = tmp_path / "frontier.csv"
        code = main(["explore", "--config", SWEEP_CONFIG, "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 3 * 7  # header + rows
        assert lines[0].startswith("capacitance_f,qos_state,mode,min_lux,darkness_survival_s")

    def test_single_point_grid(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"capacitances_f": [1.0], "qos_states": [7]}))
        out = tmp_path / "one.csv"
        assert main(["explore", "--config", str(grid), "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 2

    def test_malformed_grid(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"qos_states": [0]}))
        code = main(["explore", "--config", str(grid), "--out", str(tmp_path / "o.csv")])
        assert code == 1

    def test_dead_panel_gives_infinite_threshold(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(
            json.dumps({"qos_states": [7], "node": {"harvester": {"i_ref_a": 0.0}}})
        )
        out = tmp_path / "dead.csv"
        assert main(["explore", "--config", str(grid), "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[3] == "inf"

    @pytest.mark.parametrize(
        "key, entries, i, message",
        [
            ("capacitances_f", [True, "2"], 0, "must be a number"),
            ("capacitances_f", [1.0, "2"], 1, "must be a number"),
            ("qos_states", [7.9, True], 0, "must be an integer"),
            ("qos_states", [7, True], 1, "must be an integer"),
            ("qos_states", [7.0], 0, "must be an integer"),
            ("lux_levels", ["10"], 0, "must be a number"),
            ("lux_levels", [10.0, None], 1, "must be a number"),
        ],
    )
    def test_grid_entry_type_names_entry(self, tmp_path, capsys, key, entries, i, message):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({key: entries}))
        out = tmp_path / "frontier.csv"
        assert main(["explore", "--config", str(path), "--out", str(out)]) == 1
        assert f"{path}.{key}[{i}]: {message}, got {entries[i]!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_byte_identical(self, tmp_path):
        blobs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main(["explore", "--config", SWEEP_CONFIG, "--out", str(out)])
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestValidateConfig:
    @pytest.mark.parametrize("path", [NODE_CONFIG, DEPLOY_CONFIG, SWEEP_CONFIG])
    def test_shipped_configs_valid(self, path):
        assert main(["validate-config", "--config", path]) == 0

    def test_overlapping_buckets_cite_rows(self, tmp_path, capsys):
        rows = [
            [7, 3.3, 3.6, 20.0, 10.0, 0.1],
            [6, 3.2, 3.4, 40.0, 20.0, 0.2],
            [5, 3.0, 3.2, 60.0, 30.0, 0.4],
            [4, 2.8, 3.0, 120.0, 60.0, 0.64],
            [3, 2.6, 2.8, 240.0, 120.0, 0.9],
            [2, 2.4, 2.6, 300.0, 300.0, 2.0],
            [1, 2.1, 2.4, 600.0, 600.0, 5.0],
        ]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"table": rows}))
        assert main(["validate-config", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "contiguous" in err

    def test_negative_capacitance(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"supercap": {"capacitance_f": -2.0}}))
        assert main(["validate-config", "--config", str(path)]) == 1
        assert "capacitance_f" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    @pytest.mark.parametrize(
        "template, field",
        [
            ('{"supercap": {"capacitance_f": %s}}', "supercap.capacitance_f"),
            ('{"lux_levels": [10.0, %s]}', "lux_levels[1]"),
        ],
    )
    def test_nonfinite_number_names_field(self, tmp_path, capsys, literal, template, field):
        path = tmp_path / "bad.json"
        path.write_text(template % literal)
        assert main(["validate-config", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}.{field}: must be a finite number" in err

    @pytest.mark.parametrize(
        "template, field",
        [
            ('{"v_on": %s}', "v_on"),
            ('{"qos_states": [7], "capacitances_f": [1.0, %s]}', "capacitances_f[1]"),
        ],
    )
    def test_integer_beyond_float_range_names_field(self, tmp_path, capsys, template, field):
        path = tmp_path / "bad.json"
        path.write_text(template % ("1" + "0" * 400))
        assert main(["validate-config", "--config", str(path)]) == 1
        assert f"{path}.{field}: must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["7.9", "7.0", "true", '"7"', "0", "8"])
    def test_pinned_qos_must_be_an_integer_in_range(self, tmp_path, capsys, value):
        path = tmp_path / "bad.json"
        path.write_text('{"pinned_qos": %s}' % value)
        assert main(["validate-config", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}.pinned_qos: must be null or an integer 1..7, got {json.loads(value)!r}" in err

    @pytest.mark.parametrize("value", ["null", "1", "7"])
    def test_pinned_qos_accepts_null_and_integers(self, tmp_path, value):
        path = tmp_path / "node.json"
        path.write_text('{"pinned_qos": %s}' % value)
        assert main(["validate-config", "--config", str(path)]) == 0

    @pytest.mark.parametrize("bad", ['"a"', "null", "true"])
    @pytest.mark.parametrize(
        "template, field",
        [
            ('{"position_m": [%s, 1]}', "position_m[0]"),
            ('{"v_on": %s}', "v_on"),
            ('{"nodes": [], "base_station_m": [0, %s]}', "base_station_m[1]"),
            ('{"nodes": [], "radio_range_m": %s}', "radio_range_m"),
            ('{"nodes": [{"position_m": [1, %s]}]}', "nodes[0].position_m[1]"),
        ],
    )
    def test_non_number_names_field(self, tmp_path, capsys, bad, template, field):
        path = tmp_path / "bad.json"
        path.write_text(template % bad)
        assert main(["validate-config", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}.{field}: must be a number, got {json.loads(bad)!r}" in err

    @pytest.mark.parametrize("bad", ["true", '"1"', "null", "[1]"])
    @pytest.mark.parametrize(
        "section, field",
        [
            ("supercap", "capacitance_f"),
            ("supercap", "leak_current_a"),
            ("harvester", "lux_ref"),
            ("converter", "eta_boost"),
            ("load", "i_standby_a"),
        ],
    )
    def test_model_field_must_be_a_number(self, tmp_path, capsys, bad, section, field):
        path = tmp_path / "bad.json"
        path.write_text('{"%s": {"%s": %s}}' % (section, field, bad))
        assert main(["validate-config", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}.{section}.{field}: must be a number, got {json.loads(bad)!r}" in err

    TABLE = [
        [7, 3.4, 3.6, 20.0, 10.0, 0.1],
        [6, 3.2, 3.4, 40.0, 20.0, 0.2],
        [5, 3.0, 3.2, 60.0, 30.0, 0.4],
        [4, 2.8, 3.0, 120.0, 60.0, 0.64],
        [3, 2.6, 2.8, 240.0, 120.0, 0.9],
        [2, 2.4, 2.6, 300.0, 300.0, 2.0],
        [1, 2.1, 2.4, 600.0, 600.0, 5.0],
    ]

    def test_table_accepts_integer_cells(self, tmp_path):
        rows = [[state, v_lo, v_hi, int(a), int(b), c] for state, v_lo, v_hi, a, b, c in self.TABLE]
        path = tmp_path / "node.json"
        path.write_text(json.dumps({"table": rows}))
        assert main(["validate-config", "--config", str(path)]) == 0

    @pytest.mark.parametrize(
        "i, j, bad, message",
        [
            (0, 0, "a", "must be an integer"),
            (0, 0, 7.0, "must be an integer"),
            (6, 0, True, "must be an integer"),
            (0, 1, "3.4", "must be a number"),
            (3, 2, None, "must be a number"),
            (6, 5, False, "must be a number"),
        ],
    )
    def test_table_cell_type_names_cell(self, tmp_path, capsys, i, j, bad, message):
        rows = [list(row) for row in self.TABLE]
        rows[i][j] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"table": rows}))
        assert main(["validate-config", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}.table[{i}][{j}]: {message}, got {bad!r}" in err

    def test_untyped_grid_lists_rejected(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(
            '{"capacitances_f": [true, "2"], "qos_states": [7.9, true], "lux_levels": ["10"]}'
        )
        assert main(["validate-config", "--config", str(path)]) == 1
        assert f"{path}.capacitances_f[0]: must be a number, got True" in capsys.readouterr().err

    def test_deeply_nested_json_names_file(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["validate-config", "--config", str(path)]) == 1
        assert f"{path}: invalid JSON: nested too deeply" in capsys.readouterr().err

    def test_colliding_lux_columns_rejected(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text('{"qos_states": [7], "lux_levels": [10.0, 10.000001]}')
        out = tmp_path / "frontier.csv"
        assert main(["explore", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{path}: lux_levels: 10.0 and 10.000001 both name the column" in err
        assert not out.exists()


class TestArgumentErrors:
    def test_unknown_command_maps_to_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_maps_to_one(self, capsys):
        assert main(["simulate-node"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
