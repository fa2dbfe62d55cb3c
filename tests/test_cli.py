"""Job configuration parsing, task execution, and failure paths."""

import csv
import json
import math

import numpy as np
import pytest

import xpgraphs.cli as cli

RING = {"edges": [{"id": "e0", "a": 1.0, "b": math.e, "from": "v", "to": "v"}],
        "directed": True}
EDGE = {"edges": [{"id": "e0", "a": 1.0, "b": math.e, "from": "u", "to": "v"}]}


def run_config(tmp_path, payload, name="job", threads=1):
    out = tmp_path / name
    code = cli.run(cli.parse(json.dumps(payload)), out, workers=threads)
    return code, out


def read_csv(path):
    with path.open() as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestConfigRoundTrip:
    def test_parse_serialize_identity(self):
        config = cli.JobConfig(
            task="spectrum", operator="bk", graph=RING,
            boundary={"kind": "ring_phase", "c": 0.25},
            numeric={"k_min": -10.0, "k_max": 10.0, "tol": 1e-11})
        assert cli.parse(cli.serialize(config)) == config

    def test_parse_rejects_non_json(self):
        with pytest.raises(cli.ParseError):
            cli.parse("not json {")

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(cli.ParseError):
            cli.parse(json.dumps({"task": "spectrum", "bogus": 1}))

    def test_validation_errors(self):
        bad = {"task": "spectrum", "operator": "bk", "graph": RING,
               "boundary": {"kind": "ring_phase", "c": 0.0},
               "numeric": {"k_min": 5.0, "k_max": 1.0}}
        with pytest.raises(cli.ValidationError):
            cli.parse(json.dumps(bad))


class TestSpectrumTask:
    def test_ring_spectrum_csv(self, tmp_path):
        payload = {"task": "spectrum", "operator": "bk", "graph": RING,
                   "boundary": {"kind": "ring_phase", "c": 0.0},
                   "numeric": {"k_min": -10.0, "k_max": 10.0, "tol": 1e-12}}
        code, out = run_config(tmp_path, payload)
        assert code == 0
        header, rows = read_csv(out / "spectrum.csv")
        assert header == ["n", "k_n", "g_n"]
        ks = [float(r[1]) for r in rows]
        assert np.allclose(ks, [-2 * math.pi, 0.0, 2 * math.pi], atol=1e-9)

    def test_idempotent_outputs(self, tmp_path):
        payload = {"task": "spectrum", "operator": "bk2", "graph": EDGE,
                   "boundary": {"kind": "dirichlet"},
                   "numeric": {"k_min": 0.0, "k_max": 12.0}}
        _, out1 = run_config(tmp_path, payload, "one")
        _, out2 = run_config(tmp_path, payload, "two")
        for name in ("spectrum.csv", "spectrum.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_threads_match_single(self, tmp_path):
        payload = {"task": "spectrum", "operator": "bk2", "graph": EDGE,
                   "boundary": {"kind": "dirichlet"},
                   "numeric": {"k_min": 0.0, "k_max": 40.0}}
        _, out1 = run_config(tmp_path, payload, "single", threads=1)
        _, out4 = run_config(tmp_path, payload, "multi", threads=4)
        _, rows1 = read_csv(out1 / "spectrum.csv")
        _, rows4 = read_csv(out4 / "spectrum.csv")
        assert len(rows1) == len(rows4)
        for r1, r4 in zip(rows1, rows4):
            assert abs(float(r1[1]) - float(r4[1])) <= 1e-9

    def test_negative_eigenvalues_reported(self, tmp_path):
        payload = {"task": "spectrum", "operator": "bk2",
                   "graph": {"edges": [{"id": "e0", "a": 1.0, "b": math.exp(4.0)}]},
                   "boundary": {"kind": "robin", "rho": 1.0},
                   "numeric": {"k_min": 0.0, "k_max": 8.0, "kappa_max": 4.0}}
        code, out = run_config(tmp_path, payload)
        assert code == 0
        report = json.loads((out / "spectrum.json").read_text())
        assert len(report["negative"]) == 2
        assert report["zero_mode"] == {"g0": 0, "N": 1}


class TestValidateTask:
    def test_valid_bk2(self, tmp_path):
        payload = {"task": "validate", "operator": "bk2", "graph": EDGE,
                   "boundary": {"kind": "neumann"}}
        code, out = run_config(tmp_path, payload)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["valid"] and report["k_independent"]

    def test_hermiticity_violation_exit_code(self, tmp_path):
        eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        i_eye = [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]
        payload = {"task": "validate", "operator": "bk2", "graph": EDGE,
                   "boundary": {"kind": "matrices", "A": eye, "B": i_eye}}
        code, out = run_config(tmp_path, payload)
        assert code == cli.EXIT_VALIDATION == 3
        err = json.loads((out / "error.json").read_text())
        assert err["error"]["code"] == "HERMITICITY_VIOLATION"

    def test_raw_matrices_accepted(self, tmp_path):
        dim = 2
        a = [[[1.0 if i == j else 0.0, 0.0] for j in range(dim)] for i in range(dim)]
        b = [[[0.0, 0.0] for _ in range(dim)] for _ in range(dim)]
        payload = {"task": "validate", "operator": "bk2", "graph": EDGE,
                   "boundary": {"kind": "matrices", "A": a, "B": b}}
        code, _ = run_config(tmp_path, payload)
        assert code == 0


class TestOtherTasks:
    def test_heat_trace(self, tmp_path):
        payload = {"task": "heat-trace", "graph": EDGE,
                   "numeric": {"t_values": [0.01, 0.1, 1.0, 10.0]}}
        code, out = run_config(tmp_path, payload)
        assert code == 0
        report = json.loads((out / "heat_trace.json").read_text())
        assert report["max_abs_diff"] <= 1e-10

    def test_trace_check_dirichlet(self, tmp_path):
        payload = {"task": "trace-check", "operator": "bk2", "graph": EDGE,
                   "boundary": {"kind": "dirichlet"},
                   "numeric": {"t_values": [0.5]}}
        code, out = run_config(tmp_path, payload)
        assert code == 0
        _, rows = read_csv(out / "trace.csv")
        assert all(float(r[3]) <= 1e-9 for r in rows)

    def test_weyl(self, tmp_path):
        payload = {"task": "weyl", "operator": "bk2", "graph": EDGE,
                   "boundary": {"kind": "dirichlet"},
                   "numeric": {"k_min": 0.0, "k_max": 150.0}}
        code, out = run_config(tmp_path, payload)
        assert code == 0
        report = json.loads((out / "weyl.json").read_text())
        assert report["rel_error_vs_weyl"] < 0.02

    def test_halfline_demo(self, tmp_path):
        payload = {"task": "halfline-demo",
                   "numeric": {"k_grid_max": 16.0, "n_k": 641}}
        code, out = run_config(tmp_path, payload)
        assert code == 0
        header, rows = read_csv(out / "amplitude.csv")
        assert header == ["k", "re_a", "im_a", "abs_a_sq"]
        assert len(rows) == 641
        report = json.loads((out / "halfline.json").read_text())
        # the first zeta-zero ordinate appears as an absorption dip
        assert any(abs(abs(d) - 14.134725) < 0.05 for d in report["dip_locations"])

    def test_counting_compare(self, tmp_path):
        payload = {"task": "counting-compare", "operator": "bk", "graph": RING,
                   "boundary": {"kind": "ring_phase", "c": 0.0},
                   "numeric": {"k_min": -260.0, "k_max": 260.0, "tol": 1e-9}}
        code, out = run_config(tmp_path, payload)
        assert code == 0
        report = json.loads((out / "counting.json").read_text())
        assert report["ratio_monotone_decreasing"] is True


MALFORMED = [
    "",                                           # empty
    "{",                                          # truncated JSON
    "[]",                                         # not an object
    json.dumps({}),                               # missing task
    json.dumps({"task": "fly"}),                  # unknown task
    json.dumps({"task": "spectrum"}),             # missing graph
    json.dumps({"task": "spectrum", "graph": RING}),  # missing boundary
    json.dumps({"task": "spectrum", "operator": "qq", "graph": RING,
                "boundary": {"kind": "ring_phase", "c": 0.0}}),
    json.dumps({"task": "spectrum", "operator": "bk", "graph": RING,
                "boundary": {"kind": "ring_phase", "c": 0.0}}),  # no k range
    json.dumps({"task": "spectrum", "operator": "bk", "graph": RING,
                "boundary": {"kind": "ring_phase", "c": 0.0},
                "numeric": {"k_min": 0.0, "k_max": 1.0, "tol": -1.0}}),
    json.dumps({"task": "spectrum", "operator": "bk", "graph": RING,
                "boundary": {"kind": "ring_phase", "c": 2.0},
                "numeric": {"k_min": 0.0, "k_max": 1.0}}),  # c out of range
    json.dumps({"task": "spectrum", "operator": "bk2", "graph": RING,
                "boundary": {"kind": "ring_phase", "c": 0.0},
                "numeric": {"k_min": 0.0, "k_max": 1.0}}),  # kind/operator clash
    json.dumps({"task": "spectrum", "operator": "bk2",
                "graph": {"edges": []},
                "boundary": {"kind": "dirichlet"},
                "numeric": {"k_min": 0.0, "k_max": 1.0}}),
    json.dumps({"task": "spectrum", "operator": "bk2",
                "graph": {"edges": [{"id": "e", "a": 2.0, "b": 1.0}]},
                "boundary": {"kind": "dirichlet"},
                "numeric": {"k_min": 0.0, "k_max": 1.0}}),  # a > b
    json.dumps({"task": "spectrum", "operator": "bk2",
                "graph": {"edges": [{"id": "e", "a": "x", "b": 2.0}]},
                "boundary": {"kind": "dirichlet"},
                "numeric": {"k_min": 0.0, "k_max": 1.0}}),
    json.dumps({"task": "spectrum", "operator": "bk2", "graph": EDGE,
                "boundary": {"kind": "robin"},
                "numeric": {"k_min": 0.0, "k_max": 1.0}}),  # robin without rho
    json.dumps({"task": "spectrum", "operator": "bk2", "graph": EDGE,
                "boundary": {"kind": "matrices", "A": [[1]], "B": [[0]]},
                "numeric": {"k_min": 0.0, "k_max": 1.0}}),  # wrong matrix shape
    json.dumps({"task": "heat-trace", "graph": EDGE,
                "numeric": {"t_values": []}}),
    json.dumps({"task": "heat-trace", "graph": EDGE,
                "numeric": {"t_values": [-1.0]}}),
    json.dumps({"task": "heat-trace", "graph": EDGE,
                "boundary": {"kind": "neumann"}}),  # heat trace needs Dirichlet
]


class TestMalformedCorpus:
    @pytest.mark.parametrize("idx", range(len(MALFORMED)))
    def test_structured_failure(self, tmp_path, idx):
        text = MALFORMED[idx]
        out = tmp_path / f"bad{idx}"
        config_path = tmp_path / f"bad{idx}.json"
        config_path.write_text(text)
        code = cli.main(["--config", str(config_path), "--out", str(out)])
        assert code in (cli.EXIT_PARSE, cli.EXIT_VALIDATION, cli.EXIT_COMPUTE)
        err = json.loads((out / "error.json").read_text())
        assert set(err["error"].keys()) == {"code", "message"}

    def test_corpus_size(self):
        assert len(MALFORMED) == 20


class TestErrorContract:
    def run_main(self, tmp_path, payload):
        config_path = tmp_path / "job.json"
        config_path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        code = cli.main(["--config", str(config_path), "--out", str(out)])
        err = json.loads((out / "error.json").read_text())["error"]
        return code, err

    @pytest.mark.parametrize("numeric", [
        {"k_grid_max": 10.0, "n_k": "abc"},
        {"k_grid_max": "wide", "n_k": 11},
    ])
    def test_non_numeric_halfline_field(self, tmp_path, numeric):
        code, err = self.run_main(tmp_path, {"task": "halfline-demo", "numeric": numeric})
        assert code == cli.EXIT_VALIDATION == 3
        assert err["code"] == "VALIDATION_ERROR"

    def test_non_numeric_k_start(self, tmp_path):
        payload = {"task": "counting-compare", "operator": "bk", "graph": RING,
                   "boundary": {"kind": "ring_phase", "c": 0.0},
                   "numeric": {"k_min": -20.0, "k_max": 20.0, "k_start": "abc"}}
        code, err = self.run_main(tmp_path, payload)
        assert code == cli.EXIT_VALIDATION
        assert err["code"] == "VALIDATION_ERROR"

    def test_foreign_exception_is_compute_error(self, tmp_path):
        # numpy rejects a negative sample count with a plain ValueError
        code, err = self.run_main(tmp_path, {"task": "halfline-demo",
                                             "numeric": {"k_grid_max": 10.0, "n_k": -1}})
        assert code == cli.EXIT_COMPUTE == 4
        assert err["code"] == "COMPUTE_ERROR"
        assert err["message"].startswith("ValueError: ")


class TestMainEntry:
    def test_full_cli_invocation(self, tmp_path):
        payload = {"task": "spectrum", "operator": "bk2", "graph": EDGE,
                   "boundary": {"kind": "dirichlet"},
                   "numeric": {"k_min": 0.0, "k_max": 10.0}}
        config_path = tmp_path / "job.json"
        config_path.write_text(json.dumps(payload))
        out = tmp_path / "artifacts"
        code = cli.main(["--config", str(config_path), "--out", str(out),
                         "--threads", "2"])
        assert code == 0
        assert (out / "spectrum.csv").exists()

    def test_missing_config_file(self, tmp_path):
        out = tmp_path / "nope"
        code = cli.main(["--config", str(tmp_path / "absent.json"), "--out", str(out)])
        assert code == cli.EXIT_PARSE == 2

    @pytest.mark.parametrize("threads, expected", [(1000000, 2), (2, 2), (1, 1), (0, 1)])
    def test_threads_clamped_to_cpu_count(self, tmp_path, monkeypatch, threads, expected):
        # cli.run is replaced, so no thread pool is ever started
        seen = []

        def fake_run(config, out_dir, workers=1):
            seen.append(workers)
            return 0

        monkeypatch.setattr(cli, "run", fake_run)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        config_path = tmp_path / "job.json"
        config_path.write_text(json.dumps({"task": "validate", "operator": "bk2", "graph": EDGE,
                                           "boundary": {"kind": "dirichlet"}}))
        code = cli.main(["--config", str(config_path), "--out", str(tmp_path / "out"),
                         "--threads", str(threads)])
        assert code == 0
        assert seen == [expected]
