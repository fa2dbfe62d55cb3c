"""Job configuration parsing, task execution, and failure paths."""

import csv
import json
import math
import os

import numpy as np
import pytest

import xpgraphs.cli as cli

from util import csv_writer_artifact

RING = {"edges": [{"id": "e0", "a": 1.0, "b": math.e, "from": "v", "to": "v"}],
        "directed": True}
EDGE = {"edges": [{"id": "e0", "a": 1.0, "b": math.e, "from": "u", "to": "v"}]}
STAR3 = {"edges": [{"id": f"e{i}", "a": 1.0, "b": math.e, "from": "c", "to": f"t{i}"}
                   for i in range(3)]}


def run_config(tmp_path, payload, name="job", threads=1):
    config_path = tmp_path / f"{name}.json"
    config_path.write_text(json.dumps(payload))
    out = tmp_path / name
    code = cli.main(["--config", str(config_path), "--out", str(out),
                     "--threads", str(threads)])
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

    @pytest.mark.parametrize("operator, graph, boundary, count", [
        ("bk", RING, {"kind": "ring_phase", "c": 0.25}, "cayley"),
        ("bk2", EDGE, {"kind": "robin", "rho": 0.7}, "elimination"),
        ("bk2", {"edges": [{"id": f"e{i}", "a": 1.0, "b": math.exp(1.0 + 0.1 * i),
                            "from": "c", "to": f"t{i}"} for i in range(3)]},
         {"kind": "kirchhoff"}, "elimination"),
        ("bk2", {"edges": [{"id": "e0", "a": 1.0, "b": math.e, "from": "u", "to": "v"},
                           {"id": "e1", "a": 1.0, "b": math.e ** 2, "from": "v", "to": "u"}]},
         {"kind": "kirchhoff"}, "dense"),
    ], ids=["ring-phase", "robin-edge", "kirchhoff-star", "kirchhoff-ring"])
    def test_spectrum_json_names_the_count(self, tmp_path, operator, graph, boundary, count):
        # a vertex-local pair on a forest is eliminated, a Kirchhoff cycle is not
        payload = {"task": "spectrum", "operator": operator, "graph": graph,
                   "boundary": boundary, "numeric": {"k_min": -5.0 if operator == "bk" else 0.0,
                                                     "k_max": 5.0}}
        code, out = run_config(tmp_path, payload)
        assert code == 0
        assert json.loads((out / "spectrum.json").read_text())["diagnostics"]["count"] == count

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

    def test_short_scan_threads_byte_identical(self, tmp_path):
        # --threads is accepted and ignored, also beyond the CPU count: every
        # artifact byte is the same
        payload = {"task": "spectrum", "operator": "bk2", "graph": STAR3,
                   "boundary": {"kind": "kirchhoff"},
                   "numeric": {"k_min": 0.0, "k_max": 20.0}}
        _, out1 = run_config(tmp_path, payload, "single", threads=1)
        for threads in (0, 2, 10 ** 6):
            code, out = run_config(tmp_path, payload, f"threads{threads}", threads=threads)
            assert code == 0
            for name in ("spectrum.csv", "spectrum.json"):
                assert (out1 / name).read_bytes() == (out / name).read_bytes()
        diagnostics = json.loads((out1 / "spectrum.json").read_text())["diagnostics"]
        assert "workers" not in diagnostics and "recheck_evals" not in diagnostics

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


    @pytest.mark.parametrize("kappa_max", [1e9, 1e10, 1e300])
    def test_large_kappa_max_reports_every_bound_state(self, tmp_path, kappa_max):
        # the bound-state search stops where none can lie, so kappa_max 4 and
        # 1e10 give the same two states
        payload = {"task": "spectrum", "operator": "bk2",
                   "graph": {"edges": [{"id": "e0", "a": 1.0, "b": math.exp(4.0)}]},
                   "boundary": {"kind": "robin", "rho": 1.0},
                   "numeric": {"k_min": 0.0, "k_max": 8.0, "kappa_max": 4.0}}
        _, small = run_config(tmp_path, payload, "small")
        payload["numeric"]["kappa_max"] = kappa_max
        code, large = run_config(tmp_path, payload, "large")
        assert code == 0
        assert (large / "spectrum.json").read_bytes() == (small / "spectrum.json").read_bytes()
        assert len(json.loads((large / "spectrum.json").read_text())["negative"]) == 2


class TestCsvWriter:
    HEADER = ("n", "k_n", "g_n")

    def assert_matches_csv_module(self, tmp_path, rows):
        csv_writer_artifact(tmp_path / "oracle.csv", self.HEADER, rows)
        (tmp_path / "joined.csv").write_text(cli._csv(self.HEADER, rows), newline="")
        assert (tmp_path / "joined.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_mixed_values(self, tmp_path):
        rows = [(1, 2.0332761039161795, 2), (np.int64(7), np.float64(-0.0), True),
                (3, math.nan, math.inf), (np.int32(-4), -math.inf, 1e-300),
                (0, np.float64(1e300), np.float64(math.nan)), (5, 0.1, -1)]
        self.assert_matches_csv_module(tmp_path, rows)
        lines = (tmp_path / "joined.csv").read_bytes().split(b"\r\n")
        assert lines[2] == b"7,-0,True"
        assert lines[3] == b"3,nan,inf"
        assert lines[-1] == b""

    def test_no_rows_gives_header_only(self, tmp_path):
        self.assert_matches_csv_module(tmp_path, [])
        assert (tmp_path / "joined.csv").read_bytes() == b"n,k_n,g_n\r\n"


class TestValidateTask:
    def test_valid_bk2(self, tmp_path):
        payload = {"task": "validate", "operator": "bk2", "graph": EDGE,
                   "boundary": {"kind": "neumann"}}
        code, out = run_config(tmp_path, payload)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["valid"] and report["k_independent"]

    def test_valid_bk(self, tmp_path):
        # a first-order document reports the unitarity defect of its S
        payload = {"task": "validate", "operator": "bk", "graph": RING,
                   "boundary": {"kind": "ring_phase", "c": 0.25}}
        code, out = run_config(tmp_path, payload)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["valid"] and report["operator"] == "bk"
        assert 0.0 <= report["s_unitarity_defect"] <= 1e-12
        assert "sigma_l" not in report and "k_independent" not in report

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

    def test_trace_check_short_edge(self, tmp_path):
        # ln(1.005) ~ 0.005: 3,849 steps reach the orbit cutoff
        graph = {"edges": [{"id": "e0", "a": 1.0, "b": 1.005, "from": "u", "to": "v"}]}
        payload = {"task": "trace-check", "operator": "bk2", "graph": graph,
                   "boundary": {"kind": "dirichlet"},
                   "numeric": {"t_values": [1.0]}}
        code, out = run_config(tmp_path, payload)
        assert code == 0
        (report,) = json.loads((out / "trace.json").read_text())["reports"]
        assert report["discrepancy"] <= 1e-8
        assert report["orbit_tail_bound"] <= 1e-10
        assert report["lhs_tail_bound"] <= 1e-10
        # floor(cutoff / ln 1.005) + 1 steps, cutoff = 4 sqrt(ln 1e10) at t = 1
        assert report["max_steps"] == 3849
        assert report["n_nodes"] > 0

    @pytest.mark.parametrize("operator, graph, boundary", [
        ("bk2", EDGE, {"kind": "dirichlet"}),
        ("bk", RING, {"kind": "ring_phase", "c": 0.3}),
    ])
    def test_trace_check_passes_tol(self, tmp_path, monkeypatch, operator, graph, boundary):
        # numeric.tol reaches the solve of every t; without it the default 1e-10.
        # At t <= 1e-5 the widest contour lines have exp(-eta w_min) below the
        # smallest float; they used to end in a division by zero (exit 4)
        seen = []
        find_spectrum = cli.spectra.find_spectrum

        def record(*args, **kwargs):
            seen.append(kwargs["tol"])
            return find_spectrum(*args, **kwargs)

        monkeypatch.setattr(cli.spectra, "find_spectrum", record)
        t_values = [0.5, 1.0, 1e-5, 1e-8]
        for numeric, tol in (({"tol": 1e-2}, 1e-2), ({}, 1e-10)):
            seen.clear()
            payload = {"task": "trace-check", "operator": operator, "graph": graph,
                       "boundary": boundary, "numeric": {"t_values": t_values, **numeric}}
            code, out = run_config(tmp_path, payload, name=f"tol{tol}")
            assert code == 0
            assert seen == [tol] * len(t_values)
        reports = json.loads((out / "trace.json").read_text())["reports"]
        assert [r["t"] for r in reports] == t_values
        assert all(r["discrepancy"] <= 1e-8 for r in reports)

    def test_trace_check_robin_without_negative_spectrum(self, tmp_path, monkeypatch):
        # the trace identity sums real eigenvalues only: no bound-state search
        def refuse(*args, **kwargs):
            raise AssertionError("trace-check searched the negative axis")

        monkeypatch.setattr(cli.spectra, "find_negative_eigenvalues", refuse)
        payload = {"task": "trace-check", "operator": "bk2",
                   "graph": {"edges": [{"id": "e0", "a": 1.0, "b": math.exp(4.0)}]},
                   "boundary": {"kind": "robin", "rho": 1.0},
                   "numeric": {"t_values": [1.0]}}
        code, out = run_config(tmp_path, payload)
        assert code == 0
        (report,) = json.loads((out / "trace.json").read_text())["reports"]
        assert report["discrepancy"] <= 1e-8

    @pytest.mark.parametrize("operator, graph, boundary", [
        ("bk2", EDGE, {"kind": "dirichlet"}),
        ("bk", RING, {"kind": "ring_phase", "c": 0.0}),
    ])
    def test_trace_check_orbit_cutoff(self, tmp_path, operator, graph, boundary):
        steps = []
        for numeric in ({}, {"orbit_cutoff": 5.5}):
            payload = {"task": "trace-check", "operator": operator, "graph": graph,
                       "boundary": boundary, "numeric": {"t_values": [1.0], **numeric}}
            code, out = run_config(tmp_path, payload, name=f"job{len(steps)}")
            assert code == 0
            (report,) = json.loads((out / "trace.json").read_text())["reports"]
            steps.append(report["max_steps"])
        # log length 1: floor(cutoff) + 1 steps, default cutoff 4 sqrt(ln 1e10)
        assert steps == [20, 6]

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

    @pytest.mark.parametrize("n_k", [0, 1, 2, 3])
    def test_halfline_demo_tiny_grids(self, tmp_path, n_k):
        payload = {"task": "halfline-demo", "numeric": {"k_grid_max": 12.5, "n_k": n_k}}
        code, out = run_config(tmp_path, payload)
        assert code == 0
        header, rows = read_csv(out / "amplitude.csv")
        ks = np.linspace(-12.5, 12.5, n_k)
        assert [float(r[0]) for r in rows] == ks.tolist()
        amps = [complex(float(r[1]), float(r[2])) for r in rows]
        assert amps == [cli.halfline.fermi_amplitude_closed(k) for k in ks.tolist()]
        report = json.loads((out / "halfline.json").read_text())
        assert report == {"k_grid_max": 12.5, "n_k": n_k, "dip_locations": [],
                          "normalization": abs(cli.halfline.fermi_amplitude_closed(0.0)) ** 2}

    @pytest.mark.parametrize("n_k", [0, 1, 5, 641])
    def test_halfline_demo_evaluates_the_grid_at_once(self, tmp_path, monkeypatch, n_k):
        calls = []
        amplitude = cli.halfline.fermi_amplitude_closed

        def counted(k):
            calls.append(np.shape(k))
            return amplitude(k)

        monkeypatch.setattr(cli.halfline, "fermi_amplitude_closed", counted)
        payload = {"task": "halfline-demo", "numeric": {"k_grid_max": 16.0, "n_k": n_k}}
        code, _ = run_config(tmp_path, payload)
        assert code == 0
        assert len(calls) <= 2

    def test_counting_compare(self, tmp_path):
        payload = {"task": "counting-compare", "operator": "bk", "graph": RING,
                   "boundary": {"kind": "ring_phase", "c": 0.0},
                   "numeric": {"k_min": -260.0, "k_max": 260.0, "tol": 1e-9}}
        code, out = run_config(tmp_path, payload)
        assert code == 0
        report = json.loads((out / "counting.json").read_text())
        assert report["ratio_monotone_decreasing"] is True

    def test_counting_compare_squared_operator_counts_positive_side(self, tmp_path):
        # with no numeric.side the squared operator counts 0 < k_n <= k
        payload = {"task": "counting-compare", "operator": "bk2", "graph": EDGE,
                   "boundary": {"kind": "dirichlet"},
                   "numeric": {"k_min": 0.0, "k_max": 100.0, "k_start": 20.0}}
        code, out = run_config(tmp_path, payload)
        assert code == 0
        report = json.loads((out / "counting.json").read_text())
        assert report["side"] == "positive" and report["k_start"] == 20.0
        header, rows = read_csv(out / "counting.csv")
        # Dirichlet levels on log length 1 are n pi: N(k) = floor(k / pi)
        assert all(int(n) == math.floor(float(k) / math.pi + 1e-9) for k, n, *_ in rows)


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


#: one small document per task that writes more than one artifact
MULTI_ARTIFACT = {
    "spectrum": {"task": "spectrum", "operator": "bk2", "graph": EDGE,
                 "boundary": {"kind": "dirichlet"}, "numeric": {"k_min": 0.0, "k_max": 10.0}},
    "weyl": {"task": "weyl", "operator": "bk2", "graph": EDGE,
             "boundary": {"kind": "dirichlet"}, "numeric": {"k_min": 0.0, "k_max": 150.0}},
    "trace-check": {"task": "trace-check", "operator": "bk2", "graph": EDGE,
                    "boundary": {"kind": "dirichlet"}, "numeric": {"t_values": [0.5]}},
    "heat-trace": {"task": "heat-trace", "graph": EDGE, "numeric": {"t_values": [0.1]}},
    "halfline-demo": {"task": "halfline-demo", "numeric": {"k_grid_max": 16.0, "n_k": 41}},
    "counting-compare": {"task": "counting-compare", "operator": "bk", "graph": RING,
                         "boundary": {"kind": "ring_phase", "c": 0.0},
                         "numeric": {"k_min": -60.0, "k_max": 60.0}},
}


class TestArtifactsAfterTheTask:
    @pytest.mark.parametrize("task", sorted(MULTI_ARTIFACT))
    def test_failure_at_the_last_artifact_leaves_error_json_alone(
            self, tmp_path, monkeypatch, task):
        # every artifact text is built before the first file is written
        assert set(MULTI_ARTIFACT) == set(cli._TASKS) - {"validate"}
        built, fail_at = [], [None]
        for name in ("_csv", "_json"):
            def text(*args, build=getattr(cli, name)):
                built.append(build)
                if len(built) == fail_at[0]:
                    raise OSError("the last artifact failed")
                return build(*args)
            monkeypatch.setattr(cli, name, text)
        code, out = run_config(tmp_path, MULTI_ARTIFACT[task], "whole")
        assert code == 0
        assert len(os.listdir(out)) == len(built) >= 2
        fail_at[0], built[:] = len(built), []
        code, out = run_config(tmp_path, MULTI_ARTIFACT[task], "failed")
        assert code == cli.EXIT_COMPUTE == 4
        assert os.listdir(out) == ["error.json"]

    def test_star_at_large_t_leaves_error_json_alone(self, tmp_path):
        # the exact orbit count of the 3-star at t = 1e6 passes the
        # 4,300-digit limit of int to str when trace.json is built; the
        # trace.csv built before it is no longer written
        payload = {"task": "trace-check", "operator": "bk2", "graph": STAR3,
                   "boundary": {"kind": "kirchhoff"}, "numeric": {"t_values": [1e6]}}
        code, out = run_config(tmp_path, payload)
        assert code == cli.EXIT_COMPUTE == 4
        assert os.listdir(out) == ["error.json"]


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

    @pytest.mark.parametrize("task, numeric", [
        ("trace-check", {"t_values": [1.0], "orbit_cutoff": True, "tol": True}),
        ("trace-check", {"t_values": [True]}),
        ("spectrum", {"k_min": 0.0, "k_max": True}),
        ("spectrum", {"k_min": False, "k_max": 5.0}),
        ("spectrum", {"k_min": 0.0, "k_max": 5.0, "kappa_max": True}),
        ("halfline-demo", {"k_grid_max": True}),
        ("halfline-demo", {"n_k": True}),
        ("halfline-demo", {"k_grid_max": 10.0, "n_k": False}),
        ("counting-compare", {"k_min": -20.0, "k_max": 20.0, "k_start": True}),
    ])
    def test_boolean_numeric_field(self, tmp_path, task, numeric):
        # JSON booleans are Python ints; no numeric field may take one as 1 or 0
        payload = {"task": task, "numeric": numeric}
        if task == "counting-compare":
            payload.update(operator="bk", graph=RING,
                           boundary={"kind": "ring_phase", "c": 0.0})
        elif task != "halfline-demo":
            payload.update(operator="bk2", graph=EDGE, boundary={"kind": "dirichlet"})
        code, err = self.run_main(tmp_path, payload)
        assert code == cli.EXIT_VALIDATION == 3
        assert err["code"] == "VALIDATION_ERROR"

    @pytest.mark.parametrize("task, numeric", [
        ("halfline-demo", {"n_k": "12"}),
        ("halfline-demo", {"n_k": 7.9}),
        ("counting-compare", {"k_min": -20.0, "k_max": 20.0, "k_start": "7"}),
    ])
    def test_string_or_fractional_numeric_field(self, tmp_path, task, numeric):
        # a number in a string, or a fractional count, is not converted
        payload = {"task": task, "numeric": numeric}
        if task == "counting-compare":
            payload.update(operator="bk", graph=RING,
                           boundary={"kind": "ring_phase", "c": 0.0})
        code, err = self.run_main(tmp_path, payload)
        assert code == cli.EXIT_VALIDATION == 3
        assert err["code"] == "VALIDATION_ERROR"

    def test_whole_float_count_is_a_count(self, tmp_path):
        out = tmp_path / "out"
        config = cli.parse(json.dumps({"task": "halfline-demo",
                                       "numeric": {"k_grid_max": 5.0, "n_k": 12.0}}))
        assert cli.run(config, out) == 0
        assert json.loads((out / "halfline.json").read_text())["n_k"] == 12

    def test_non_numeric_k_start(self, tmp_path):
        payload = {"task": "counting-compare", "operator": "bk", "graph": RING,
                   "boundary": {"kind": "ring_phase", "c": 0.0},
                   "numeric": {"k_min": -20.0, "k_max": 20.0, "k_start": "abc"}}
        code, err = self.run_main(tmp_path, payload)
        assert code == cli.EXIT_VALIDATION
        assert err["code"] == "VALIDATION_ERROR"

    @pytest.mark.parametrize("cutoff", [0, -1.0])
    def test_non_positive_orbit_cutoff(self, tmp_path, cutoff):
        payload = {"task": "trace-check", "operator": "bk2", "graph": EDGE,
                   "boundary": {"kind": "dirichlet"},
                   "numeric": {"t_values": [1.0], "orbit_cutoff": cutoff}}
        code, err = self.run_main(tmp_path, payload)
        assert code == cli.EXIT_VALIDATION
        assert err["code"] == "VALIDATION_ERROR"

    @pytest.mark.parametrize("numeric", [
        {"k_min": 0.0, "k_max": 1e5, "tol": 1e-300},
        {"k_min": 0.0, "k_max": 1.0, "tol": 1e-16},
        {"k_min": -2e4, "k_max": 0.0, "tol": 1e-12},
    ])
    def test_tol_below_float_spacing(self, tmp_path, monkeypatch, numeric):
        # 4 eps max(1, |k_min|, |k_max|) is the smallest tol; refused before any solve
        monkeypatch.setattr(cli.spectra, "find_spectrum", self.refuse)
        payload = {"task": "spectrum", "operator": "bk2", "graph": EDGE,
                   "boundary": {"kind": "dirichlet"}, "numeric": numeric}
        code, err = self.run_main(tmp_path, payload)
        assert code == cli.EXIT_VALIDATION == 3
        assert err["code"] == "VALIDATION_ERROR"
        assert "tol must be at least" in err["message"]

    @pytest.mark.parametrize("tol, code", [(1e-12, cli.EXIT_OK), (1e-17, cli.EXIT_VALIDATION)])
    def test_tol_floor_without_k_range(self, tmp_path, tol, code):
        # with no k range in the document the floor is 4 eps
        payload = {"task": "trace-check", "operator": "bk2", "graph": EDGE,
                   "boundary": {"kind": "dirichlet"}, "numeric": {"t_values": [1.0], "tol": tol}}
        config_path = tmp_path / "job.json"
        config_path.write_text(json.dumps(payload))
        assert cli.main(["--config", str(config_path), "--out", str(tmp_path / "out")]) == code

    @pytest.mark.parametrize("task, operator, side", [
        ("weyl", "bk", "both"),
        ("weyl", "bk2", "two_sided"),
        ("counting-compare", "bk", "negative"),
        ("counting-compare", "bk2", 1),
    ])
    def test_bad_side_before_any_solve(self, tmp_path, monkeypatch, task, operator, side):
        monkeypatch.setattr(cli.spectra, "find_spectrum", self.refuse)
        graph, boundary = ((RING, {"kind": "ring_phase", "c": 0.0}) if operator == "bk"
                           else (EDGE, {"kind": "dirichlet"}))
        payload = {"task": task, "operator": operator, "graph": graph, "boundary": boundary,
                   "numeric": {"k_min": 0.0, "k_max": 60.0, "side": side}}
        code, err = self.run_main(tmp_path, payload)
        assert code == cli.EXIT_VALIDATION == 3
        assert err["code"] == "VALIDATION_ERROR"

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("a solve ran")

    @pytest.mark.parametrize("operator, graph, boundary", [
        ("bk2", {"edges": [1]}, {"kind": "dirichlet"}),
        ("bk2", {"edges": "abc"}, {"kind": "dirichlet"}),
        ("bk2", EDGE, {"kind": "robin", "rho": "abc"}),
        ("bk2", EDGE, {"kind": "robin", "rho": [1, "x"]}),
        ("bk2", EDGE, {"kind": "robin", "rho": [1.0, 2.0, 3.0]}),
        ("bk2", EDGE, {"kind": "robin", "rho": [[1.0, 2.0]]}),
        ("bk2", EDGE, {"kind": "robin", "rho": 1e400}),
        ("bk2", EDGE, {"kind": "robin", "rho": True}),
        ("bk", RING, {"kind": "ring_phase", "c": "0.2"}),
        ("bk", RING, {"kind": "ring_phase", "c": None}),
        ("bk2", EDGE, {"kind": "matrices", "A": [[[1, 0], [0, 0]], [[0, 0], [1, "x"]]],
                       "B": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}),
        ("bk2", EDGE, {"kind": "matrices", "A": [[[1, 0], [0, 0]], [[0, 0], [1e400, 0]]],
                       "B": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}),
        ("bk2", EDGE, {"kind": "matrices", "A": [[[1, 0], [0]], [[0, 0], [1, 0]]],
                       "B": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}),
        ("bk2", {"edges": [dict(EDGE["edges"][0], a="1.0")]}, {"kind": "dirichlet"}),
        ("bk2", {"edges": [dict(EDGE["edges"][0], b="2.5")]}, {"kind": "dirichlet"}),
        ("bk2", {"edges": [dict(EDGE["edges"][0], a=True)]}, {"kind": "dirichlet"}),
        ("bk2", dict(EDGE, directed="no"), {"kind": "dirichlet"}),
        ("bk2", dict(EDGE, directed=0), {"kind": "dirichlet"}),
    ], ids=["edges-int", "edges-string", "rho-string", "rho-mixed", "rho-length", "rho-nested",
            "rho-inf", "rho-bool", "c-string", "c-none", "matrices-string", "matrices-inf",
            "matrices-ragged", "a-string", "b-string", "a-bool", "directed-string",
            "directed-int"])
    def test_malformed_graph_or_boundary_entry(self, tmp_path, operator, graph, boundary):
        payload = {"task": "spectrum", "operator": operator, "graph": graph,
                   "boundary": boundary, "numeric": {"k_min": 0.0, "k_max": 5.0}}
        code, err = self.run_main(tmp_path, payload)
        assert code == cli.EXIT_VALIDATION == 3
        assert err["code"] == "VALIDATION_ERROR"

    @pytest.mark.parametrize("key", ["id", "from", "to"])
    @pytest.mark.parametrize("value", [None, 3, 2.5, ["c"], {"name": "c"}, True],
                             ids=["null", "int", "float", "list", "object", "bool"])
    def test_edge_name_that_is_not_a_string(self, tmp_path, key, value):
        # two edges "to": null once both ended at a vertex named "None": a
        # 2-cycle, solved at exit 0
        edges = [dict(edge, **{key: value}) for edge in STAR3["edges"][:2]]
        payload = {"task": "spectrum", "operator": "bk2", "graph": {"edges": edges},
                   "boundary": {"kind": "kirchhoff"}, "numeric": {"k_min": 0.0, "k_max": 5.0}}
        code, err = self.run_main(tmp_path, payload)
        assert code == cli.EXIT_VALIDATION == 3
        assert err["code"] == "VALIDATION_ERROR"
        assert f"graph.edges[0].{key}" in err["message"]
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["error.json"]

    def test_absent_edge_names_take_their_defaults(self):
        config = cli.JobConfig(task="validate", operator="bk2",
                               graph={"edges": [{"a": 1.0, "b": math.e}, {"a": 1.0, "b": 2.0}]},
                               boundary={"kind": "dirichlet"}, numeric={})
        graph = cli.build_graph(config)
        assert [(e.id, e.start, e.end) for e in graph.edges] == [("e0", "v0", "v0"),
                                                                  ("e1", "v1", "v1")]

    @pytest.mark.parametrize("t_values", [[1e400], [1.0, 1e400]])
    def test_non_finite_heat_trace_time(self, tmp_path, t_values):
        # 1e400 parses as infinity; the heat trace used to divide by zero (exit 4)
        payload = {"task": "heat-trace", "operator": "bk2", "graph": EDGE,
                   "boundary": {"kind": "dirichlet"}, "numeric": {"t_values": t_values}}
        code, err = self.run_main(tmp_path, payload)
        assert code == cli.EXIT_VALIDATION == 3
        assert err["code"] == "VALIDATION_ERROR"

    @pytest.mark.parametrize("task, numeric, boundary", [
        ("spectrum", {"k_min": 0.0, "k_max": 5.0, "tol_": 1e-3}, None),
        ("spectrum", {"k_min": 0.0, "k_max": 5.0, "kappa_max": math.nan}, None),
        ("spectrum", {"k_min": 0.0, "k_max": 5.0, "kappa_max": math.inf}, None),
        ("spectrum", {"k_min": 0.0, "k_max": 5.0, "kappa_max": 0}, None),
        ("spectrum", {"k_min": 0.0, "k_max": 5.0, "tol": math.inf}, None),
        ("halfline-demo", {"k_grid_max": math.nan}, None),
        ("counting-compare", {"k_min": 0.0, "k_max": 60.0, "k_start": math.nan}, None),
        ("halfline-demo", {"n_k": -5}, None),
        ("halfline-demo", {"n_k": -1}, None),
        ("halfline-demo", {"n_k": 1e12}, None),
        ("heat-trace", {}, [1]),
    ], ids=["unknown-key", "kappa-max-nan", "kappa-max-inf", "kappa-max-zero", "tol-inf",
            "k-grid-max-nan", "k-start-nan", "n-k-negative", "n-k-minus-one", "n-k-huge",
            "boundary-list"])
    def test_refused_at_parse(self, tmp_path, task, numeric, boundary):
        # each of these used to run: exit 0 (a key or a value silently ignored)
        # or exit 4 (RANGE_EXCEEDED, ValueError, MemoryError, AttributeError)
        payload = {"task": task, "numeric": numeric}
        if task != "halfline-demo":
            payload.update(operator="bk2", graph=EDGE, boundary=boundary or {"kind": "dirichlet"})
        with pytest.raises(cli.ValidationError):
            cli.parse(json.dumps(payload))
        code, err = self.run_main(tmp_path, payload)
        assert code == cli.EXIT_VALIDATION == 3
        assert err["code"] == "VALIDATION_ERROR"

    @pytest.mark.parametrize("task, numeric", [
        ("trace-check", {"t_values": [1e12]}),
        ("trace-check", {"t_values": [1e20]}),
        ("trace-check", {"t_values": [1e300]}),
        ("trace-check", {"orbit_cutoff": 1e9}),
        ("heat-trace", {"t_values": [1e-20]}),
        ("heat-trace", {"t_values": [1e20]}),
        ("heat-trace", {"t_values": [1e300]}),
    ])
    def test_oversized_trace_job_is_refused(self, tmp_path, monkeypatch, task, numeric):
        # refused before the orbit count, the contour or the heat-trace sums
        # allocate; these used to run for minutes or fail with MemoryError
        monkeypatch.setattr(cli.traces, "_orbit_count", self.refuse)
        payload = {"task": task, "operator": "bk2", "graph": EDGE,
                   "boundary": {"kind": "dirichlet"}, "numeric": numeric}
        code, err = self.run_main(tmp_path, payload)
        assert code == cli.EXIT_COMPUTE == 4
        assert err["code"] == "RANGE_EXCEEDED"

    @pytest.mark.parametrize("task, graph, boundary, t, steps", [
        ("trace-check", EDGE, "dirichlet", 1e8, 191942),
        ("heat-trace", EDGE, "dirichlet", 1e-14, None),
        ("trace-check", STAR3, "kirchhoff", 3e3, 1052),
        ("trace-check", STAR3, "kirchhoff", 1e4, 1920),
    ], ids=["trace-check-100000000.0", "heat-trace-1e-14",
            "trace-check-star3-3000.0", "trace-check-star3-10000.0"])
    def test_largest_admitted_trace_jobs(self, tmp_path, task, graph, boundary, t, steps):
        # N = 191,942 orbit steps at t = 1e8, and 2.8e7 heat-trace terms at
        # 1e-14.  The star's pattern has rows of three entries, so its orbit
        # count passes 2^(N + 1) > 1.8e308; the overflow test of the count
        # raised OverflowError there (exit 4)
        payload = {"task": task, "operator": "bk2", "graph": graph,
                   "boundary": {"kind": boundary}, "numeric": {"t_values": [t]}}
        code, out = run_config(tmp_path, payload)
        assert code == 0
        if task == "trace-check":
            (report,) = json.loads((out / "trace.json").read_text())["reports"]
            assert report["max_steps"] == steps
            assert report["discrepancy"] <= 1e-8

    def test_halfline_beyond_amplitude_range(self, tmp_path):
        code, err = self.run_main(tmp_path, {"task": "halfline-demo",
                                             "numeric": {"k_grid_max": 500.0, "n_k": 11}})
        assert code == cli.EXIT_COMPUTE == 4
        assert err["code"] == "RANGE_EXCEEDED"

    def test_foreign_exception_is_compute_error(self, tmp_path, monkeypatch):
        # a plain ValueError from a callee ends in error.json and exit 4, not
        # in a traceback out of main (a negative n_k, which used to reach
        # numpy, is now refused at parse)
        def reject(ks):
            raise ValueError("rejected by the callee")

        monkeypatch.setattr(cli.halfline, "fermi_amplitude_closed", reject)
        code, err = self.run_main(tmp_path, {"task": "halfline-demo",
                                             "numeric": {"k_grid_max": 10.0, "n_k": 11}})
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

    @pytest.mark.parametrize("threads, cpus", [(1000000, 2), (2, 2), (1, 1), (0, 1)])
    def test_threads_clamped_to_cpu_count(self, tmp_path, monkeypatch, threads, cpus):
        # --threads is no longer clamped to the CPU count but ignored: whatever
        # the pair, run receives only the parsed config and the output directory
        # (cli.run is replaced, so no solve runs)
        seen = []

        def fake_run(config, out_dir):
            seen.append((config, out_dir))
            return 0

        monkeypatch.setattr(cli, "run", fake_run)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        payload = {"task": "validate", "operator": "bk2", "graph": EDGE,
                   "boundary": {"kind": "dirichlet"}}
        config_path = tmp_path / "job.json"
        config_path.write_text(json.dumps(payload))
        code = cli.main(["--config", str(config_path), "--out", str(tmp_path / "out"),
                         "--threads", str(threads)])
        assert code == 0
        assert seen == [(cli.parse(json.dumps(payload)), tmp_path / "out")]
