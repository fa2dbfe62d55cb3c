"""The comparison of ``tools/fingerprint.py``, the same-bits check of a git
rev against the working tree: a root moved by one ulp is reported with both
``float.hex`` values, a changed artifact byte and exit code are reported,
and equal dumps report nothing."""

import copy
import importlib.util
import json
import math
from pathlib import Path

import xpgraphs as xg

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fingerprint.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ring_dump(fp) -> dict:
    """A dump of one seed: a first-order ring spectrum, through the JSON
    form that the passes write, and one CLI job."""
    g = xg.MetricGraph.from_intervals([(1.0, math.e)], directed=True)
    sys_ = xg.SecularSystem.bk(xg.s_matrix_bk(xg.standard_bc("ring_phase", g, c=0.3)), g)
    spectrum = xg.find_spectrum(sys_, (-20.0, 20.0), 1e-10)
    cli = {"exit": 0, "artifacts": {"spectrum.csv": "index,k,g\r\n1,2.5,1\r\n"}}
    return json.loads(json.dumps(
        {"1": {"spectrum-scan": {"ring": fp.encode(spectrum), "doc": cli}}}))


def test_equal_dumps_report_nothing():
    fp = load_tool()
    base = ring_dump(fp)
    assert fp.differences(base, copy.deepcopy(base)) == []
    assert fp.differences(base, ring_dump(fp)) == []


def test_a_root_one_ulp_off_is_reported_with_both_hex_values():
    fp = load_tool()
    base = ring_dump(fp)
    head = copy.deepcopy(base)
    roots = head["1"]["spectrum-scan"]["ring"]["eigenvalues"]
    k = roots[3][0]
    roots[3][0] = math.nextafter(k, math.inf)
    lines = fp.differences(base, head)
    assert len(lines) == 1
    assert "ring/eigenvalues[3][0]" in lines[0]
    assert k.hex() in lines[0] and math.nextafter(k, math.inf).hex() in lines[0]


def test_artifact_bytes_and_exit_codes_are_compared():
    fp = load_tool()
    base = ring_dump(fp)
    head = copy.deepcopy(base)
    doc = head["1"]["spectrum-scan"]["doc"]
    doc["artifacts"]["spectrum.csv"] = doc["artifacts"]["spectrum.csv"].replace("2.5", "2.4")
    doc["exit"] = 3
    lines = fp.differences(base, head)
    assert len(lines) == 1 and "doc/artifacts/spectrum.csv at byte 15" in lines[0]
    doc["artifacts"] = copy.deepcopy(base["1"]["spectrum-scan"]["doc"]["artifacts"])
    assert fp.differences(base, head) == ["seed 1 spectrum-scan/doc/exit: 0 != 3"]
    del doc["artifacts"]
    assert "doc/artifacts: {" in fp.differences(base, head)[0]
    assert fp.parse_seeds("1-3,7") == [1, 2, 3, 7]
