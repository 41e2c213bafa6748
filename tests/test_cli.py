import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hatvol
from hatvol import acceptance
from hatvol import cli
from hatvol import geometry
from hatvol import invariants
from hatvol import models
from hatvol import monomials
from hatvol.cli import build_parser, main
from hatvol.errors import InvariantViolationError
from hatvol.models import MonomialPair


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def an2(workdir):
    return write(workdir / "an2.json", {"type": "monomial_pair", "n": 2, "coeffs": ["0", "0"]})


@pytest.fixture
def x2y3(workdir):
    return write(workdir / "x2y3.json", {"n": 2, "gens": [[2, 0], [0, 3]]})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def result_of(out):
    return json.loads(out)["result"]


class TestCommands:
    def test_hvol_pair(self, capsys, an2):
        code, out, err = run(capsys, "hvol", "--model", an2)
        assert code == 0 and err == ""
        result = result_of(out)
        assert result["value"] == "4" and result["exact"] is True

    def test_hvol_toric(self, capsys, workdir):
        model = write(workdir / "a1.json", {"type": "toric", "rays": [[0, 1], [2, -1]]})
        code, out, _ = run(capsys, "hvol", "--model", model)
        result = result_of(out)
        assert code == 0 and result["value"] == "2" and result["exact"] is True
        assert json.loads(out)["warnings"]

    def test_lct(self, capsys, an2, x2y3):
        code, out, _ = run(capsys, "lct", "--model", an2, "--ideal", x2y3)
        assert code == 0
        assert result_of(out)["value"] == "5/6"

    def test_mult_and_colength(self, capsys, x2y3):
        code, out, _ = run(capsys, "mult", "--ideal", x2y3)
        assert code == 0 and result_of(out)["value"] == "6"
        code, out, _ = run(capsys, "colength", "--ideal", x2y3)
        assert code == 0 and result_of(out)["value"] == 6

    def test_hatl_exact(self, capsys, an2):
        code, out, _ = run(capsys, "hatl", "--model", an2, "--c", "1/8", "--k", "4", "--mode", "exact")
        assert code == 0
        result = result_of(out)
        assert result["value"] == "5"
        assert result["argmin"] == [[4, 0], [3, 1], [2, 2], [1, 3], [0, 4]]

    def test_scan_json_and_csv(self, capsys, an2):
        code, out, _ = run(capsys, "scan", "--model", an2, "--c", "1/8", "--k-min", "2", "--k-max", "5")
        assert code == 0
        result = result_of(out)
        assert [row["value"] for row in result["rows"]] == ["6", "16/3", "5", "24/5"]
        code, out, _ = run(
            capsys, "scan", "--model", an2, "--c", "1/8", "--k-min", "2", "--k-max", "4", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,value_num,value_den,argmin_gens,mode"
        assert lines[1].startswith("2,6,1,")

    def test_scan_default_constant(self, capsys, an2):
        code, out, _ = run(capsys, "scan", "--model", an2, "--k-max", "4")
        assert code == 0
        assert result_of(out)["c"] == "1/8"

    def test_hatl_stats(self, capsys, an2):
        # at k = 6 the subtree bound skips 117 of the 157 inner nodes it
        # visits, so only two of the 417 ideals in range reach the argmin,
        # and the leaf bound rules out one of them
        code, out, _ = run(capsys, "hatl", "--model", an2, "--c", "1/8", "--k", "6")
        assert code == 0
        report = json.loads(out)
        assert report["stats"] == {
            "ideals_pruned": 1,
            "ideals_seen": 2,
            "lct_evaluations": 1,
            "nodes_visited": 157,
            "subtrees_pruned": 117,
        }
        assert report["result"]["value"] == "14/3"

    def test_scan_stats_sum_the_rows(self, capsys, an2):
        total = dict.fromkeys(["ideals_pruned", "ideals_seen", "lct_evaluations", "nodes_visited", "subtrees_pruned"], 0)
        for k in (2, 3, 4, 5):
            _, out, _ = run(capsys, "hatl", "--model", an2, "--c", "1/8", "--k", str(k))
            for key, count in json.loads(out)["stats"].items():
                total[key] += count
        code, out, _ = run(capsys, "scan", "--model", an2, "--k-max", "5")
        assert code == 0
        assert json.loads(out)["stats"] == total

    def test_lattice(self, capsys, workdir):
        body = write(workdir / "square.json", {"vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]})
        code, out, _ = run(capsys, "lattice", "--body", body, "--k-range", "5,10")
        assert code == 0
        result = result_of(out)
        assert result["rows"][-1] == {"k": 10, "error": "21/100"}
        assert result["volume"] == "1"

    def test_cone(self, capsys, workdir):
        model = write(workdir / "p2.json", {"type": "fano_cone", "polytope": [[0, 0], [3, 0], [0, 3]], "r": 1})
        code, out, _ = run(capsys, "cone", "--model", model)
        result = result_of(out)
        assert code == 0
        assert result["degree_bound"] == "9"
        assert result["m_covector"] == ["1", "1", "1"]

    def test_qbound(self, capsys, workdir):
        model = write(workdir / "p2.json", {"type": "fano_cone", "polytope": [[0, 0], [3, 0], [0, 3]], "r": 1})
        code, out, _ = run(capsys, "qbound", "--model", model, "--q", "3")
        result = result_of(out)
        assert code == 0 and result["value"] == "27" and result["holds"] is True

    def test_qbound_reads_the_anticanonical_polytope(self, capsys, workdir):
        # P^2 polarized by 2(-K): the polytope is twice the anticanonical
        # one, whose degree is 9 and whose barycenter is its interior point
        model = write(workdir / "p2.json", {"type": "fano_cone", "polytope": [[0, 0], [6, 0], [0, 6]], "r": 2})
        code, out, err = run(capsys, "qbound", "--model", model, "--q", "3")
        assert code == 0 and err == ""
        result = result_of(out)
        assert (result["value"], result["limit"], result["oracle"], result["asserted"]) == ("27", "27", True, True)

    def test_hvol_without_scipy(self, workdir):
        # the toric optimizer is pure Python; nothing on this path imports scipy
        model = write(workdir / "p2.json", {"type": "fano_cone", "polytope": [[0, 0], [3, 0], [0, 3]], "r": 1})
        script = (
            "import sys\n"
            "from hatvol.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print('scipy' in sys.modules, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hatvol.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", script, "hvol", "--model", model],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        assert result_of(proc.stdout)["value"] == "9"
        assert proc.stderr.strip() == "False"

    def test_cli_import_loads_neither_dataclasses_nor_inspect(self):
        # -S keeps site .pth files out, so only hatvol's own imports count
        src = os.path.dirname(os.path.dirname(hatvol.__file__))
        script = (
            "import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "import hatvol.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
        )
        proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and proc.stdout.strip() == "[]"

    def test_cli_import_loads_no_verify_only_module(self):
        # acceptance, simplex and random serve `verify` alone; the import
        # that setup_s and cold_cli_s time must not load them
        src = os.path.dirname(os.path.dirname(hatvol.__file__))
        script = (
            "import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "import hatvol.cli\n"
            "print(sorted({'hatvol.acceptance', 'hatvol.simplex', 'random'} & set(sys.modules)))\n"
        )
        proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and proc.stdout.strip() == "[]"

    def test_out_file(self, capsys, an2, workdir):
        target = workdir / "report.json"
        code, out, _ = run(capsys, "hvol", "--model", an2, "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["result"]["value"] == "4"

    @pytest.mark.parametrize("target", ["directory", "missing/report.json"])
    def test_unwritable_out_rejected(self, capsys, x2y3, workdir, target):
        (workdir / "directory").mkdir()
        code, out, err = run(capsys, "mult", "--ideal", x2y3, "--out", str(workdir / target))
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "unwritable-file"


class TestErrorPaths:
    def test_missing_file(self, capsys, an2):
        code, out, err = run(capsys, "lct", "--model", an2, "--ideal", "nope.json")
        assert code == 2
        assert json.loads(err)["error"] == "missing-file"

    @pytest.mark.parametrize("flag", ["--model", "--ideal", "--body"])
    @pytest.mark.parametrize("bad", ["directory", "non-utf8"])
    def test_unreadable_input_rejected(self, capsys, workdir, an2, x2y3, flag, bad):
        path = workdir / "bad"
        if bad == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"n": 2, "gens": [[1, 0]]}\xff')
        argv = {
            "--model": ["hvol", "--model", str(path)],
            "--ideal": ["mult", "--ideal", str(path)],
            "--body": ["lattice", "--body", str(path), "--k-range", "1:2"],
        }[flag]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "unreadable-file"

    def test_exact_scan_without_an_ideal_is_an_invariant_violation(self, capsys, monkeypatch, an2):
        # m^k is in range and ties are never skipped, so an exact scan that
        # evaluates no ideal can only come from unsound pruning: exit 4
        monkeypatch.setattr(invariants, "_lct_floor", lambda costs, gens: (10**9, 1))
        model = MonomialPair(2, (0, 0))
        with pytest.raises(InvariantViolationError) as caught:
            invariants.normalized_colength(model, "1/8", 4)
        assert caught.value.code == "empty-exact-scan"
        code, out, err = run(capsys, "hatl", "--model", an2, "--c", "1/8", "--k", "4")
        assert code == 4 and out == ""
        assert json.loads(err)["error"] == "empty-exact-scan"

    def test_hull_volume_off_by_a_thousandth_is_an_invariant_violation(self, capsys, monkeypatch, workdir):
        # the exact upgrade holds the integer certificate to the volume of
        # the truncated dual body, hulled on its own: scale that body by
        # 1 + 1/1000 and the P2 cone must fail the cross-check, not report 9
        exact = models.truncated_dual_body

        def scaled(model, xi):
            body = exact(model, xi)
            return geometry.convex_hull([tuple(x * Fraction(1001, 1000) for x in v) for v in body.vertices])

        monkeypatch.setattr(models, "truncated_dual_body", scaled)
        p2 = {"type": "fano_cone", "polytope": [[-1, -1], [2, -1], [-1, 2]], "r": 1}
        with pytest.raises(InvariantViolationError) as caught:
            invariants.hvol(models.load_model(p2))
        assert caught.value.code == "volume-path-disagreement"
        code, out, err = run(capsys, "hvol", "--model", write(workdir / "p2.json", p2))
        assert code == 4 and out == ""
        assert json.loads(err)["error"] == "volume-path-disagreement"

    def test_budget_exceeded(self, capsys, an2):
        code, _, err = run(capsys, "hatl", "--model", an2, "--c", "1/8", "--k", "20")
        assert code == 3
        assert json.loads(err)["error"] == "enumeration-budget-exceeded"

    @pytest.mark.parametrize("n,mode", [(2, "upper"), (3, "exact"), (3, "upper"), (5, "upper")])
    def test_large_k_refused_promptly(self, capsys, workdir, n, mode):
        model = write(workdir / "space.json", {"type": "monomial_pair", "n": n, "coeffs": ["0"] * n})
        started = time.perf_counter()
        code, out, err = run(capsys, "hatl", "--model", model, "--c", "1/1000", "--k", "1000", "--mode", mode)
        assert time.perf_counter() - started < 10
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == "enumeration-budget-exceeded"

    @pytest.mark.parametrize("n,mode,k_max,budget", [
        (2, "exact", "13", 12),
        (2, "exact", "10000000", 12),
        (3, "upper", "6", 5),
        (3, "exact", "10000000", 5),
    ])
    def test_over_budget_scan_refused_before_its_first_row(self, capsys, workdir, n, mode, k_max, budget):
        # the rows up to the budget would take seconds; the refusal names
        # the first level past it, as a row-by-row scan would
        model = write(workdir / "space.json", {"type": "monomial_pair", "n": n, "coeffs": ["0"] * n})
        started = time.perf_counter()
        code, out, err = run(capsys, "scan", "--model", model, "--k-max", k_max, "--mode", mode)
        assert time.perf_counter() - started < 1
        assert code == 3 and out == ""
        error = json.loads(err)
        assert error["error"] == "enumeration-budget-exceeded"
        assert (error["n"], error["k"], error["budget"]) == (n, budget + 1, budget)

    def test_huge_exponent_colength_refused_promptly(self, capsys, workdir):
        ideal = write(workdir / "huge.json", {"n": 2, "gens": [[100000000, 0], [0, 1]]})
        started = time.perf_counter()
        code, out, err = run(capsys, "colength", "--ideal", ideal)
        assert time.perf_counter() - started < 1
        assert code == 3 and out == ""
        error = json.loads(err)
        assert error["error"] == "enumeration-budget-exceeded" and error["budget"] == monomials.MAX_BOX_CELLS

    def test_non_convergence(self, capsys, workdir, monkeypatch):
        # the blow-up cone has an irrational minimizer, so only a settled
        # Newton iteration can report it
        monkeypatch.setattr(invariants, "NEWTON_MAX_STEPS", 1)
        model = write(workdir / "blowup.json", {"type": "fano_cone", "polytope": [[-1, -1], [2, -1], [0, 1], [-1, 1]]})
        code, out, err = run(capsys, "hvol", "--model", model)
        assert code == 3 and out == ""
        error = json.loads(err)
        assert error["error"] == "non-converged" and error["best"] > (46 + 13 * 13**0.5) / 12

    def test_infeasible_c(self, capsys, an2):
        code, _, err = run(capsys, "hatl", "--model", an2, "--c", "9", "--k", "4")
        assert code == 2
        assert json.loads(err)["error"] == "infeasible-c"

    @pytest.mark.parametrize(
        "command,doc",
        [
            ("colength", {"n": 2, "gens": [[2.9, 0], [0, 3.7]]}),
            ("mult", {"n": 2, "gens": [[2, 0], [0, True]]}),
            ("colength", {"n": 2, "gens": [[2, 0], [0, "7/2"]]}),
            ("colength", {"n": 2.0, "gens": [[2, 0], [0, 3]]}),
            ("colength", {"n": 2, "gens": [[3, 0], [0, "q"]]}),
            ("hvol", {"type": "toric", "rays": [[1.9, 0], [0, 1]]}),
            ("hvol", {"type": "monomial_pair", "n": 2.7, "coeffs": ["0", "0"]}),
            ("hvol", {"type": "monomial_pair", "n": "abc", "coeffs": ["0", "0"]}),
            ("hvol", {"type": "fano_cone", "polytope": [[0, 0], [3, 0], [0, 3]], "r": 1.5}),
        ],
    )
    def test_non_integer_rejected(self, capsys, workdir, command, doc):
        path = write(workdir / "input.json", doc)
        flag = "--ideal" if command in ("colength", "mult") else "--model"
        code, out, err = run(capsys, command, flag, path)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "invalid-integer"

    @pytest.mark.parametrize(
        "doc,error",
        [
            ({"type": "monomial_pair", "n": 2}, "invalid-model-json"),
            ({"type": "monomial_pair", "n": 2, "coeffs": "00"}, "invalid-model-json"),
            ({"type": "toric"}, "invalid-model-json"),
            ({"type": "toric", "rays": [1, 2]}, "invalid-model-json"),
            ({"type": "fano_cone", "r": 1}, "invalid-model-json"),
            ({"type": "fano_cone", "polytope": {"0": [0, 0]}}, "invalid-model-json"),
            ({"type": "fano_cone", "polytope": [[0, 0], [3, 0], [0, 3.0]]}, "invalid-integer"),
            ({"type": "fano_cone", "polytope": [[0, 0], [3, 0], [True, 3]]}, "invalid-integer"),
            ({"type": "monomial_pair", "n": 2, "coeffs": [False, "0"]}, "invalid-rational"),
        ],
    )
    def test_malformed_model_rejected(self, capsys, workdir, doc, error):
        path = write(workdir / "model.json", doc)
        code, out, err = run(capsys, "hvol", "--model", path)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == error

    @pytest.mark.parametrize(
        "argv,doc,error",
        [
            (["lattice", "--k-range", "1:2", "--body"], {"vertices": "03"}, "invalid-body-json"),
            (["lattice", "--k-range", "1:2", "--body"], {"vertices": ["00", "20", "02"]}, "invalid-body-json"),
            (["colength", "--ideal"], {"n": 1, "gens": ["3"]}, "invalid-ideal-json"),
        ],
    )
    def test_string_where_a_point_is_expected_rejected(self, capsys, workdir, argv, doc, error):
        # iterated one character at a time, "03" would be the segment [0, 3]
        path = write(workdir / "input.json", doc)
        code, out, err = run(capsys, *argv, path)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == error

    @pytest.mark.parametrize("k_range", ["2:x", "2:10:0"])
    def test_bad_k_range(self, capsys, workdir, k_range):
        body = write(workdir / "square.json", {"vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]})
        code, out, err = run(capsys, "lattice", "--body", body, "--k-range", k_range)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "invalid-range"

    @pytest.mark.parametrize("k_range", ["1:10000000000", "1:" + "9" * 40, "1:1001", ",".join(["5"] * 1001)])
    def test_k_range_over_the_dilation_cap_refused(self, capsys, workdir, k_range):
        # refused from the range's length alone, before any list is built
        body = write(workdir / "square.json", {"vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]})
        code, out, err = run(capsys, "lattice", "--body", body, "--k-range", k_range)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "invalid-range"

    def test_dilated_box_over_the_cell_cap_refused(self, capsys, workdir):
        body = write(workdir / "square.json", {"vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]})
        code, out, err = run(capsys, "lattice", "--body", body, "--k-range", "5,10000000")
        assert code == 3 and out == ""
        assert json.loads(err)["cells"] == 10000001

    @pytest.mark.parametrize("k_range", ["1:1000", "1:700"])
    def test_probe_over_the_summed_cell_cap_refused(self, capsys, workdir, k_range):
        # at 1:700 every box is under the cap (701^2 cells) but their sum
        # is not; both are refused before the first count
        cube = [[str(x), str(y), str(z)] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        body = write(workdir / "cube.json", {"vertices": cube})
        started = time.perf_counter()
        code, out, err = run(capsys, "lattice", "--body", body, "--k-range", k_range)
        assert time.perf_counter() - started < 1
        assert code == 3 and out == ""
        error = json.loads(err)
        assert error["budget"] == geometry.MAX_LATTICE_CELLS < error["cells"]
        assert "counting probe" in error["message"]

    @pytest.mark.parametrize("model", [
        {"type": "fano_cone", "polytope": [[0], [1]]},
        {"type": "toric", "rays": [[0, 1], [2, -1]]},
    ])
    def test_scan_needs_a_monomial_pair(self, capsys, workdir, model):
        # without --c the default constant reads the pair's dimension
        code, out, err = run(capsys, "scan", "--model", write(workdir / "m.json", model), "--k-max", "3")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "invalid-model"

    def test_cone_over_a_non_fano_polytope_refused(self, capsys, workdir):
        # no point of this polytope lies at equal lattice distance from
        # all its facets, so the cone over it is not Q-Gorenstein
        polytope = [[0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 2], [1, 0, 0]]
        model = write(workdir / "m.json", {"type": "fano_cone", "polytope": polytope})
        for command in ("hvol", "cone"):
            code, out, err = run(capsys, command, "--model", model)
            assert code == 2 and out == ""
            assert json.loads(err)["error"] == "not-q-gorenstein"

    @pytest.mark.parametrize("rays,message", [
        ([[1, 0]], "toric singularities need a pointed full-dimensional cone"),
        ([[1, 0], [-1, 0], [0, 1]], "toric singularities need a pointed full-dimensional cone"),
        ([[1, 0], [0, 0]], "zero vector is not a ray"),
    ], ids=["lower-dimensional", "not-pointed", "zero-ray"])
    def test_invalid_cone_refused(self, capsys, workdir, rays, message):
        model = write(workdir / "m.json", {"type": "toric", "rays": rays})
        code, out, err = run(capsys, "hvol", "--model", model)
        assert code == 2 and out == ""
        assert err == json.dumps({"error": "invalid-cone", "message": message}) + "\n"

    @pytest.mark.parametrize("epsilon", [("--epsilon", "-1"), ("--epsilon=-1/20",), ("--epsilon", "-1/20")])
    def test_negative_epsilon_refused(self, capsys, workdir, epsilon):
        body = write(workdir / "square.json", {"vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]})
        code, out, err = run(capsys, "lattice", "--body", body, "--k-range", "5,10", *epsilon)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and "Traceback" not in err
        assert json.loads(lines[0])["error"] == "invalid-epsilon"

    @pytest.mark.parametrize("argv", [
        ("hvol", "--mode", "upper", "--model", "an2.json"),
        ("mult", "--id", "x2y3.json"),
    ])
    def test_abbreviated_flag_refused(self, capsys, an2, x2y3, argv):
        # a prefix of a flag is not that flag: --mode is not read as --model
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "invalid-arguments"

    def test_qbound_interior_box_over_the_cell_cap_refused(self, capsys, workdir):
        polytope = [[-1, -1], [3000, -1], [-1, 3000]]
        model = write(workdir / "big.json", {"type": "fano_cone", "polytope": polytope})
        started = time.perf_counter()
        code, out, err = run(capsys, "qbound", "--model", model, "--q", "1")
        assert time.perf_counter() - started < 1
        assert code == 3 and out == ""
        error = json.loads(err)
        assert error["error"] == "enumeration-budget-exceeded"
        assert (error["cells"], error["budget"]) == (3002**2, geometry.MAX_LATTICE_CELLS)

    def test_five_dimensional_toric_hvol_refused(self, capsys, workdir, monkeypatch):
        # hvol refuses a cone above geometry.MAX_DIM before the Newton
        # iteration, whether or not the exact upgrade would fire; cone and
        # qbound on a 4-d Fano polytope, whose cone is 5-d, still answer
        def unbuilt(model):
            raise AssertionError("the toric objective was built")

        monkeypatch.setattr(invariants, "_ToricObjective", unbuilt)
        corners = [[0, 0, 0, 0], [2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 0, 0], [0, 0, 1, 1]]
        cross = [[s * int(i == j) for j in range(4)] for i in range(4) for s in (1, -1)]
        models = [
            {"type": "toric", "rays": [v + [1] for v in corners]},
            {"type": "toric", "rays": [[int(i == j) for j in range(5)] for i in range(5)]},
            {"type": "fano_cone", "polytope": cross},
        ]
        for i, model in enumerate(models):
            code, out, err = run(capsys, "hvol", "--model", write(workdir / f"m{i}.json", model))
            assert code == 2 and out == ""
            assert json.loads(err) == {
                "error": "unsupported-dimension",
                "message": f"dimension 5 exceeds supported maximum {geometry.MAX_DIM}",
            }
        fano = str(workdir / "m2.json")
        code, out, _ = run(capsys, "cone", "--model", fano)
        result = result_of(out)
        assert code == 0 and result["degree_bound"] == "16" and result["m_covector"] == ["0", "0", "0", "0", "1"]
        code, out, _ = run(capsys, "qbound", "--model", fano, "--q", "2")
        result = result_of(out)
        assert code == 0 and (result["n"], result["value"], result["limit"]) == (5, "32", "3125")
        assert result["holds"] is True and result["oracle"] is True

    def test_toric_model_above_max_dim_refused_on_load(self, capsys, workdir):
        # the cone over the 15-dimensional cross-polytope: its double
        # description alone takes tens of seconds, and reading the model
        # refuses it first, for every command that reads a model
        rays = [[s * int(i == j) for j in range(15)] + [1] for i in range(15) for s in (1, -1)]
        model = write(workdir / "cross16.json", {"type": "toric", "rays": rays})
        for argv in (["hvol", "--model", model], ["hatl", "--model", model, "--c", "1/8", "--k", "4"]):
            started = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert time.perf_counter() - started < 1
            assert code == 2 and out == ""
            assert json.loads(err) == {
                "error": "unsupported-dimension",
                "message": f"dimension 16 exceeds supported maximum {geometry.MAX_DIM}",
            }

    @pytest.mark.parametrize(
        "model",
        [
            {"type": "toric", "rays": [[1, 0], [10**400, 1]]},
            {"type": "toric", "rays": [[1, 0], [10**200, 1]]},
            {"type": "toric", "rays": [[1, 0, 0], [0, 1, 0], [10**20, 10**20 + 1, 1]]},
            {"type": "toric", "rays": [[1, 0, 0], [0, 1, 0], [10**200, 10**200 + 1, 1]]},
            {"type": "fano_cone", "polytope": [[0, 0], [10**30, 0], [0, 1]]},
        ],
    )
    def test_float_overflow_is_non_convergence(self, capsys, workdir, model):
        # entries past what the float Newton path resolves overflow, divide
        # by zero or make the Newton system singular there (the fourth
        # cone); that is an unsettled iteration, not a crash
        code, out, err = run(capsys, "hvol", "--model", write(workdir / "huge.json", model))
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == "non-converged"

    def test_csv_unsupported(self, capsys, an2):
        # only scan and lattice take --format
        code, _, err = run(capsys, "hvol", "--model", an2, "--format", "csv")
        assert code == 2
        assert json.loads(err)["error"] == "invalid-arguments"


# JSON values for fuzzed documents: small numbers and strings near the
# rational wire format, nested a little
FUZZ_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.floats(-4, 4, width=16),
    st.sampled_from(["", "x", "1/2", "1/0", "-1", "3", "0.5", "2/4", "1e3", "toric"]),
)
FUZZ_VALUES = st.recursive(
    FUZZ_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["type", "n", "coeffs", "rays", "gens", "vertices"]), inner, max_size=3),
    ),
    max_leaves=10,
)


def _mostly(draw, usual, stray):
    """A draw from ``usual``, or one time in five from ``stray``."""
    return draw(stray if draw(st.integers(0, 4)) == 4 else usual)


@st.composite
def near_valid(draw, entries, rows):
    """A list of `entries` (of rows of equal width when ``rows``) with at
    most one entry replaced by a stray value; now and then any value."""
    if draw(st.integers(0, 9)) == 9:
        return draw(FUZZ_VALUES)
    if rows:
        width = draw(st.integers(1, 4))
        entries = st.lists(entries, min_size=width, max_size=width)
    out = draw(st.lists(entries, min_size=1, max_size=5))
    if draw(st.integers(0, 2)) == 2:
        out[draw(st.integers(0, len(out) - 1))] = draw(st.one_of(FUZZ_VALUES, st.lists(st.integers(-3, 3), max_size=5)))
    return out


@st.composite
def fuzzed_documents(draw):
    """A model, ideal or body document, mostly of the right shape with
    some wrong part, or any JSON value at all."""
    kind = draw(st.sampled_from(["model", "ideal", "body"]))
    if draw(st.integers(0, 9)) == 9:
        return kind, draw(FUZZ_VALUES)
    n = _mostly(draw, st.integers(-1, 4), FUZZ_SCALARS)
    rows = near_valid(st.integers(-3, 3), rows=True)
    if kind == "model":
        doc = {
            "type": _mostly(draw, st.sampled_from(["monomial_pair", "toric", "fano_cone"]), FUZZ_SCALARS),
            "n": n,
            "coeffs": draw(near_valid(st.sampled_from(["0", "1/2", "2/3", "1", "-1/2", "5/7"]), rows=False)),
            "rays": draw(rows),
            "polytope": draw(rows),
            "r": _mostly(draw, st.integers(1, 3), FUZZ_SCALARS),
        }
    elif kind == "ideal":
        doc = {"n": n, "gens": draw(near_valid(st.integers(-1, 4), rows=True))}
    else:
        doc = {"vertices": draw(near_valid(st.sampled_from([0, 1, -2, "1/2", "-3/4", "5/3"]), rows=True))}
    if draw(st.integers(0, 4)) == 4:
        doc.pop(draw(st.sampled_from(sorted(doc))))
    return kind, doc


FUZZ_COMMANDS = {
    "model": [
        ["hvol", "--model", "doc.json"],
        ["hatl", "--model", "doc.json", "--c", "1/8", "--k", "3"],
        ["scan", "--model", "doc.json", "--k-max", "3", "--mode", "upper"],
        ["cone", "--model", "doc.json"],
        ["qbound", "--model", "doc.json", "--q", "1"],
        ["lct", "--model", "doc.json", "--ideal", "x2y3.json"],
    ],
    "ideal": [
        ["lct", "--model", "an2.json", "--ideal", "doc.json"],
        ["mult", "--ideal", "doc.json"],
        ["colength", "--ideal", "doc.json"],
    ],
    "body": [["lattice", "--body", "doc.json", "--k-range", "1:2"]],
}


# the workdir fixture only fixes the directory; each example rewrites
# doc.json in it
@settings(
    derandomize=True, max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(fuzzed_documents())
def test_fuzzed_documents_exit_cleanly(capsys, workdir, an2, x2y3, case):
    kind, doc = case
    write(workdir / "doc.json", doc)
    for argv in FUZZ_COMMANDS[kind]:
        code, _, err = run(capsys, *argv)
        assert code in (0, 2, 3), (argv, doc, err)
        if code:
            assert "Traceback" not in err
            (line,) = err.splitlines()
            assert "error" in json.loads(line)


FUZZ_ARGVS = [
    ["hatl", "--model", "an2.json", "--c", "1/8", "--k", "3"],
    ["scan", "--model", "an2.json", "--c", "1/8", "--k-min", "2", "--k-max", "3"],
    ["lct", "--model", "an2.json", "--ideal", "x2y3.json"],
    ["mult", "--ideal", "x2y3.json"],
    ["qbound", "--model", "an2.json", "--q", "2"],
    ["lattice", "--body", "square.json", "--k-range", "1:2", "--epsilon", "1/20"],
]


def _option_values(argv, names):
    return [i + 1 for i, x in enumerate(argv) if x in names]


@st.composite
def fuzzed_argvs(draw):
    """A valid argument list with one fault: a bad integer, an unknown
    flag (an abbreviation of a real one among them), its first (required)
    option dropped, or a negative fraction as the value of a rational
    option. Returns the fault and the list."""
    fault = draw(st.sampled_from(["integer", "flag", "missing", "negative"]))
    names = {"integer": ("--k", "--k-min", "--k-max", "--q"), "negative": ("--c", "--epsilon")}.get(fault, ())
    argv = list(draw(st.sampled_from([a for a in FUZZ_ARGVS if not names or _option_values(a, names)])))
    if fault == "integer":
        argv[draw(st.sampled_from(_option_values(argv, names)))] = draw(
            st.sampled_from(["four", "1.5", "", "1/2", "0x3", "-", "3e2"])
        )
    elif fault == "flag":
        flag = draw(st.sampled_from([
            "--bogus", "-z", "--k-maximum", "--suite=fast", "--format=xml",
            "--mod=an2.json", "--id=x2y3.json", "--epsil=1/20",
        ]))
        argv.insert(draw(st.integers(1, len(argv))), flag)
    elif fault == "missing":
        del argv[1:3]
    else:
        argv[draw(st.sampled_from(_option_values(argv, names)))] = draw(st.sampled_from(["-1/20", "-3/4", "-1"]))
    return fault, argv


@settings(
    derandomize=True, max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(fuzzed_argvs())
def test_fuzzed_arguments_give_one_json_error(capsys, workdir, an2, x2y3, case):
    fault, argv = case
    write(workdir / "square.json", {"vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]})
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "Traceback" not in err, (argv, err)
    (line,) = err.splitlines()
    # argparse refuses the first three faults; a negative fraction is
    # parsed as a value and refused by the command
    assert (json.loads(line)["error"] == "invalid-arguments") == (fault != "negative"), (argv, err)


class TestParserReuse:
    """`main` builds its parser once per process; no call may leave
    state in it that changes a later call's result."""

    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def fresh(self, capsys, *argv):
        cli._parser.cache_clear()
        return run(capsys, *argv)

    @pytest.mark.parametrize("first,second", [
        (("hatl", "--c", "1/8", "--k", "4", "--mode", "upper"), ("hatl", "--c", "1/8", "--k", "4")),
        (("scan", "--c", "1/8", "--k-max", "4", "--format", "csv"), ("scan", "--c", "1/8", "--k-max", "4")),
        (("hatl", "--c", "1/8", "--k", "four"), ("hatl", "--c", "1/8", "--k", "4")),
        (("scan", "--k-max", "4", "--mode", "lower"), ("scan", "--k-max", "4")),
    ])
    def test_second_call_matches_a_fresh_one(self, capsys, an2, first, second):
        def with_model(argv):
            return [argv[0], "--model", an2, *argv[1:]]

        code, expected, _ = self.fresh(capsys, *with_model(second))
        assert code == 0
        try:
            run(capsys, *with_model(first))
        except SystemExit as exc:  # argparse rejects bad arguments this way
            assert exc.code == 2
            capsys.readouterr()
        code, out, _ = run(capsys, *with_model(second))
        assert code == 0
        assert result_of(out) == result_of(expected)
        assert json.loads(out)["job"] == json.loads(expected)["job"]

    def test_parser_built_once(self, capsys, an2, x2y3, monkeypatch):
        built = []

        def counting():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting)
        for argv in (("mult", "--ideal", x2y3), ("hvol", "--model", an2), ("lct", "--model", an2, "--ideal", x2y3)):
            code, _, _ = run(capsys, *argv)
            assert code == 0
        assert len(built) == 1


class TestDeterminism:
    def test_byte_identical_results(self, capsys, an2, x2y3):
        outputs = set()
        for _ in range(2):
            _, out, _ = run(capsys, "lct", "--model", an2, "--ideal", x2y3)
            outputs.add(json.dumps(json.loads(out)["result"], sort_keys=True))
        assert len(outputs) == 1

    def test_toric_result_reproducible(self, capsys, workdir):
        model = write(workdir / "a1.json", {"type": "toric", "rays": [[0, 1], [2, -1]]})
        outputs = set()
        for _ in range(2):
            _, out, _ = run(capsys, "hvol", "--model", model)
            outputs.add(json.dumps(json.loads(out)["result"], sort_keys=True))
        assert len(outputs) == 1

    def test_result_round_trips(self, capsys, an2):
        _, out, _ = run(capsys, "hvol", "--model", an2)
        report = json.loads(out)
        assert json.loads(json.dumps(report)) == report


PINNED_INPUTS = {
    "space.json": {"type": "monomial_pair", "n": 3, "coeffs": ["0", "0", "0"]},
    "a.json": {"n": 3, "gens": [[4, 0, 0], [0, 4, 0], [0, 0, 4], [2, 1, 0], [0, 2, 1], [1, 0, 2]]},
    "b.json": {"n": 3, "gens": [[2, 0, 0], [0, 3, 0], [0, 0, 5], [1, 1, 0], [0, 1, 2]]},
    "c.json": {"n": 3, "gens": [[3, 0, 0], [0, 3, 0], [0, 0, 3], [1, 1, 1], [2, 0, 1]]},
    "plane.json": {"type": "monomial_pair", "n": 2, "coeffs": ["0", "0"]},
    "tie2.json": {"n": 2, "gens": [[3, 0], [1, 1], [0, 3]]},
    "tie3.json": {"n": 3, "gens": [[2, 0, 0], [1, 2, 0], [1, 0, 1], [0, 3, 0], [0, 1, 1], [0, 0, 2]]},
    "p2.json": {"type": "fano_cone", "polytope": [[0, 0], [3, 0], [0, 3]], "r": 1},
    "p112.json": {"type": "fano_cone", "polytope": [[-1, -1], [-1, 1], [3, -1]], "r": 1},
    "tri.json": {"vertices": [["0", "0"], ["3/2", "0"], ["0", "2"]]},
    "dp6.json": {"type": "fano_cone", "polytope": [[-1, 0], [0, -1], [1, -1], [1, 0], [0, 1], [-1, 1]], "r": 1},
    "dodecagon.json": {
        "type": "toric",
        "rays": [
            [0, 0, 1], [1, 0, 1], [3, 1, 1], [4, 2, 1], [5, 4, 1], [5, 5, 1],
            [4, 6, 1], [3, 6, 1], [1, 5, 1], [0, 4, 1], [-1, 2, 1], [-1, 1, 1],
        ],
    },
    "orthant4.json": {"type": "toric", "rays": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
    "blowup.json": {"type": "fano_cone", "polytope": [[-1, -1], [2, -1], [0, 1], [-1, 1]], "r": 1},
    "dp7.json": {"type": "fano_cone", "polytope": [[-1, -1], [1, -1], [1, 0], [0, 1], [-1, 1]], "r": 1},
    "blowup_image.json": {"type": "fano_cone", "polytope": [[1, 1], [-2, 1], [0, -1], [1, -1]], "r": 1},
    "line.json": {"type": "toric", "rays": [[2]]},
}

# literal `result` payloads; a refactor that changes one must say why
PINNED_RESULTS = [
    ("mult --ideal a.json", '{"exact": true, "value": "33"}'),
    ("mult --ideal b.json", '{"exact": true, "value": "20"}'),
    ("mult --ideal c.json", '{"exact": true, "value": "27"}'),
    (
        "lct --model space.json --ideal a.json",
        '{"active_constraints": [[2, 1, 0], [1, 0, 2], [0, 2, 1]], '
        '"minimizing_weight": ["1/3", "1/3", "1/3"], "value": "1"}',
    ),
    (
        "lct --model space.json --ideal b.json",
        '{"active_constraints": [[2, 0, 0], [1, 1, 0], [0, 1, 2]], '
        '"minimizing_weight": ["1/2", "1/2", "1/4"], "value": "5/4"}',
    ),
    (
        "lct --model space.json --ideal c.json",
        '{"active_constraints": [[3, 0, 0], [2, 0, 1], [1, 1, 1], [0, 3, 0], [0, 0, 3]], '
        '"minimizing_weight": ["1/3", "1/3", "1/3"], "value": "1"}',
    ),
    # tied optima: two facets attain the threshold, and the lexicographically
    # greatest weight is reported
    (
        "lct --model plane.json --ideal tie2.json",
        '{"active_constraints": [[1, 1], [0, 3]], "minimizing_weight": ["2/3", "1/3"], "value": "1"}',
    ),
    (
        "lct --model space.json --ideal tie3.json",
        '{"active_constraints": [[2, 0, 0], [1, 0, 1], [0, 1, 1], [0, 0, 2]], '
        '"minimizing_weight": ["1/2", "1/2", "1/2"], "value": "3/2"}',
    ),
    (
        "cone --model p2.json",
        '{"degree_bound": "9", "m_covector": ["1", "1", "1"], "rays": [[-1, -1, 3], [0, 1, 0], [1, 0, 0]]}',
    ),
    (
        "qbound --model p2.json --q 3",
        '{"asserted": true, "holds": true, "limit": "27", "n": 3, "oracle": true, "q": 3, "value": "27"}',
    ),
    (
        "hvol --model p112.json",
        '{"certificate": "zero exact gradient at rational interior weights of height <= 64", '
        '"exact": true, "method": "numeric_slice", "minimizer": ["0", "-1/3", "1"], '
        '"tolerance": 1e-09, "value": "27/4"}',
    ),
    (
        "hvol --model dp6.json",
        '{"certificate": "zero exact gradient at rational interior weights of height <= 64", '
        '"exact": true, "method": "numeric_slice", "minimizer": ["0", "0", "1"], '
        '"tolerance": 1e-09, "value": "6"}',
    ),
    (
        "hvol --model dodecagon.json",
        '{"certificate": "zero exact gradient at rational interior weights of height <= 64", '
        '"exact": true, "method": "numeric_slice", "minimizer": ["2", "3", "1"], '
        '"tolerance": 1e-09, "value": "4/5"}',
    ),
    (
        "hvol --model orthant4.json",
        '{"certificate": "zero exact gradient at rational interior weights of height <= 64", '
        '"exact": true, "method": "numeric_slice", "minimizer": ["1/4", "1/4", "1/4", "1/4"], '
        '"tolerance": 1e-09, "value": "256"}',
    ),
    # inexact values: float sums in the simplex order of the slice
    # triangulation, so a change to that order can show in their last
    # bits. The blow-up slice has two triangles and catches a new apex;
    # the dP7 pentagon has three and also catches a reordered facet loop
    (
        "hvol --model blowup.json",
        '{"exact": false, "method": "numeric_slice", "minimizer": ["0", "-129583157/985551345", "1"], '
        '"tolerance": 1e-09, "value": 7.739347215085987}',
    ),
    (
        "hvol --model dp7.json",
        '{"exact": false, "method": "numeric_slice", "minimizer": ["-13316083/120622699", "-103127239/934170049", "1"], '
        '"tolerance": 1e-09, "value": 6.788343839551018}',
    ),
    # a unimodular image of the blow-up: its triangles end in an edge whose
    # sorted-point order is not its dual-ray order, so the sums catch an
    # edge taken in the wrong order
    (
        "hvol --model blowup_image.json",
        '{"exact": false, "method": "numeric_slice", "minimizer": ["0", "129583157/985551345", "1"], '
        '"tolerance": 1e-09, "value": 7.739347215085987}',
    ),
    # n = 1: the slice is one point, which is one simplex
    (
        "hvol --model line.json",
        '{"certificate": "zero exact gradient at rational interior weights of height <= 64", '
        '"exact": true, "method": "numeric_slice", "minimizer": ["1"], '
        '"tolerance": 1e-09, "value": "1"}',
    ),
    # exact n = 3 scan at its budget: the argmin is m^5 itself
    (
        "hatl --model space.json --c 1/24 --k 5",
        '{"argmin": [[5, 0, 0], [4, 1, 0], [4, 0, 1], [3, 2, 0], [3, 1, 1], [3, 0, 2], [2, 3, 0], '
        '[2, 2, 1], [2, 1, 2], [2, 0, 3], [1, 4, 0], [1, 3, 1], [1, 2, 2], [1, 1, 3], [1, 0, 4], '
        '[0, 5, 0], [0, 4, 1], [0, 3, 2], [0, 2, 3], [0, 1, 4], [0, 0, 5]], '
        '"c": "1/24", "k": 5, "mode": "exact", "value": "1134/25"}',
    ),
    (
        "lattice --body tri.json --k-range 1:6",
        '{"epsilon": "1/20", "k0": null, "rows": [{"error": "5/2", "k": 1}, {"error": "5/4", "k": 2}, '
        '{"error": "13/18", "k": 3}, {"error": "9/16", "k": 4}, {"error": "21/50", "k": 5}, '
        '{"error": "13/36", "k": 6}], "volume": "3/2"}',
    ),
]


@pytest.mark.parametrize("argv,expected", PINNED_RESULTS, ids=[argv for argv, _ in PINNED_RESULTS])
def test_pinned_result(capsys, workdir, argv, expected):
    for name, doc in PINNED_INPUTS.items():
        write(workdir / name, doc)
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert json.dumps(result_of(out), sort_keys=True) == expected


class TestConfigPrecedence:
    # ./hatvol.toml and HATVOL_* once set the enumeration budgets; no
    # command reads either now, so hatl and scan report what they report
    # without them, and the exact budget at n = 2 stays 12
    ARGVS = (("hatl", "--c", "1/8", "--k", "4"), ("scan", "--k-max", "3"))

    def reports(self, capsys, an2):
        out = []
        for command, *rest in self.ARGVS:
            code, text, err = run(capsys, command, "--model", an2, *rest)
            assert code == 0 and err == "", (command, err)
            report = json.loads(text)
            del report["timing_ms"]
            out.append(report)
        return out

    def assert_budget_is_fixed(self, capsys, an2):
        code, out, err = run(capsys, "hatl", "--model", an2, "--c", "1/8", "--k", "13")
        assert code == 3 and out == ""
        assert json.loads(err)["budget"] == monomials.ENUM_BUDGETS[2] == 12

    def test_config_file_applies(self, capsys, workdir, an2):
        clean = self.reports(capsys, an2)
        (workdir / "hatvol.toml").write_text("budget_n2 = 3\n# comment\ngrid_depth = 8\n")
        assert self.reports(capsys, an2) == clean
        self.assert_budget_is_fixed(capsys, an2)

    def test_env_beats_file(self, capsys, workdir, monkeypatch, an2):
        clean = self.reports(capsys, an2)
        (workdir / "hatvol.toml").write_text("budget_n2 = 3\n")
        monkeypatch.setenv("HATVOL_BUDGET_N2", "4")
        assert self.reports(capsys, an2) == clean
        code, out, _ = run(capsys, "hatl", "--model", an2, "--c", "1/8", "--k", "5")
        assert code == 0 and result_of(out)["k"] == 5
        self.assert_budget_is_fixed(capsys, an2)

    def test_tolerance_is_no_setting(self, capsys, workdir, an2):
        # hvol states one fixed tolerance, and a stale tol line in
        # ./hatvol.toml no longer makes hatl exit 2
        clean = self.reports(capsys, an2)
        (workdir / "hatvol.toml").write_text("tol = 1e-7\n")
        assert self.reports(capsys, an2) == clean
        model = write(workdir / "a1.json", {"type": "toric", "rays": [[0, 1], [2, -1]]})
        code, out, err = run(capsys, "hvol", "--model", model)
        assert code == 0 and err == ""
        assert result_of(out)["tolerance"] == invariants.TOLERANCE == 1e-9


class TestCommandOptions:
    # each command takes the options it reads and no others: --out
    # everywhere and --format on the commands with a CSV table
    OPTIONS = {
        "hvol": {"--model", "--out"},
        "lct": {"--model", "--ideal", "--out"},
        "mult": {"--ideal", "--out"},
        "colength": {"--ideal", "--out"},
        "hatl": {"--model", "--out", "--c", "--k", "--mode"},
        "scan": {"--model", "--out", "--format", "--c", "--k-min", "--k-max", "--mode"},
        "lattice": {"--body", "--out", "--format", "--k-range", "--epsilon"},
        "cone": {"--model", "--out"},
        "qbound": {"--model", "--out", "--q"},
        "verify": {"--suite"},
    }

    def test_each_command_takes_only_its_options(self):
        (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
        found = {
            name: {flag for action in p._actions for flag in action.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        assert found == self.OPTIONS

    @pytest.mark.parametrize("source", ["config", "env"])
    def test_commands_without_settings_ignore_them(self, capsys, workdir, monkeypatch, an2, x2y3, source):
        # neither an unknown key in ./hatvol.toml nor HATVOL_BUDGET_N2=nan
        # reaches any command
        if source == "config":
            (workdir / "hatvol.toml").write_text("grid_depth = 8\nbudget_n2 = nan\n")
        else:
            monkeypatch.setenv("HATVOL_BUDGET_N2", "nan")
        square = write(workdir / "square.json", {"vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]})
        fano = write(workdir / "p2.json", {"type": "fano_cone", "polytope": [[0, 0], [3, 0], [0, 3]], "r": 1})
        for argv in (
            ["hvol", "--model", an2],
            ["hvol", "--model", fano],
            ["mult", "--ideal", x2y3],
            ["lct", "--model", an2, "--ideal", x2y3],
            ["colength", "--ideal", x2y3],
            ["lattice", "--body", square, "--k-range", "5,10"],
            ["cone", "--model", fano],
            ["qbound", "--model", fano, "--q", "3"],
            ["hatl", "--model", an2, "--c", "1/8", "--k", "4"],
            ["scan", "--model", an2, "--k-max", "3"],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 0 and err == "", (argv, err)
            assert result_of(out)


class TestVerify:
    def test_tampered_multiplicity_trips_exit_four(self, monkeypatch):
        # off-by-n! multiplicities must trip the colength comparison hard
        true_mult = monomials.MonomialIdeal.multiplicity

        def doubled(self):
            return 2 * true_mult(self)

        monkeypatch.setattr(monomials.MonomialIdeal, "multiplicity", doubled)
        results = acceptance.run_suite("fast")
        assert acceptance.suite_exit_code(results) == 4
        lech = next(r for r in results if r.name == "colength-multiplicity-comparison")
        assert lech.hard_failure and not lech.passed

    def test_tampered_lct_trips_exit_four(self, monkeypatch):
        # a threshold off by one on a single ideal must trip the LP oracle hard
        true_lct = invariants.lct
        target = monomials.MonomialIdeal(2, [(2, 0), (1, 1), (0, 3)])

        def tampered(model, ideal):
            result = true_lct(model, ideal)
            if ideal == target:
                return result._replace(value=result.value + 1)
            return result

        monkeypatch.setattr(invariants, "lct", tampered)
        results = acceptance.run_suite("fast")
        assert acceptance.suite_exit_code(results) == 4
        cross = next(r for r in results if r.name == "engine-cross-validation")
        assert cross.hard_failure and not cross.passed
        assert "Newton facets gave" in cross.measured

    def test_tampered_facet_kernel_trips_exit_four(self, monkeypatch):
        # one dropped ray on one Newton polyhedron must trip the subset oracle hard
        true_kernel = geometry._extreme_rays
        target = acceptance.newton_normals(next(acceptance.kernel_oracle_corpus(fast=True)))

        def tampered(normals, dim):
            rays = true_kernel(normals, dim)
            return rays[:-1] if [tuple(a) for a in normals] == target else rays

        monkeypatch.setattr(geometry, "_extreme_rays", tampered)
        results = acceptance.run_suite("fast")
        assert acceptance.suite_exit_code(results) == 4
        cross = next(r for r in results if r.name == "engine-cross-validation")
        assert cross.hard_failure and not cross.passed
        assert "the subset oracle gave" in cross.measured

    def test_flipped_incidence_bit_trips_exit_four(self, monkeypatch):
        # the right rays with one wrong bit in one zero set must trip the
        # pairing check hard: hulls and fans read the zero sets
        true_kernel = geometry._extreme_rays
        target = acceptance.newton_normals(next(acceptance.kernel_oracle_corpus(fast=True)))

        def tampered(normals, dim):
            pairs = true_kernel(normals, dim)
            if [tuple(a) for a in normals] == target:
                (ray, zeros), rest = pairs[0], pairs[1:]
                return [(ray, zeros ^ 1)] + rest
            return pairs

        monkeypatch.setattr(geometry, "_extreme_rays", tampered)
        results = acceptance.run_suite("fast")
        assert acceptance.suite_exit_code(results) == 4
        cross = next(r for r in results if r.name == "engine-cross-validation")
        assert cross.hard_failure and not cross.passed
        assert "its pairings give" in cross.measured

    def test_multiplicity_off_by_one_in_three_variables_trips_exit_four(self, monkeypatch):
        # the colength checks run in two variables; only the box covolume
        # sees a multiplicity that is wrong on n = 3 ideals alone
        true_mult = monomials.MonomialIdeal.multiplicity

        def tampered(self):
            e = true_mult(self)
            return e + 1 if self.n == 3 else e

        monkeypatch.setattr(monomials.MonomialIdeal, "multiplicity", tampered)
        results = acceptance.run_suite("fast")
        assert acceptance.suite_exit_code(results) == 4
        assert [r.name for r in results if not r.passed] == ["engine-cross-validation"]
        cross = next(r for r in results if r.name == "engine-cross-validation")
        assert cross.hard_failure and "the box covolume gave" in cross.measured

    def test_loosened_subtree_bound_trips_exit_four(self, monkeypatch):
        # a subtree hook told one more than the least colength prunes
        # subtrees that hold the optimum; only the plain minimum sees it
        true_enumerate = monomials.enumerate_staircases

        def loosened(n, k, min_colength=1, contain_power=None, prune=None):
            if prune is not None:
                hook = prune
                prune = lambda a_min, least: hook(a_min, least + 1)  # noqa: E731
            return true_enumerate(n, k, min_colength, contain_power, prune=prune)

        monkeypatch.setattr(monomials, "enumerate_staircases", loosened)
        results = acceptance.run_suite("fast")
        assert acceptance.suite_exit_code(results) == 4
        cross = next(r for r in results if r.name == "engine-cross-validation")
        assert cross.hard_failure and "the plain minimum" in cross.measured
