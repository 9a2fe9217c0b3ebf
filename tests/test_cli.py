import json
import math

import numpy as np
import pytest

from incompat.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def pauli_triple_075(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "gallery", "pauli", "--eta", "0.75")
    assert code == 0
    path = tmp_path / "pauli075.json"
    path.write_text(out)
    return str(path)


class TestGallery:
    def test_pauli_emits_operator_array(self, capsys):
        code, out, _ = run_cli(capsys, "gallery", "pauli", "--eta", "0.5", "--axes", "xz")
        assert code == 0
        data = json.loads(out)
        assert len(data) == 2
        assert data[0]["s"] == 0.5
        assert data[0]["v"][0] == pytest.approx(0.25)

    def test_planar_count(self, capsys):
        code, out, _ = run_cli(capsys, "gallery", "planar", "--n", "5", "--eta", "0.9")
        assert code == 0 and len(json.loads(out)) == 5

    def test_snub_cube_and_mirror(self, capsys):
        code, out, _ = run_cli(capsys, "gallery", "snub-cube")
        assert code == 0 and len(json.loads(out)) == 24
        code, out_m, _ = run_cli(capsys, "gallery", "snub-cube", "--mirror")
        assert code == 0 and out_m != out

    def test_eigenstates(self, capsys):
        code, out, _ = run_cli(capsys, "gallery", "pauli-eigenstates")
        assert code == 0 and len(json.loads(out)) == 6


class TestJMCheck:
    def test_compatible_pair(self, tmp_path, capsys):
        _, out, _ = run_cli(capsys, "gallery", "pauli", "--eta", "0.5", "--axes", "xz")
        path = tmp_path / "pair.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, "jm-check", "--assemblage", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "jm"
        assert "mother" in report

    def test_incompatible_pair_rejected_analytically(self, tmp_path, capsys):
        _, out, _ = run_cli(capsys, "gallery", "pauli", "--eta", "0.8", "--axes", "xz")
        path = tmp_path / "pair.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, "jm-check", "--assemblage", str(path))
        assert code == 0
        assert json.loads(out)["verdict"] == "not_jm"

    def test_incompatible_triple_rejected_by_pair_screen(self, pauli_triple_075, capsys):
        code, out, _ = run_cli(capsys, "jm-check", "--assemblage", pauli_triple_075)
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "not_jm"
        assert report["reason"] == "pair-norm-criterion"

    def test_triple_between_thresholds_needs_triple_screen(self, tmp_path, capsys):
        # pairwise compatible at 0.6 < 1/sqrt(2), yet the triple is incompatible
        _, out, _ = run_cli(capsys, "gallery", "pauli", "--eta", "0.6")
        path = tmp_path / "triple06.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, "jm-check", "--assemblage", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "not_jm"
        assert report["reason"] == "orthogonal-triple-threshold"


class TestCertify:
    def test_pipe_from_gallery(self, pauli_triple_075, capsys):
        code, out, _ = run_cli(
            capsys,
            "certify",
            "--assemblage",
            pauli_triple_075,
            "--dim",
            "2",
            "--seed",
            "7",
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["verdict"] == "outside"
        assert report["bell_certificate"]["quantum_value"] == pytest.approx(
            2 * math.sqrt(2) * 0.75, abs=1e-4
        )
        assert report["version"]

    def test_reports_are_reproducible(self, pauli_triple_075, capsys):
        args = ("certify", "--assemblage", pauli_triple_075, "--dim", "2", "--seed", "3")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_explicit_ensemble(self, pauli_triple_075, tmp_path, capsys):
        diag = 0.5 / math.sqrt(2)
        ensemble = write_json(
            tmp_path / "e.json",
            [
                {"s": 0.5, "v": [diag, 0.0, diag]},
                {"s": 0.5, "v": [diag, 0.0, -diag]},
            ],
        )
        code, out, _ = run_cli(
            capsys,
            "certify",
            "--assemblage",
            pauli_triple_075,
            "--ensemble",
            ensemble,
            "--dim",
            "2",
        )
        assert code == 0
        report = json.loads(out)
        assert report["bell_certificate"]["quantum_value"] == pytest.approx(
            2 * math.sqrt(2) * 0.75, abs=1e-6
        )

    def test_twelve_random_states_exit_0(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "gallery", "pauli", "--eta", "0.9")
        assert code == 0
        assemblage = write_json(tmp_path / "a.json", json.loads(out))
        vecs = np.random.default_rng(0).normal(size=(12, 3))
        vecs *= 0.5 / np.linalg.norm(vecs, axis=1, keepdims=True)
        ensemble = write_json(
            tmp_path / "e.json", [{"s": 0.5, "v": v.tolist()} for v in vecs]
        )
        code, out, _ = run_cli(
            capsys, "certify", "--assemblage", assemblage, "--ensemble", ensemble, "--dim", "2"
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["verdict"] == "outside"
        assert report["bell_certificate"]["local_bound"] == pytest.approx(2.0)


class TestMembershipCommands:
    def test_pm_membership_dim4_inside(self, pauli_triple_075, tmp_path, capsys):
        _, out, _ = run_cli(capsys, "gallery", "pauli-eigenstates")
        ensemble = tmp_path / "e.json"
        ensemble.write_text(out)
        code, out, _ = run_cli(
            capsys,
            "pm-membership",
            "--ensemble",
            str(ensemble),
            "--assemblage",
            pauli_triple_075,
            "--dim",
            "4",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "inside"

    def test_bell_membership_tsirelson(self, tmp_path, capsys):
        c = (np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)).ravel()
        table = write_json(
            tmp_path / "c.json",
            {"kind": "full", "shape": [2, 2], "data": [float(x) for x in c]},
        )
        code, out, _ = run_cli(capsys, "bell-membership", "--correlators", table)
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "outside"
        assert report["witness"]["Q"] == pytest.approx(2 * math.sqrt(2), abs=1e-9)

    def test_bell_membership_local_point(self, tmp_path, capsys):
        table = write_json(
            tmp_path / "c.json",
            {"kind": "full", "shape": [2, 2], "data": [0.5, 0.5, 0.5, -0.5]},
        )
        code, out, _ = run_cli(capsys, "bell-membership", "--correlators", table)
        assert code == 0 and json.loads(out)["verdict"] == "inside"


class TestChshBound:
    def test_threshold_pair(self, tmp_path, capsys):
        eta = 1 / math.sqrt(2)
        b0 = write_json(tmp_path / "b0.json", {"s": 0.0, "v": [eta, 0.0, 0.0]})
        b1 = write_json(tmp_path / "b1.json", {"s": 0.0, "v": [0.0, 0.0, eta]})
        code, out, _ = run_cli(capsys, "chsh-bound", "--b0", b0, "--b1", b1, "--attain")
        assert code == 0
        report = json.loads(out)
        assert report["bound"] == pytest.approx(2.0, abs=1e-9)
        assert report["attainment"]["value"] == pytest.approx(2.0, abs=1e-9)


class TestEqualityCheck:
    def test_deviation_is_tiny(self, pauli_triple_075, tmp_path, capsys):
        _, out, _ = run_cli(capsys, "gallery", "pauli-eigenstates")
        ensemble = tmp_path / "e.json"
        ensemble.write_text(out)
        code, out, _ = run_cli(
            capsys,
            "equality-check",
            "--ensemble",
            str(ensemble),
            "--assemblage",
            pauli_triple_075,
        )
        assert code == 0
        assert json.loads(out)["max_deviation"] < 1e-12


class TestErrorHandling:
    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "certify", "--assemblage", "/no/such.json", "--dim", "2")
        assert code == 2 and "error" in err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "jm-check", "--assemblage", str(bad))
        assert code == 2 and err

    def test_invalid_operator_exits_2(self, tmp_path, capsys):
        bad = write_json(tmp_path / "bad.json", [{"s": 0.5, "v": [2.0, 0, 0]}])
        code, _, err = run_cli(capsys, "jm-check", "--assemblage", str(bad))
        assert code == 2 and "psd" in err or "effect" in err

    def test_incompatible_pair_inside_larger_set_detected(self, tmp_path, capsys):
        dirs = [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.6, 0.0, 0.8)]
        ops = [
            {"s": 0.5, "v": [0.495 * x, 0.495 * y, 0.495 * z]} for x, y, z in dirs
        ]
        path = write_json(tmp_path / "triple.json", ops)
        code, out, _ = run_cli(capsys, "jm-check", "--assemblage", path)
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "not_jm"
        assert report["reason"] == "pair-norm-criterion"

    def test_undecided_exits_1(self, tmp_path, capsys):
        # compatible set, but the iteration budget is too small to verify it
        z = {"s": 0.5, "v": [0.0, 0.0, 0.5]}
        path = write_json(tmp_path / "zzz.json", [z, z, z])
        code, out, _ = run_cli(
            capsys, "jm-check", "--assemblage", path, "--max-iter", "10"
        )
        assert code == 1
        assert json.loads(out)["verdict"] == "undecided"

    @pytest.mark.parametrize("with_ensemble", [False, True])
    def test_negative_seesaw_rounds_exit_2(
        self, pauli_triple_075, tmp_path, capsys, with_ensemble
    ):
        args = ["certify", "--assemblage", pauli_triple_075, "--dim", "2", "--seesaw", "-3"]
        if with_ensemble:
            states = [{"s": 0.5, "v": [0.5, 0.0, 0.0]}, {"s": 0.5, "v": [0.0, 0.0, 0.5]}]
            args += ["--ensemble", write_json(tmp_path / "e.json", states)]
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == ""
        assert "rounds" in err


class TestArgumentChecks:
    """Tolerances, budgets and visibilities out of range are malformed input."""

    @pytest.fixture
    def eigenstates(self, tmp_path, capsys):
        _, out, _ = run_cli(capsys, "gallery", "pauli-eigenstates")
        path = tmp_path / "e.json"
        path.write_text(out)
        return str(path)

    @pytest.mark.parametrize(
        "extra", [["--eps-in", "0"], ["--eps-in=-1e-7"], ["--eps-out", "-1"], ["--max-iter", "-3"]]
    )
    def test_pm_membership_exits_2(self, eigenstates, pauli_triple_075, capsys, extra):
        code, out, err = run_cli(
            capsys, "pm-membership", "--ensemble", eigenstates,
            "--assemblage", pauli_triple_075, "--dim", "2", *extra,
        )
        assert code == 2 and out == "" and "eps_in" in err

    @pytest.mark.parametrize("dim", ["0", "-2"])
    def test_pm_membership_dimension_below_one_exits_2(
        self, eigenstates, pauli_triple_075, capsys, dim
    ):
        code, out, err = run_cli(
            capsys, "pm-membership", "--ensemble", eigenstates,
            "--assemblage", pauli_triple_075, "--dim", dim,
        )
        assert code == 2 and out == ""
        assert f"d={dim}, n_x=6, n_y=3" in err and "at least 1" in err

    def test_bell_membership_exits_2(self, tmp_path, capsys):
        table = {"kind": "full", "shape": [2, 2], "data": [0.5, 0.5, 0.5, -0.5]}
        path = write_json(tmp_path / "c.json", table)
        code, out, err = run_cli(capsys, "bell-membership", "--correlators", path, "--eps-in", "0")
        assert code == 2 and out == "" and "eps_in" in err

    @pytest.mark.parametrize("axes, eta", [("xy", "0.5"), ("xz", "0.8")])
    @pytest.mark.parametrize("extra", [["--max-iter", "-5"], ["--tol", "-1"], ["--tol", "0"]])
    def test_jm_check_exits_2(self, tmp_path, capsys, axes, eta, extra):
        _, out, _ = run_cli(capsys, "gallery", "pauli", "--axes", axes, "--eta", eta)
        path = tmp_path / "a.json"
        path.write_text(out)
        code, out, err = run_cli(capsys, "jm-check", "--assemblage", str(path), *extra)
        assert code == 2 and out == "" and "max_iter" in err

    @pytest.mark.parametrize("name", ["pauli", "planar", "snub-cube"])
    @pytest.mark.parametrize("eta", ["1.5", "-0.25"])
    def test_gallery_visibility_out_of_range_exits_2(self, capsys, name, eta):
        code, out, err = run_cli(capsys, "gallery", name, "--eta", eta)
        assert code == 2 and out == "" and "visibility" in err


class TestParametersEcho:
    """Every report echoes each option as parsed, except --timings."""

    @pytest.fixture
    def files(self, pauli_triple_075, tmp_path, capsys):
        _, out, _ = run_cli(capsys, "gallery", "pauli-eigenstates")
        table = {"kind": "full", "shape": [2, 2], "data": [0.5, 0.5, 0.5, -0.5]}
        op = {"s": 0.0, "v": [0.5, 0.0, 0.0]}
        return {
            "a": pauli_triple_075,
            "e": write_json(tmp_path / "e.json", json.loads(out)),
            "c": write_json(tmp_path / "c.json", table),
            "b": write_json(tmp_path / "b.json", op),
        }

    def parameters(self, capsys, *argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code in (0, 1)
        return json.loads(out)["parameters"]

    def test_jm_check(self, files, capsys):
        got = self.parameters(
            capsys, "jm-check", "--assemblage", files["a"], "--max-iter", "300", "--tol", "1e-8"
        )
        assert got == {"assemblage": files["a"], "max_iter": 300, "tol": 1e-8}

    def test_pm_membership(self, files, capsys):
        got = self.parameters(
            capsys, "pm-membership", "--ensemble", files["e"], "--assemblage", files["a"],
            "--dim", "2", "--eps-out", "1e-6",
        )
        assert got == {
            "ensemble": files["e"],
            "assemblage": files["a"],
            "dim": 2,
            "eps_in": 1e-7,
            "eps_out": 1e-6,
            "max_iter": 2000,
        }

    def test_bell_membership(self, files, capsys):
        got = self.parameters(
            capsys, "bell-membership", "--correlators", files["c"], "--max-iter", "50"
        )
        assert got == {"correlators": files["c"], "eps_in": 1e-7, "eps_out": 1e-7, "max_iter": 50}

    def test_chsh_bound_attain(self, files, capsys):
        got = self.parameters(
            capsys, "chsh-bound", "--b0", files["b"], "--b1", files["b"], "--attain"
        )
        assert got == {"b0": files["b"], "b1": files["b"], "attain": True}

    def test_equality_check(self, files, capsys):
        got = self.parameters(
            capsys, "equality-check", "--ensemble", files["e"], "--assemblage", files["a"]
        )
        assert got == {"ensemble": files["e"], "assemblage": files["a"]}

    @pytest.mark.parametrize("with_ensemble", [False, True])
    @pytest.mark.parametrize("timings", [False, True])
    def test_certify(self, files, capsys, with_ensemble, timings):
        argv = ["certify", "--assemblage", files["a"], "--dim", "2"]
        argv += ["--seesaw", "1", "--seed", "5"]
        if with_ensemble:
            argv += ["--ensemble", files["e"]]
        if timings:
            argv.append("--timings")
        got = self.parameters(capsys, *argv)
        assert got == {
            "assemblage": files["a"],
            "ensemble": files["e"] if with_ensemble else None,
            "dim": 2,
            "seesaw": 1,
            "seed": 5,
        }


class TestMalformedStructure:
    """A wrong JSON structure or a non-finite number is malformed input."""

    def assert_malformed(self, capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("incompat: error: ") and err.count("\n") == 1

    def test_chsh_bound_null_vector(self, tmp_path, capsys):
        op = write_json(tmp_path / "op.json", {"s": 1, "v": None})
        self.assert_malformed(capsys, "chsh-bound", "--b0", op, "--b1", op)

    @pytest.mark.parametrize(
        "payload",
        [[1, 2], [{"s": 0.5, "v": None}], [{"s": None, "v": [0, 0, 0.5]}]],
        ids=["numbers", "null-v", "null-s"],
    )
    def test_jm_check_bad_operator_list(self, tmp_path, capsys, payload):
        path = write_json(tmp_path / "a.json", payload)
        self.assert_malformed(capsys, "jm-check", "--assemblage", path)

    @pytest.fixture
    def nan_files(self, tmp_path):
        # json.dumps writes NaN, which json.load reads back as float("nan")
        op = {"s": 0.5, "v": [math.nan, 0.0, 0.0]}
        table = {"kind": "full", "shape": [2, 2], "data": [math.nan, 0.5, 0.5, -0.5]}
        return {
            "ops": write_json(tmp_path / "nan.json", [op]),
            "op": write_json(tmp_path / "op.json", {"s": 0.0, "v": [math.nan, 0.0, 0.0]}),
            "table": write_json(tmp_path / "c.json", table),
        }

    def test_jm_check_nan(self, nan_files, capsys):
        self.assert_malformed(capsys, "jm-check", "--assemblage", nan_files["ops"])

    def test_equality_check_nan(self, nan_files, pauli_triple_075, capsys):
        self.assert_malformed(
            capsys, "equality-check", "--ensemble", nan_files["ops"],
            "--assemblage", pauli_triple_075,
        )

    def test_pm_membership_nan(self, nan_files, pauli_triple_075, capsys):
        self.assert_malformed(
            capsys, "pm-membership", "--ensemble", nan_files["ops"],
            "--assemblage", pauli_triple_075, "--dim", "2",
        )

    def test_certify_nan(self, nan_files, capsys):
        self.assert_malformed(capsys, "certify", "--assemblage", nan_files["ops"], "--dim", "2")

    def test_bell_membership_nan(self, nan_files, capsys):
        self.assert_malformed(capsys, "bell-membership", "--correlators", nan_files["table"])

    def test_chsh_bound_nan(self, nan_files, capsys):
        op = nan_files["op"]
        self.assert_malformed(capsys, "chsh-bound", "--b0", op, "--b1", op)

    @pytest.mark.parametrize(
        "kind, shown", [([1], "[1]"), ({"a": 1}, "{'a': 1}")], ids=["array", "object"]
    )
    def test_bell_membership_kind_that_is_not_a_string(self, tmp_path, capsys, kind, shown):
        # an unhashable kind fails the kind check instead of raising TypeError (exit 1)
        table = {"kind": kind, "shape": [1, 2], "data": [0.5, 0.5]}
        path = write_json(tmp_path / "c.json", table)
        code, out, err = run_cli(capsys, "bell-membership", "--correlators", path)
        assert (code, out) == (2, "")
        assert err == f"incompat: error: {path}: kind must be 'single' or 'full', got {shown}\n"


class TestInvalidContent:
    """Well-formed JSON that breaks a physical invariant exits 2 with its reason."""

    def test_bell_membership_rejects_an_empty_table(self, tmp_path, capsys):
        path = write_json(tmp_path / "c.json", {"kind": "full", "shape": [0, 2], "data": []})
        code, out, err = run_cli(capsys, "bell-membership", "--correlators", path)
        assert (code, out) == (2, "")
        assert err == (
            "incompat: error: Bell scenario needs n_a and n_b of at least 1; got n_a=0, n_b=2\n"
        )

    def test_bell_membership_rejects_a_single_correlator_table(self, tmp_path, capsys):
        table = {"kind": "single", "shape": [2, 2], "data": [0.5, 0.5, 0.5, -0.5]}
        path = write_json(tmp_path / "c.json", table)
        code, out, err = run_cli(capsys, "bell-membership", "--correlators", path)
        assert code == 2 and out == "" and "full correlator table" in err

    def test_bell_membership_rejects_a_table_with_three_axes(self, tmp_path, capsys):
        table = {"kind": "full", "shape": [1, 2, 2], "data": [0.5, 0.5, 0.5, -0.5]}
        path = write_json(tmp_path / "c.json", table)
        code, out, err = run_cli(capsys, "bell-membership", "--correlators", path)
        assert (code, out) == (2, "")
        assert err == f"incompat: error: {path}: full table needs 2 axes, got 3\n"

    def test_equality_check_rejects_a_biased_assemblage(self, tmp_path, capsys):
        e = write_json(tmp_path / "e.json", [{"s": 0.5, "v": [0.0, 0.0, 0.5]}])
        a = write_json(tmp_path / "a.json", [{"s": 0.6, "v": [0.0, 0.0, 0.1]}])
        code, out, err = run_cli(capsys, "equality-check", "--ensemble", e, "--assemblage", a)
        assert (code, out) == (2, "")
        assert err == (
            "incompat: error: measurement 0 is biased (tr(effect0) != 1); "
            "the PM-Bell transfer needs tr(B_y) = 0\n"
        )

    @pytest.mark.parametrize(
        "command, option, message",
        [
            ("jm-check", "--assemblage", "assemblage has no measurements"),
            ("pm-membership", "--ensemble", "ensemble has no states"),
        ],
    )
    def test_empty_list(self, pauli_triple_075, tmp_path, capsys, command, option, message):
        path = write_json(tmp_path / "empty.json", [])
        argv = [command, option, path]
        if command == "pm-membership":
            argv += ["--assemblage", pauli_triple_075, "--dim", "2"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"incompat: error: {path}: {message}\n"

    @pytest.mark.parametrize("s", [0.4, 0.6])
    def test_state_with_trace_other_than_one(self, pauli_triple_075, tmp_path, capsys, s):
        path = write_json(tmp_path / "e.json", [{"s": s, "v": [0.0, 0.0, 0.1]}])
        code, out, err = run_cli(
            capsys, "pm-membership", "--ensemble", path,
            "--assemblage", pauli_triple_075, "--dim", "2",
        )
        assert code == 2 and out == "" and "state 0 has trace" in err

    @pytest.mark.parametrize("s", [-0.25, 1.5])
    def test_effect_with_s_outside_the_unit_interval(self, tmp_path, capsys, s):
        ops = [{"s": 0.5, "v": [0.1, 0.0, 0.0]}, {"s": s, "v": [0.0, 0.0, 0.0]}]
        path = write_json(tmp_path / "a.json", ops)
        code, out, err = run_cli(capsys, "jm-check", "--assemblage", path)
        assert code == 2 and out == "" and "effect 1 has s" in err and "outside [0, 1]" in err
