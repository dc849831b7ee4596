import json
from importlib import resources

import pytest

import framecalc.analysis
import framecalc.cli
from framecalc.cli import main

MACHINE_REPORT_KEYS = {
    "model",
    "vector",
    "beta",
    "is_affine_automorphism",
    "is_symplectic",
    "d_flat",
    "divergence",
    "nilpotency_index",
    "trace_powers",
    "image_chain",
    "image_isotropic",
    "holonomy_commutes",
}


def shipped(name: str) -> str:
    return str(resources.files("framecalc").joinpath("data", name))


def test_verify_kt_e2_human(capsys):
    code = main(["verify", shipped("kodaira_thurston.spec"), "--vector", "E2", "--beta", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "affine-automorphism: yes" in out
    assert "symplectic: no" in out
    assert "d-flat: (2,4) = -1" in out
    assert "nilpotency-index: 2" in out
    assert "image-lagrangian: yes" in out


def test_verify_kt_e2_machine_schema(capsys):
    code = main(
        [
            "verify",
            shipped("kodaira_thurston.spec"),
            "--vector",
            "E2",
            "--beta",
            "0",
            "--format",
            "machine",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == MACHINE_REPORT_KEYS
    assert payload["model"] == "kodaira_thurston"
    assert payload["vector"] == "E2"
    assert payload["beta"] == "0"
    assert payload["is_affine_automorphism"] is True
    assert payload["is_symplectic"] is False
    assert payload["d_flat"] == [{"i": 2, "j": 4, "v": "-1"}]
    assert payload["divergence"] == "0"
    assert payload["nilpotency_index"] == 2
    assert payload["trace_powers"] == ["0", "0", "0", "0"]
    assert payload["image_chain"][0] == [["1", "0", "0", "0"], ["0", "0", "1", "0"]]
    assert payload["image_isotropic"] is True
    assert payload["holonomy_commutes"] is True


def test_verify_symbolic_runs_without_beta(capsys):
    code = main(["verify", shipped("kodaira_thurston.spec"), "--vector", "E2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "beta: symbolic" in out
    assert "symplectic: no" in out


def test_verify_all_invariant_darboux2(capsys):
    code = main(["verify", shipped("darboux2.spec"), "--all-invariant"])
    out = capsys.readouterr().out
    assert code == 0
    reports = [block for block in out.strip().split("\n\n") if block]
    assert len(reports) == 4
    assert out.count("symplectic: yes") == 4
    assert "symplectic: no" not in out


def test_verify_all_invariant_machine_is_array(capsys):
    code = main(["verify", shipped("darboux2.spec"), "--all-invariant", "--format", "machine"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert isinstance(payload, list) and len(payload) == 4
    for rep in payload:
        assert set(rep) == MACHINE_REPORT_KEYS
        assert rep["is_symplectic"] is True


def test_verify_all_invariant_closes_holonomy_once(monkeypatch, capsys):
    calls = []
    original = framecalc.analysis.infinitesimal_holonomy

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(framecalc.analysis, "infinitesimal_holonomy", counting)
    monkeypatch.setattr(framecalc.cli, "infinitesimal_holonomy", counting)
    code = main(["verify", shipped("darboux2.spec"), "--all-invariant", "--format", "machine"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(payload) == 4
    assert all(rep["holonomy_commutes"] is True for rep in payload)
    assert len(calls) == 1


def test_verify_missing_file_exits_1(capsys):
    code = main(["verify", "/no/such/file.spec", "--vector", "E1"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_verify_bad_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text("{broken")
    assert main(["verify", str(bad), "--vector", "E1"]) == 1


def test_verify_bad_scalar_literal_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text(
        json.dumps({"dim": 2, "omega": [{"i": 1, "j": 2, "v": "1 / 2"}]})
    )
    assert main(["verify", str(bad), "--vector", "E1"]) == 1


@pytest.mark.parametrize(
    "literal", ["1" * 5000, "1\u00b2", "\u0663"], ids=["overlong", "superscript", "arabic-indic"]
)
def test_verify_non_ascii_or_overlong_literal_exits_1(tmp_path, capsys, literal):
    bad = tmp_path / "bad.spec"
    bad.write_text(json.dumps({"dim": 2, "omega": [{"i": 1, "j": 2, "v": literal}]}))
    assert main(["verify", str(bad), "--vector", "E1"]) == 1
    assert "offset" in capsys.readouterr().err


def test_verify_semantic_violation_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text(
        json.dumps(
            {
                "dim": 2,
                "omega": [{"i": 1, "j": 2, "v": "1"}],
                "brackets": [{"i": 1, "j": 1, "k": 2, "v": "1"}],
            }
        )
    )
    code = main(["verify", str(bad), "--vector", "E1"])
    assert code == 2
    assert "i < j" in capsys.readouterr().err


def test_verify_torsionful_connection_exits_2(tmp_path, capsys):
    torsionful = tmp_path / "torsionful.spec"
    torsionful.write_text(
        json.dumps(
            {
                "dim": 4,
                "brackets": [{"i": 2, "j": 4, "k": 1, "v": "-1"}],
                "omega": [{"i": 1, "j": 2, "v": "1"}, {"i": 3, "j": 4, "v": "1"}],
                "connection": [],
                "vectors": {"E2": ["0", "1", "0", "0"]},
            }
        )
    )
    code = main(["verify", str(torsionful), "--vector", "E2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "torsion nonzero at (2, 4)" in err


def test_verify_unknown_vector_exits_2(capsys):
    code = main(["verify", shipped("darboux1.spec"), "--vector", "nope"])
    assert code == 2
    assert "no vector named" in capsys.readouterr().err


def test_verify_all_invariant_needs_beta_on_parametric_model(capsys):
    code = main(["verify", shipped("kodaira_thurston.spec"), "--all-invariant"])
    assert code == 2
    assert "--beta" in capsys.readouterr().err


def test_verify_all_invariant_kt_with_beta(capsys):
    code = main(["verify", shipped("kodaira_thurston.spec"), "--all-invariant", "--beta", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("affine-automorphism: yes") == 4
    assert out.count("symplectic: no") == 1  # exactly one basis direction fails


def test_verify_missing_connection_exits_2(tmp_path, capsys):
    spec = tmp_path / "noconn.spec"
    spec.write_text(
        json.dumps({"dim": 2, "omega": [{"i": 1, "j": 2, "v": "1"}], "vectors": {"X": ["1", "0"]}})
    )
    assert main(["verify", str(spec), "--vector", "X"]) == 2


def test_moduli_darboux1(capsys):
    code = main(["moduli", shipped("darboux1.spec")])
    out = capsys.readouterr().out
    assert code == 0
    assert "dimension: 4" in out
    assert out.count("basis[") == 4


def test_moduli_machine(capsys):
    code = main(["moduli", shipped("darboux1.spec"), "--format", "machine"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["dimension"] == 4
    assert len(payload["basis"]) == 4


def test_holonomy_flat_kt(capsys):
    code = main(["holonomy", shipped("kodaira_thurston.spec"), "--beta", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "generators: 0 (flat)" in out


def test_holonomy_machine(capsys):
    code = main(["holonomy", shipped("kodaira_thurston.spec"), "--beta", "1/6", "--format", "machine"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["generator_count"] == 0
    assert payload["span_dimension"] == 0


def test_paper_example_symbolic_exits_0(capsys):
    code = main(["paper-example", "--symbolic"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all identities verified" in out
    assert "FAIL" not in out


def test_paper_example_default_is_symbolic(capsys):
    assert main(["paper-example"]) == 0
    assert "beta: symbolic" in capsys.readouterr().out


def test_paper_example_beta(capsys):
    code = main(["paper-example", "--beta", "1/6", "--format", "machine"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["all_ok"] is True
    assert payload["beta"] == "1/6"
    assert all(c["ok"] for c in payload["checks"])


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", shipped("darboux1.spec")])  # neither --vector nor --all-invariant
    assert exc.value.code == 2
