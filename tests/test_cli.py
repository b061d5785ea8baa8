"""Command-line behaviour: parsing, exit codes, deterministic JSON."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cobordlab
from cobordlab.cli import is_raw_input, main, parse_raw_bpoly
from cobordlab.cobordism import GeneratorFamily, standard_generators
from cobordlab.fpring import BPoly


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    # keep every run away from the real ~/.cobordlab cache
    monkeypatch.setenv("COBORDLAB_CACHE", str(tmp_path / "cache.json"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_class_text_output(capsys):
    code, out, _ = run(capsys, "class", "P(4)", "-p", "2")
    assert code == 0
    assert out.strip() == "1*b[4] + 1*b[2]^2 + 1*b[2]*b[1]^2"


def test_class_json_output(capsys):
    code, out, _ = run(capsys, "class", "P(4)", "-p", "2", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["p"] == 2 and blob["maxWeight"] is None
    assert [t["partition"] for t in blob["terms"]] == [[4], [2, 2], [2, 1, 1]]


def test_dimq_json(capsys):
    code, out, _ = run(capsys, "dimq", "P(4)", "-p", "2", "-q", "2", "--json")
    assert code == 0
    assert json.loads(out) == {"direct": 2, "viaGenerators": 2}


def test_express_witness_json(capsys):
    code, out, _ = run(capsys, "express", "b[2]*b[1]^2", "-p", "2", "--json")
    assert code == 0  # reporting non-membership is a successful run
    assert json.loads(out) == {"notInLp": {"p": 2, "witness": [4]}}


def test_express_member_text(capsys):
    code, out, _ = run(capsys, "express", "b[2]^2", "-p", "2")
    assert code == 0
    assert out.strip() == "1*X[2]^2"


def test_dimq_requires_membership(capsys):
    code, _, err = run(capsys, "dimq", "b[2]*b[1]^2", "-p", "2", "-q", "2")
    assert code == 2
    assert "c_(4)" in err


def test_realize_json(capsys):
    code, out, _ = run(capsys, "realize", "b[2]", "-p", "2", "-q", "2", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["achievedDim"] == 1
    assert blob["action"]["type"] == "Disjoint"


def test_bound_report(capsys):
    code, out, _ = run(
        capsys, "bound", "P(4)", "-p", "2", "-q", "2",
        "--indices", "", "--parts", "0", "--small-d", "1", "--milnor-d", "2", "--json",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["main"] == 2
    assert blob["ratio"]["bound"] == 2 and blob["ratio"]["certificate"] == [4]
    # q = 2 has no parts of index <= q-2 = 0, so the weight cannot hide at d = 1
    assert blob["smallFixed"] is False
    assert blob["milnor"] is True  # need ceil((12-14)/15) <= 0: vacuous
    # d violating the n >= (2q-1)d precondition is a usage error, not False
    assert run(capsys, "bound", "P(4)", "-p", "2", "-q", "2", "--small-d", "2")[0] == 1


def test_rho_outputs(capsys):
    code, out, _ = run(capsys, "rho", "-p", "2", "-q", "2", "--np-minus", "")
    assert code == 0 and out.strip() == "rho_2 = 2/5"
    code, out, _ = run(capsys, "rho", "-p", "3", "-q", "3", "--members", "6,8", "--json")
    assert code == 0 and json.loads(out) == {"rho": "1/4"}
    code, _, _ = run(capsys, "rho", "-p", "2", "-q", "2")
    assert code == 1  # one of the two index-set flags is required
    code, _, _ = run(capsys, "rho", "-p", "2", "-q", "2", "--members", "4", "--np-minus", "")
    assert code == 1


def test_localize(capsys):
    code, out, _ = run(capsys, "localize", "-p", "2", "--weights", "0,1", "--zeta", "1", "--json")
    assert code == 0
    assert json.loads(out) == {"lhs": 1, "match": True, "rhs": 1}
    code, _, _ = run(capsys, "localize", "-p", "3", "--weights", "0,1,2", "--zeta", "2", "--r", "2")
    assert code == 0
    code, _, _ = run(capsys, "localize", "-p", "2", "--weights", "0,1", "--r", "0")
    assert code == 1


def test_usage_errors(capsys):
    assert run(capsys, "class", "P(4)")[0] == 1  # missing -p
    assert run(capsys, "nosuchcommand")[0] == 1
    assert run(capsys)[0] == 1
    assert run(capsys, "class", "P(", "-p", "2")[0] == 1
    assert run(capsys, "class", "b[0]", "-p", "2")[0] == 1
    assert run(capsys, "dimq", "P(4)", "-p", "2", "-q", "3")[0] == 1  # 3 not a power of 2
    assert run(capsys, "express", "P(4)", "-p", "2", "--family", "bogus")[0] == 1


def test_raw_parser():
    assert parse_raw_bpoly("b[2]*b[1]^2 + b[4]", 2) == BPoly(2, {(2, 1, 1): 1, (4,): 1})
    assert parse_raw_bpoly("3", 5) == BPoly(5, {(): 3})
    assert parse_raw_bpoly("2*b[3]", 5) == BPoly(5, {(3,): 2})
    assert parse_raw_bpoly("b[1]*b[1]", 3) == BPoly(3, {(1, 1): 1})
    # output format parses back in
    assert parse_raw_bpoly("1*b[4] + 1*b[2]^2", 2) == BPoly(2, {(4,): 1, (2, 2): 1})
    with pytest.raises(ValueError):
        parse_raw_bpoly("b[2]^0", 2)
    with pytest.raises(ValueError):
        parse_raw_bpoly("b[2] + ", 2)


def test_is_raw_input():
    assert is_raw_input("b[4]")
    assert is_raw_input(" 12 ")
    assert not is_raw_input("P(4)")
    assert not is_raw_input("2.P(4)")


def test_raw_weight_ceiling(capsys):
    assert run(capsys, "class", "b[17]", "-p", "2")[0] == 1
    code, out, _ = run(capsys, "class", "b[17]", "-p", "2", "--max-weight", "17")
    assert code == 0 and out.strip() == "1*b[17]"


def test_atom_weight_cap(capsys):
    # atoms above the cap are refused at once; a product of atoms below it is not
    assert run(capsys, "class", "-p", "5", "P(65)") == (1, "", "error: weight 65 exceeds cap 64\n")
    assert run(capsys, "class", "-p", "5", "H(3,65)") == (1, "", "error: weight 65 exceeds cap 64\n")
    code, out, _ = run(capsys, "class", "-p", "2", "P(40)*P(30)")
    assert code == 0 and out.startswith("1*b[40]*b[30] + ")


@pytest.mark.parametrize(
    "argv",
    [
        ["dimq", "P(4)"],
        ["bound", "P(4)"],
        ["realize", "P(4)"],
        ["rho", "--np-minus", ""],
    ],
)
def test_order_must_be_a_power_of_p(capsys, argv):
    assert run(capsys, *argv, "-p", "2", "-q", "6") == (1, "", "error: order 6 is not a power of the prime 2\n")


RAW_CEILING = (1, "", "error: raw class weight 17 exceeds 16; raise --max-weight\n")
NOT_A_MEMBER = (2, "", "error: not in the mod-2 generator ring; obstruction at c_(1)\n")
ZERO_CLASS = {
    "class": (0, "0\n", ""),
    "express": (0, "0\n", ""),
    "dimq": (0, "dim_2 = -inf (direct) = -inf (via generators)\n", ""),
    "bound": (0, "main bound: -inf\n", ""),
    "realize": (0, 'achieved fixed dimension -inf\n{"parts": [], "type": "Disjoint"}\n', ""),
}
# (exit code, stdout, stderr) of each class subcommand at the documented input limits, p = q = 2
INPUT_LIMITS = {
    "b[17]": dict.fromkeys(ZERO_CLASS, RAW_CEILING),  # above the raw ceiling, no --max-weight
    "H(0,0)": ZERO_CLASS,  # the empty hypersurface
    "2.P(1)": ZERO_CLASS,  # 2 * [P^1] = -4 b[1], zero mod 2
    "b[2]+b[1]": {  # mixed weights, and b[1] is not in the generator ring
        "class": (0, "1*b[1] + 1*b[2]\n", ""),
        "express": (0, "not a polynomial in the generators; witness c_[1]\n", ""),
        "dimq": NOT_A_MEMBER,
        "bound": (0, "main bound: 1\n", ""),
        "realize": NOT_A_MEMBER,
    },
}


@pytest.mark.parametrize("command", list(ZERO_CLASS))
@pytest.mark.parametrize("text", list(INPUT_LIMITS))
def test_documented_input_limits(capsys, command, text):
    order = ["-q", "2"] if command in ("dimq", "bound", "realize") else []
    assert run(capsys, command, text, "-p", "2", *order) == INPUT_LIMITS[text][command]


def test_expression_truncation(capsys):
    code, out, _ = run(capsys, "class", "P(4)", "-p", "2", "--max-weight", "3", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["maxWeight"] == 3 and blob["terms"] == []


def test_h_swap_note_on_stderr(capsys):
    code, out_a, err = run(capsys, "class", "H(4,2)", "-p", "2")
    assert code == 0 and "normalized" in err
    _, out_b, _ = run(capsys, "class", "H(2,4)", "-p", "2")
    assert out_a == out_b


def test_cache_env_override_and_determinism(capsys, tmp_path, monkeypatch):
    env_cache = tmp_path / "env-cache.json"
    monkeypatch.setenv("COBORDLAB_CACHE", str(env_cache))
    argv = ["express", "P(4)", "-p", "2", "--json", "--cache", str(tmp_path / "flag-cache.json")]
    code, first, _ = run(capsys, *argv)
    assert code == 0
    assert env_cache.exists()  # the environment wins over --cache
    assert not (tmp_path / "flag-cache.json").exists()
    code, second, _ = run(capsys, *argv)  # cache hit
    assert code == 0
    assert first == second  # byte-identical across cache states


def test_cold_cache_is_saved_once(capsys, tmp_path, monkeypatch):
    saves = []
    real_save = GeneratorFamily._save_cache

    def spy(self, max_index):
        saves.append(max_index)
        real_save(self, max_index)

    monkeypatch.setattr(GeneratorFamily, "_save_cache", spy)
    code, _, _ = run(capsys, "dimq", "-p", "2", "-q", "4", "P(20)")
    assert code == 0
    assert saves == [20]
    monkeypatch.undo()
    reference = tmp_path / "reference.json"
    standard_generators(2, max_index=20, cache_path=str(reference))
    assert (tmp_path / "cache.json").read_bytes() == reference.read_bytes()


def test_selftest_json(capsys):
    code, out, _ = run(capsys, "selftest", "--json")
    blob = json.loads(out)
    assert code == 0
    assert blob["failed"] == 0 and blob["passed"] == 12
    assert len(blob["checks"]) == 12
    assert all(row["ok"] and "detail" not in row for row in blob["checks"])
    assert all(isinstance(row["seconds"], float) and row["seconds"] >= 0 for row in blob["checks"])
    names = [row["name"] for row in blob["checks"]]
    assert names[0] == "projective-4-class" and names[-1] == "action-soundness"


def test_contract_check_survives_optimize_flag():
    # under python -O a bare assert vanishes; the dimq cross-check must still exit 3
    script = (
        "import sys\n"
        "import cobordlab.cli as cli\n"
        "cli.dim_q_via_generators = lambda x, q, fam=None: -7\n"
        "sys.exit(cli.main(['dimq', 'P(4)', '-p', '2', '-q', '2']))\n"
    )
    src = str(Path(cobordlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "dimension disagreement" in proc.stderr
    assert proc.stdout == ""
