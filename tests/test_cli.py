import gc
import importlib.util
import json
import os
import re
import shlex
import time
from fractions import Fraction
from pathlib import Path

import pytest

from amenlab import cli, f2
from amenlab.cli import _envelope, build_parser, main
from amenlab.groups import ball
from amenlab.linprog import LinearSystem, solve_feasibility, verify_certificate
from amenlab.rationals import fmt_q, sha256_digest

Z = '{"kind":"free_abelian","rank":1}'
F2 = '{"kind":"free","generators":["a","b"]}'
BENCH = Path(__file__).resolve().parents[1] / "bench"
Z5 = '{"kind":"cyclic","order":5}'
FAMILY = '{"ground":["x","y"],"members":[["x"]]}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_envelope(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_balance_envelope(capsys):
    code, env = run_envelope(capsys, "balance", "--family", FAMILY)
    assert code == 0
    assert env["tool"] == "amenlab"
    assert env["result"]["deficiency"] == "1/1"
    assert env["digest"].startswith("sha256:")


def test_envelope_determinism(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    code1, _ = run(capsys, "balance", "--family", FAMILY, "--out", str(out1))
    code2, _ = run(capsys, "balance", "--family", FAMILY, "--out", str(out2))
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_roundtrips(capsys, tmp_path):
    jobs = [
        ("balance", ["balance", "--family", FAMILY]),
        ("unbalance", ["unbalance-witness", "--family", FAMILY]),
        ("ramsey", ["ramsey-check", "--group", Z, "--m", "1", "--n", "2", "--eps", "1/2"]),
        ("folner", ["folner-function", "--group", Z, "--k", "1", "--window-radius", "4"]),
        ("weighted", ["weighted-folner", "--group", Z, "--m", "1", "--n", "2"]),
        ("inf", ["f2-infeasible", "8", "1/100", "2"]),
        (
            "search",
            [
                "realize-search", "--group", F2, "--window-radius", "1",
                "--f", '{"e":"0/1","a":"1/1","A":"1/1","b":"-1/1","B":"-1/1"}',
                "--radius", "2",
            ],
        ),
    ]
    for name, argv in jobs:
        path = tmp_path / f"{name}.json"
        code, _ = run(capsys, *argv, "--out", str(path))
        assert code == 0, name
        vcode, vout = run(capsys, "verify", str(path))
        assert vcode == 0, (name, vout)
        assert '"certificates": "ok"' in vout


def test_verify_detects_tampering(capsys, tmp_path):
    path = tmp_path / "bal.json"
    code, _ = run(capsys, "balance", "--family", FAMILY, "--out", str(path))
    assert code == 0
    env = json.loads(path.read_text())
    env["result"]["deficiency"] = "0/1"
    path.write_text(json.dumps(env))
    vcode, _ = run(capsys, "verify", str(path))
    assert vcode == 1  # digest no longer matches

    # re-digest the tampered body: certificates must still fail
    body = {k: env[k] for k in ("tool", "version", "job", "result")}
    env["digest"] = sha256_digest(body)
    path.write_text(json.dumps(env))
    vcode2, vout = run(capsys, "verify", str(path))
    assert vcode2 == 1
    assert "FAILED" in vout


def test_negative_verdicts_exit_zero(capsys):
    code, env = run_envelope(
        capsys, "ramsey-check", "--group", F2, "--m", "1", "--n", "2",
        "--eps", "0/1", "--method", "pictures",
    )
    assert code == 0
    assert env["result"]["is_ramsey"] is False
    code2, env2 = run_envelope(capsys, "f2-infeasible", "8", "1/100", "2")
    assert code2 == 0
    assert env2["result"]["status"] == "infeasible"


def test_cap_exhaustion_exit_two(capsys):
    # ball(Z, 12) has 25 elements, past the enumeration cap of 24
    code, _ = run(capsys, "ramsey-check", "--group", Z, "--m", "1", "--n", "12", "--eps", "1/2")
    assert code == 2
    assert main(["f2-infeasible", "9", "1/2", "2"]) == 2
    assert capsys.readouterr().err == "cap exhausted: translate count capped at 8\n"


def test_error_exits_one(capsys):
    assert run(capsys, "balance", "--family", '{"broken')[0] == 1
    assert run(capsys, "ramsey-check", "--group", Z, "--m", "1", "--n", "1", "--eps", "1/0")[0] == 1


@pytest.mark.parametrize(
    "argv, code",
    [
        (["balance", "--family", FAMILY], 0),
        (["balance", "--family", '{"broken'], 1),
        (["f2-infeasible", "9", "1/2", "2"], 2),
        (["no-such-command"], None),  # argparse exits
    ],
)
def test_main_freezes_the_collector_for_the_job_only(capsys, monkeypatch, argv, code):
    frozen = []
    run_job = cli._run

    def recording(command, args):
        frozen.append(gc.get_freeze_count())
        return run_job(command, args)

    monkeypatch.setattr(cli, "_run", recording)
    if code is None:
        with pytest.raises(SystemExit):
            main(argv)
    else:
        assert main(argv) == code
        assert frozen and frozen[0] > 0
    assert gc.get_freeze_count() == 0
    assert run(capsys, "ramsey-check", "--group", Z, "--m", "1", "--n", "1", "--eps", "0.5")[0] == 1
    assert (
        run(capsys, "ramsey-check", "--group", '{"kind":"free_abelian","rank":1,"x":2}',
            "--m", "1", "--n", "1", "--eps", "1/2")[0]
        == 1
    )
    # boost ramps free groups by height, which only rank 2 has
    for generators in ('["a"]', '["a","b","c"]'):
        group = f'{{"kind":"free","generators":{generators}}}'
        assert error_line(capsys, "boost", "--group", group, "--m", "1", "--eps", "3/4") == 1


def test_group_from_file(capsys, tmp_path):
    gpath = tmp_path / "group.json"
    gpath.write_text(Z)
    code, env = run_envelope(
        capsys, "ramsey-check", "--group", str(gpath), "--m", "1", "--n", "2",
        "--eps", "1/2",
    )
    assert code == 0
    assert env["job"]["group"] == {"kind": "free_abelian", "rank": 1}


def test_boost_and_verify(capsys, tmp_path):
    path = tmp_path / "boost.json"
    code, _ = run(capsys, "boost", "--group", Z, "--m", "1", "--eps", "3/4",
                  "--out", str(path))
    assert code == 0
    vcode, _ = run(capsys, "verify", str(path))
    assert vcode == 0


def test_f2_verify_identities(capsys):
    code, env = run_envelope(capsys, "f2-verify", "--identities", "5")
    assert code == 0
    assert env["result"]["ok"] is True
    code2, env2 = run_envelope(capsys, "f2-verify", "--disjoint", "3", "5")
    assert code2 == 0
    assert env2["result"]["ok"] is True


def test_pictures_command(capsys, tmp_path):
    path = tmp_path / "pics.json"
    code, env = run_envelope(
        capsys, "pictures", "--group", F2, "--window-radius", "1",
        "--target", '{"kind":"first_letter","letters":["a","A"]}',
        "--domain-radius", "2", "--out", str(path),
    )
    assert code == 0
    assert len(env["result"]["family"]["members"]) == 6
    assert run(capsys, "verify", str(path))[0] == 0


def test_function_table_csv(capsys, tmp_path):
    path = tmp_path / "table.json"
    code, out = run(
        capsys, "function-table", "--group", Z5, "--m-max", "1", "--k-max", "2",
        "--window-radius", "2", "--n-max", "3", "--out", str(path),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "quantity,m,k,value,status"
    assert any(line.startswith("folner,") for line in lines)
    env = json.loads(path.read_text())
    assert env["result"]["harness"]["all_hold"] is True
    assert run(capsys, "verify", str(path))[0] == 0


def test_oversized_table_exits_two(capsys):
    n = 257  # past groups.ASSOCIATIVITY_CHECK_LIMIT
    group = json.dumps({"kind": "finite_table", "table": [[(i + j) % n for j in range(n)]
                                                          for i in range(n)]})
    assert run(capsys, "weighted-folner", "--group", group, "--m", "1", "--n", "1") == (2, "")


def test_function_table_cap_exits_two_without_envelope(capsys, tmp_path):
    # 2^25 normalized Folner candidates exceed the search cap
    path = tmp_path / "table.json"
    code, _ = run(
        capsys, "function-table", "--group", Z, "--window-radius", "25",
        "--n-max", "1", "--k-max", "1", "--out", str(path),
    )
    assert code == 2
    assert not path.exists()


def test_verify_rejects_altered_boost_gap(capsys, tmp_path):
    path = tmp_path / "boost.json"
    assert run(capsys, "boost", "--group", Z, "--m", "1", "--eps", "3/4",
               "--out", str(path))[0] == 0
    env = json.loads(path.read_text())
    env["result"]["final_gap"] = "0/1"
    body = {k: env[k] for k in ("tool", "version", "job", "result")}
    env["digest"] = sha256_digest(body)
    path.write_text(json.dumps(env))
    vcode, vout = run(capsys, "verify", str(path))
    assert vcode == 1
    assert "FAILED" in vout


def usage_exit_code(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def test_missing_required_argument_exits_one(capsys):
    assert usage_exit_code(["ramsey-check", "--group", Z, "--m", "1"]) == 1
    assert "required" in capsys.readouterr().err


def test_malformed_integer_exits_one(capsys):
    argv = ["ramsey-check", "--group", Z, "--m", "x", "--n", "1", "--eps", "1/2"]
    assert usage_exit_code(argv) == 1
    assert "invalid int value" in capsys.readouterr().err


def test_unknown_command_exits_one(capsys):
    assert usage_exit_code(["no-such-command"]) == 1
    assert "invalid choice" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert usage_exit_code(["--help"]) == 0
    assert usage_exit_code(["ramsey-check", "--help"]) == 0
    # the enumeration cap is a constant: no command takes --cap
    for argv in (
        RAMSEY_Z,
        ["ramsey-function", "--group", Z, "--m", "1", "--eps", "1/2", "--n-max", "2"],
        ["function-table", "--group", Z5],
    ):
        capsys.readouterr()
        assert usage_exit_code([argv[0], "--help"]) == 0
        assert "--cap" not in capsys.readouterr().out
        assert usage_exit_code([*argv, "--cap=-5"]) == 1
        assert "unrecognized arguments: --cap=-5" in capsys.readouterr().err


def parse_outcome(parser, argv, capsys):
    """(exit code or None, parsed arguments or None, stdout, stderr) of one parse."""
    try:
        code, parsed = None, vars(parser.parse_args(argv))
    except SystemExit as exc:
        code, parsed = exc.code, None
    out = capsys.readouterr()
    return code, parsed, out.out, out.err


def bad_value(command):
    """argv giving the command's first typed argument a bad value, or its first
    option no value when none is typed."""
    for flags, options in command.arguments:
        if "type" in options:
            return [command.name, *[f for f in flags[:1] if f.startswith("-")], "x"]
    return [command.name, command.arguments[0][0][0]]


@pytest.mark.parametrize("name", sorted(cli.COMMANDS))
def test_a_command_alone_parses_and_prints_as_the_full_parser(capsys, name):
    parser = build_parser([name])
    [choices] = [a.choices for a in parser._actions if a.dest == "command"]
    assert list(choices) == [name]
    for argv in (
        [name, "--help"],
        [name, "--no-such-option"],  # a required argument missing, or unrecognized
        [name, "--out", "x", "extra"],
        bad_value(cli.COMMANDS[name]),
    ):
        outcome = parse_outcome(build_parser(argv), argv, capsys)
        assert outcome == parse_outcome(build_parser(), argv, capsys)
        assert outcome[0] in (0, 1) and outcome[2] + outcome[3]


@pytest.mark.parametrize(
    "argv", [["--help"], [], ["no-such-command"], ["verify"], ["verify", "--help"]]
)
def test_any_other_argv_gets_the_full_parser(capsys, argv):
    [choices] = [a.choices for a in build_parser(argv)._actions if a.dest == "command"]
    assert list(choices) == [*cli.COMMANDS, "verify"]
    outcome = parse_outcome(build_parser(argv), argv, capsys)
    assert outcome == parse_outcome(build_parser(), argv, capsys)
    assert outcome[0] in (0, 1)


def test_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["amenlab", "balance", "--family", FAMILY])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["result"]["deficiency"] == "1/1"


def test_ramsey_function_has_one_route(capsys):
    assert usage_exit_code(["ramsey-function", "--help"]) == 0
    assert "--method" not in capsys.readouterr().out


def readme_commands():
    """argv of every `amenlab ...` line in README's sh blocks, with $Z and $F2 filled in."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = "".join(re.findall(r"```sh\n(.*?)```", readme, re.S)).replace("\\\n", " ")
    commands = [shlex.split(line) for line in lines.splitlines() if line.startswith("amenlab ")]
    return [[{"$Z": Z, "$F2": F2}.get(arg, arg) for arg in argv[1:]] for argv in commands]


def test_readme_commands_parse(capsys):
    commands = readme_commands()
    assert len(commands) >= 10
    for argv in commands:
        # each parses, alike with its command's parser alone and the full one
        parsed = parse_outcome(build_parser(argv), argv, capsys)
        assert parsed == parse_outcome(build_parser(), argv, capsys) and parsed[0] is None


def _load_bench_module(name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_render(monkeypatch):
    """Make `cli._render` require its text to be json.dumps's, byte for byte;
    the list returned collects every text it renders."""
    render, rendered = cli._render, []

    def checked(env):
        text = render(env)
        expected = json.dumps(env, indent=2, sort_keys=True) + "\n"
        same = text == expected  # a plain bool: pytest's diff of two large envelopes takes minutes
        assert same, f"render differs from json.dumps at offset {len(os.path.commonprefix([text, expected]))}"
        rendered.append(text)
        return text

    monkeypatch.setattr(cli, "_render", checked)
    return rendered


def test_render_matches_json_dumps_on_edge_values():
    values = [
        {},
        [],
        {"a": {}, "b": [], "c": [{}, []], "d": {"e": {"f": []}}},
        [[], [[]], [{}], {"x": [[], {}]}],
        {"name": "Følner \u2014 ∑ \"q\"\n\t\\", "é": ["ü", "\U0001d53d"]},
        {"t": True, "f": False, "n": None, "i": [0, -7, 10**40], "s": ""},
        {"tuple": (1, ("a", ())), "z": 1, "A": 2, "a": 3, "": 4},
        # a list of strings is written as one piece; any other list item by item
        ["1/2", "é\n", ""], ("x",), ["1/2", 0, None], [[7], ["0/1", "1/1"], ("q", 2)],
        [1, [], "s"], [{}, None], ["a", {"b": [None]}],
        "plain", 5, True, None,
    ]
    for value in values:
        assert cli._render(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


GOLDEN = json.loads((BENCH / "golden.json").read_text())
GOLDEN_JOBS = [
    (workload, job["argv"])
    for workload in sorted(GOLDEN["workloads"])
    for job in _load_bench_module("jobgen").generate(workload, GOLDEN["seed"])
]


@pytest.mark.parametrize(
    "workload, argv", GOLDEN_JOBS, ids=[" ".join(argv) for _, argv in GOLDEN_JOBS]
)
def test_golden_corpus_digest(capsys, tmp_path, monkeypatch, workload, argv):
    # the benchmark's recorded corpus, run in process; bench/ files are only read
    rendered = check_render(monkeypatch)
    path = tmp_path / "env.json"
    assert main(argv + ["--out", str(path)]) == 0
    assert rendered == [path.read_text()]
    capsys.readouterr()
    digest = json.loads(path.read_text())["digest"]
    assert digest == GOLDEN["workloads"][workload][" ".join(argv)]


# digests of the README examples of the commands the golden corpus
# (test_golden_corpus_digest) does not cover;
# ramsey-function's job no longer echoes a "method", since it has one route
README_DIGESTS = {
    "ramsey-function": "1e0f31ace6b39286d1f3ff64a77a5d86dccff3b1c037b0a5c9b2b91dca2a2d57",
    "balance": "cf224e42921c2a56e9ecea675b6b67f2894c8a55572c3d499ee2cd64414cee2c",
    "unbalance-witness": "e56bc02d62640fb5dc98912a2041d833dbfcf6bc451abd8481e9ab5b2a33edb9",
    "folner-check": "35fb167372066936cfaa2e4acf84333dbd55d671797518337cc3de8e5969f692",
    "folner-function": "967dcc756bb982e7aac77413de97185cd93d3be296dd2b79c998364e4cd7f668",
    "weighted-folner": "dabf84b82fd996444ef7fe459b0c92e5526f4d97ad5223aa9762b24910787ab1",
    "pictures": "b517c17e8579d139b72fd8101686f0b2e6d3168e1321b6815f06d60879fb13e4",
    "realize-search": "e4884179b88c22ac47cdb9796a2e5c1ae505cd304809d7d7eb4abc95d1579598",
    "boost": "30efeebdc23ca6914822124cb0ed7d26fe1344408ee7dcb7e0a616cb60778a01",
}


VERIFY_OK = '{{"command": "{}", "digest": "ok", "certificates": "ok"}}\n'


@pytest.mark.parametrize("command", sorted(README_DIGESTS))
def test_readme_example_digest_is_pinned(capsys, tmp_path, monkeypatch, command):
    (argv,) = [argv for argv in readme_commands() if argv[0] == command]
    rendered = check_render(monkeypatch)
    path = tmp_path / "env.json"
    code, env = run_envelope(capsys, *argv, "--out", str(path))
    assert code == 0
    assert rendered == [path.read_text()]
    assert env["digest"] == "sha256:" + README_DIGESTS[command]
    assert run(capsys, "verify", str(path)) == (0, VERIFY_OK.format(command))


def forge(path, change):
    """Apply `change` to the envelope at path and recompute its digest."""
    env = json.loads(path.read_text())
    change(env)
    env["digest"] = sha256_digest({k: env[k] for k in ("tool", "version", "job", "result")})
    path.write_text(json.dumps(env))


def test_verify_rejects_no_admissible_claim_with_nonempty_interior(capsys, tmp_path):
    path = tmp_path / "weighted.json"
    assert run(capsys, "weighted-folner", "--group", Z, "--m", "1", "--n", "3",
               "--out", str(path))[0] == 0
    forge(path, lambda env: env["result"].update(status="no_admissible", value=None, measure=None))
    vcode, vout = run(capsys, "verify", str(path))
    assert vcode == 1
    assert "FAILED" in vout
    # an honest no_admissible envelope: ball(2) has no translate inside ball(1)
    assert run(capsys, "weighted-folner", "--group", Z, "--m", "2", "--n", "1",
               "--out", str(path))[0] == 0
    assert json.loads(path.read_text())["result"]["status"] == "no_admissible"
    assert run(capsys, "verify", str(path))[0] == 0


def test_verify_folner_check_uses_the_job_eps(capsys, tmp_path):
    path = tmp_path / "folner.json"
    argv = ["folner-check", "--group", Z, "--a-set", '["1"]', "--eps", "1/2", "--out", str(path)]
    assert run(capsys, *argv, "--b-set", '["0","1","2","3"]')[0] == 0
    forge(path, lambda env: env["job"].update(eps="1/4"))
    vcode, vout = run(capsys, "verify", str(path))
    assert vcode == 1
    assert "FAILED" in vout
    # a repeated element is echoed in the job but counted once
    assert run(capsys, *argv, "--b-set", '["0","0","1","2","3"]')[0] == 0
    assert run(capsys, "verify", str(path)) == (0, VERIFY_OK.format("folner-check"))


def test_verify_reports_missing_field_as_failed(capsys, tmp_path):
    path = tmp_path / "bal.json"
    assert run(capsys, "balance", "--family", FAMILY, "--out", str(path))[0] == 0
    forge(path, lambda env: env["result"].pop("witness"))
    vcode, vout = run(capsys, "verify", str(path))
    assert vcode == 1
    assert json.loads(vout)["certificates"] == "FAILED"


def test_verify_rejects_balanced_claim_without_balance_witness(capsys, tmp_path):
    path = tmp_path / "unbalance.json"
    assert run(capsys, "unbalance-witness", "--family", FAMILY, "--out", str(path))[0] == 0
    forge(path, lambda env: env["result"].update(balanced=True, witness=None))
    vcode, vout = run(capsys, "verify", str(path))
    assert vcode == 1
    assert json.loads(vout)["certificates"] == "FAILED"
    # an honest balanced family carries its zero-gap balance witness
    balanced = '{"ground":["x","y"],"members":[["x"],["y"]]}'
    assert run(capsys, "unbalance-witness", "--family", balanced, "--out", str(path))[0] == 0
    assert json.loads(path.read_text())["result"]["balance_witness"]["gap"] == "0/1"
    assert run(capsys, "verify", str(path)) == (0, VERIFY_OK.format("unbalance-witness"))


@pytest.mark.parametrize("command", ["balance", "unbalance-witness"])
def test_verify_rejects_result_for_another_family(capsys, tmp_path, command):
    balanced, path = tmp_path / "balanced.json", tmp_path / "forged.json"
    pair = '{"ground":["x","y"],"members":[["x"],["y"]]}'
    assert run(capsys, command, "--family", pair, "--out", str(balanced))[0] == 0
    assert run(capsys, command, "--family", FAMILY, "--out", str(path))[0] == 0
    honest = json.loads(balanced.read_text())["result"]
    forge(path, lambda env: env.update(result=honest))
    vcode, vout = run(capsys, "verify", str(path))
    assert vcode == 1
    assert json.loads(vout)["certificates"] == "FAILED"


def test_verify_rejects_non_object_job(capsys, tmp_path):
    path = tmp_path / "unbalance.json"
    assert run(capsys, "unbalance-witness", "--family", FAMILY, "--out", str(path))[0] == 0
    forge(path, lambda env: env.update(job=["unbalance-witness"]))
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "verify: envelope has unexpected shape\n"


def ramsey_envelope(capsys, path, *argv):
    code, _ = run(capsys, "ramsey-check", "--group", Z, "--out", str(path), *argv)
    assert code == 0
    return json.loads(path.read_text())


def verify_status(capsys, path):
    vcode, vout = run(capsys, "verify", str(path))
    return vcode, json.loads(vout)["certificates"]


def test_verify_rejects_flipped_ramsey_verdict(capsys, tmp_path):
    path = tmp_path / "ramsey.json"
    env = ramsey_envelope(capsys, path, "--m", "1", "--n", "1", "--eps", "1/2")
    assert env["result"]["is_ramsey"] is False
    assert verify_status(capsys, path) == (0, "ok")

    def flip(env):
        env["result"]["is_ramsey"] = True
        del env["result"]["counterexample"]

    forge(path, flip)
    assert verify_status(capsys, path) == (1, "FAILED")


def test_verify_rejects_a_dropped_family_witness(capsys, tmp_path):
    path = tmp_path / "ramsey.json"
    env = ramsey_envelope(capsys, path, "--m", "1", "--n", "3", "--eps", "1/2",
                          "--method", "pictures")
    assert env["result"]["is_ramsey"] is True
    assert len(env["result"]["family_witnesses"]) > 1
    assert verify_status(capsys, path) == (0, "ok")
    forge(path, lambda env: env["result"]["family_witnesses"].pop(1))
    assert verify_status(capsys, path) == (1, "FAILED")


def test_verify_rejects_a_dropped_subset_witness(capsys, tmp_path):
    path = tmp_path / "ramsey.json"
    env = ramsey_envelope(capsys, path, "--m", "1", "--n", "3", "--eps", "1/2")
    assert len(env["result"]["witnesses"]) == 2 ** len(env["result"]["products"])
    assert verify_status(capsys, path) == (0, "ok")
    forge(path, lambda env: env["result"]["witnesses"].pop("5"))
    assert verify_status(capsys, path) == (1, "FAILED")


# only the direct route drops witnesses: past WITNESS_MASK_LIMIT (4096) subsets
@pytest.mark.parametrize("method", ["direct"])
def test_verify_reports_none_without_witnesses(capsys, tmp_path, method):
    path = tmp_path / "ramsey.json"
    env = ramsey_envelope(capsys, path, "--m", "1", "--n", "6", "--eps", "1/2",
                          "--method", method)
    assert env["result"]["is_ramsey"] is True and env["job"]["witnesses"] is True
    assert env["result"]["subsets_checked"] == 8192 and "witnesses" not in env["result"]
    assert verify_status(capsys, path) == (0, "none")
    # every run collects witnesses: a job that says otherwise fails
    forge(path, lambda env: env["job"].update(witnesses=False))
    assert verify_status(capsys, path) == (1, "FAILED")
    # below the limit, a positive verdict without its witnesses fails
    ramsey_envelope(capsys, path, "--m", "1", "--n", "3", "--eps", "1/2", "--method", method)
    forge(path, lambda env: env["result"].pop("witnesses"))
    assert verify_status(capsys, path) == (1, "FAILED")


def test_verify_rejects_a_counterexample_family_of_another_subset(capsys, tmp_path):
    path = tmp_path / "ramsey.json"
    env = ramsey_envelope(capsys, path, "--m", "1", "--n", "1", "--eps", "1/2",
                          "--method", "pictures")
    assert env["result"]["counterexample"]["E_mask"] > 0
    assert verify_status(capsys, path) == (0, "ok")

    def move_to_the_empty_subset(env):
        env["result"]["counterexample"].update(E_mask=0, E=[])
        env["result"]["subsets_checked"] = 1

    forge(path, move_to_the_empty_subset)
    assert verify_status(capsys, path) == (1, "FAILED")


@pytest.mark.parametrize(
    "field, value",
    [("subsets_checked", 128.0), ("is_ramsey", 1), ("reason", "no_witness"), ("note", "x")],
)
def test_verify_rejects_mistyped_ramsey_verdict_fields(capsys, tmp_path, field, value):
    # 128.0 == 1 << 7 and 1 == True: only the JSON types tell the forgery apart; only an
    # empty interior gives a reason, and no verdict writes a note
    path = tmp_path / "ramsey.json"
    env = ramsey_envelope(capsys, path, "--m", "1", "--n", "3", "--eps", "1/2",
                          "--method", "pictures")
    assert env["result"]["subsets_checked"] == 128 and env["result"]["is_ramsey"] is True
    assert verify_status(capsys, path) == (0, "ok")
    forge(path, lambda env: env["result"].update({field: value}))
    assert verify_status(capsys, path) == (1, "FAILED")


def test_verify_rejects_a_boolean_counterexample_mask(capsys, tmp_path):
    path = tmp_path / "ramsey.json"
    env = ramsey_envelope(capsys, path, "--m", "1", "--n", "1", "--eps", "1/2",
                          "--method", "pictures")
    assert env["result"]["counterexample"]["E_mask"] == 1
    assert verify_status(capsys, path) == (0, "ok")
    forge(path, lambda env: env["result"]["counterexample"].update(E_mask=True))
    assert verify_status(capsys, path) == (1, "FAILED")


@pytest.mark.parametrize(
    "argv, part",
    [
        (["--n", "2", "--method", "pictures"], lambda result: result["family_witnesses"][0]),
        (["--n", "1", "--method", "direct"], lambda result: result["counterexample"]),
        (["--n", "1", "--method", "direct"], lambda result: result["counterexample"]["payload"]),
    ],
    ids=["family-witness", "counterexample", "counterexample-payload"],
)
def test_verify_rejects_an_unknown_field_inside_a_ramsey_verdict(capsys, tmp_path, argv, part):
    path = tmp_path / "ramsey.json"
    ramsey_envelope(capsys, path, "--m", "1", "--eps", "1/2", *argv)
    assert verify_status(capsys, path) == (0, "ok")
    forge(path, lambda env: part(env["result"]).update(note="x"))
    assert verify_status(capsys, path) == (1, "FAILED")


def invariance_result(capsys, path, delta):
    assert run(capsys, "f2-infeasible", "8", delta, "2", "--out", str(path))[0] == 0
    return json.loads(path.read_text())["result"]


# (delta of the run, field, forged value); a certificate field copies the run at `value`
@pytest.mark.parametrize(
    "delta, field, value",
    [
        pytest.param("1/100", "K", "8", id="K-8"),
        pytest.param("1/100", "radius", 2.5, id="radius-2.5"),
        pytest.param("1/25", "status", "maybe", id="status-maybe"),
        pytest.param("1/25", "measure", "10/11", id="measure-of-a-feasible-run"),
        pytest.param("10/11", "farkas", "1/25", id="farkas-of-an-infeasible-run"),
    ],
)
def test_verify_rejects_mistyped_invariance_fields(capsys, tmp_path, delta, field, value):
    # int("8") == 8 and int(2.5) == 2 would echo the job's K = 8 and r = 2; an unknown
    # status once read as infeasible, and a second certificate rode along unchecked
    if field in ("measure", "farkas"):
        value = invariance_result(capsys, tmp_path / "other.json", value)[field]
    path = tmp_path / "inf.json"
    invariance_result(capsys, path, delta)
    assert verify_status(capsys, path) == (0, "ok")
    forge(path, lambda env: env["result"].update({field: value}))
    assert verify_status(capsys, path) == (1, "FAILED")


@pytest.mark.parametrize("argv", [["--identities", "4"], ["--disjoint", "3", "4"]])
def test_verify_recomputes_f2_scans(capsys, tmp_path, argv):
    path = tmp_path / "f2.json"
    assert run(capsys, "f2-verify", *argv, "--out", str(path))[0] == 0
    assert verify_status(capsys, path) == (0, "ok")
    forge(path, lambda env: env["result"]["checks"][0].update(checked=1))
    assert verify_status(capsys, path) == (1, "FAILED")


def test_verify_rechecks_folner_function_exact_flag(capsys, tmp_path):
    (argv,) = [argv for argv in readme_commands() if argv[0] == "folner-function"]
    path = tmp_path / "folner.json"
    env = run_envelope(capsys, *argv, "--out", str(path))[1]
    assert env["result"]["exact"] is True
    forge(path, lambda env: env["result"].update(exact=False))
    assert verify_status(capsys, path) == (1, "FAILED")


def test_verify_rejects_an_inflated_folner_size(capsys, tmp_path):
    path = tmp_path / "folner.json"
    env = run_envelope(capsys, "folner-function", "--group", Z, "--k", "1",
                       "--window-radius", "4", "--out", str(path))[1]
    assert env["result"]["size"] == 2
    assert verify_status(capsys, path) == (0, "ok")
    result = dict(env["result"], size=3, witness=["0", "1", "2"], exact=False,
                  note="exceeds the shift-boundary lower bound; window may be too small")
    path.write_text(json.dumps(_envelope(env["job"], result)))
    assert verify_status(capsys, path) == (1, "FAILED")


def test_verify_rejects_unknown_group_field(capsys, tmp_path):
    path = tmp_path / "weighted.json"
    assert run(capsys, "weighted-folner", "--group", Z, "--m", "1", "--n", "2",
               "--out", str(path))[0] == 0
    forge(path, lambda env: env["job"]["group"].update(x=2))
    assert verify_status(capsys, path) == (1, "FAILED")


def readme_argv(command):
    (argv,) = [argv for argv in readme_commands() if argv[0] == command]
    return argv


def readme_envelope(capsys, path, command):
    assert run(capsys, *readme_argv(command), "--out", str(path))[0] == 0
    return json.loads(path.read_text())


def test_verify_rejects_boost_result_for_another_eps(capsys, tmp_path):
    path = tmp_path / "boost.json"
    assert run(capsys, "boost", "--group", Z5, "--m", "1", "--eps", "9/16",
               "--out", str(path))[0] == 0
    assert verify_status(capsys, path) == (0, "ok")
    forge(path, lambda env: env["result"].update(eps="1/1", measure={"0": "1/1"}, final_gap="1/1"))
    assert verify_status(capsys, path) == (1, "FAILED")


def test_verify_rejects_boost_job_with_another_ramp(capsys, tmp_path):
    # a flatter ramp than the job's m and eps call for makes a point mass pass
    path = tmp_path / "boost.json"
    assert run(capsys, "boost", "--group", Z, "--m", "1", "--eps", "9/16",
               "--out", str(path))[0] == 0

    def flatten(env):
        env["job"]["ramp_radius"] = 10**6
        env["result"].update(measure={"0": "1/1"}, final_gap="1/1000000")

    forge(path, flatten)
    assert verify_status(capsys, path) == (1, "FAILED")


def test_verify_rejects_a_boolean_realize_search_radius(capsys, tmp_path):
    # True == 1, so only the JSON type tells a --radius 1 certificate from this forgery
    path = tmp_path / "search.json"
    f = '{"e":"0/1","a":"1/1","A":"1/1","b":"-1/1","B":"-1/1"}'
    assert run(capsys, "realize-search", "--group", F2, "--window-radius", "1",
               "--f", f, "--radius", "1", "--out", str(path))[0] == 0
    assert json.loads(path.read_text())["result"]["certificate"]["radius"] == 1
    assert verify_status(capsys, path) == (0, "ok")
    forge(path, lambda env: env["result"]["certificate"].update(radius=True))
    assert verify_status(capsys, path) == (1, "FAILED")


def test_verify_rejects_realize_search_certificate_for_another_job(capsys, tmp_path):
    honest = readme_envelope(capsys, tmp_path / "honest.json", "realize-search")
    path = tmp_path / "search.json"
    f = '{"e":"4/1","a":"-1/1","A":"-1/1","b":"-1/1","B":"-1/1"}'
    assert run(capsys, "realize-search", "--group", F2, "--window-radius", "1",
               "--f", f, "--radius", "2", "--out", str(path))[0] == 0
    assert json.loads(path.read_text())["result"] == {"found": False}
    forge(path, lambda env: env.update(result=honest["result"]))
    assert verify_status(capsys, path) == (1, "FAILED")


def test_verify_rejects_weighted_folner_result_for_another_size(capsys, tmp_path):
    path = tmp_path / "weighted.json"
    env = readme_envelope(capsys, path, "weighted-folner")
    assert (env["result"]["m"], env["result"]["n"]) == (1, 3)
    forge(path, lambda env: env["result"].update(m=2, n=5))
    assert verify_status(capsys, path) == (1, "FAILED")


def test_verify_reruns_weighted_folner(capsys, tmp_path):
    # a point mass has defect 4 over ball(1): a valid measure whose value is not the optimum 4/5
    path = tmp_path / "weighted.json"
    env = readme_envelope(capsys, path, "weighted-folner")
    assert env["result"]["value"] == "4/5"
    assert verify_status(capsys, path) == (0, "ok")
    forge(path, lambda env: env["result"].update(measure={"0": "1/1"}, value="4/1"))
    assert verify_status(capsys, path) == (1, "FAILED")


def test_verify_rejects_a_numeric_ramsey_eps(capsys, tmp_path):
    # 1 == 1/1: only the JSON type tells the forgery apart
    path = tmp_path / "ramsey.json"
    env = ramsey_envelope(capsys, path, "--m", "1", "--n", "1", "--eps", "1",
                          "--method", "pictures")
    assert env["result"]["eps"] == "1/1"
    assert verify_status(capsys, path) == (0, "ok")
    forge(path, lambda env: env["result"].update(eps=1))
    assert verify_status(capsys, path) == (1, "FAILED")


def test_verify_rejects_a_measure_with_two_keys_for_one_element(capsys, tmp_path):
    # "-03" and "-3" name one element: the weights as written sum to 6
    path = tmp_path / "boost.json"
    assert boost_envelope(capsys, path)["result"]["measure"] == {"-3": "1/1"}
    forge(path, lambda env: env["result"].update(measure={"-03": "5/1", "-3": "1/1"}))
    assert verify_status(capsys, path) == (1, "FAILED")


def test_verify_rejects_ramsey_elements_that_are_not_strings(capsys, tmp_path):
    path = tmp_path / "ramsey.json"
    env = ramsey_envelope(capsys, path, "--m", "1", "--n", "2", "--eps", "1/2")
    assert env["result"]["interior"] == env["result"]["window"] == ["-1", "0", "1"]
    assert verify_status(capsys, path) == (0, "ok")
    forge(path, lambda env: env["result"].update(interior=[-1, 0, 1], window=[[-1], [0], [1]]))
    assert verify_status(capsys, path) == (1, "FAILED")


def test_verify_rejects_an_aliased_witness_mask(capsys, tmp_path):
    # "05" would read as mask 5: a point mass outside the interior, hidden by the real "5"
    path = tmp_path / "ramsey.json"
    env = ramsey_envelope(capsys, path, "--m", "1", "--n", "2", "--eps", "1/2",
                          "--method", "direct")
    assert "5" in env["result"]["witnesses"] and "5" not in env["result"]["interior"]
    assert verify_status(capsys, path) == (0, "ok")

    def alias(env):
        witnesses = env["result"]["witnesses"]
        env["result"]["witnesses"] = {"05": {"5": "1/1"}, **witnesses}

    forge(path, alias)
    assert verify_status(capsys, path) == (1, "FAILED")


# elements are JSON strings: other JSON types exit 1, with no coercion or traceback
NON_STRING_ELEMENTS = {
    "folner-check": [
        ["--group", F2, "--a-set", "[1]", "--b-set", '["e"]', "--eps", "1/2"],
        ["--group", Z5, "--a-set", "[true, 2.7]", "--b-set", '["1"]', "--eps", "1/2"],
    ],
    "pictures": [
        ["--group", F2, "--window-radius", "1", "--domain-radius", "1",
         "--target", '{"kind":"explicit","elements":[1]}'],
    ],
}


@pytest.mark.parametrize("command, gone", [
    ("folner-check", ("--a-radius", "--b-radius")),
    ("pictures", ("--window-set",)),
])
def test_element_arguments_have_one_form(capsys, command, gone):
    assert usage_exit_code([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert not [flag for flag in gone if flag in out]
    for argv in NON_STRING_ELEMENTS[command]:
        assert error_line(capsys, command, *argv) == 1


def test_verify_reports_none_for_an_exhausted_realize_search(capsys, tmp_path):
    honest = readme_envelope(capsys, tmp_path / "honest.json", "realize-search")
    path = tmp_path / "search.json"
    assert run(capsys, "realize-search", "--group", Z, "--window-radius", "1", "--radius", "4",
               "--f", '{"-1":"1/1","0":"0/1","1":"-1/1"}', "--out", str(path))[0] == 0
    assert json.loads(path.read_text())["result"] == {"found": False}
    assert verify_status(capsys, path) == (0, "none")
    # a result that found nothing carries no certificate
    forge(path, lambda env: env["result"].update(certificate=honest["result"]["certificate"]))
    assert verify_status(capsys, path) == (1, "FAILED")


def boost_envelope(capsys, path):
    assert run(capsys, "boost", "--group", Z, "--m", "1", "--eps", "9/16",
               "--out", str(path))[0] == 0
    assert verify_status(capsys, path) == (0, "ok")
    return json.loads(path.read_text())


def test_verify_rejects_forged_boost_tail_gaps(capsys, tmp_path):
    path = tmp_path / "boost.json"
    assert len(boost_envelope(capsys, path)["result"]["steps"]) == 2

    def zero_gaps(env):
        for step in env["result"]["steps"]:
            step["tail_gap"] = "0/1"

    forge(path, zero_gaps)
    assert verify_status(capsys, path) == (1, "FAILED")


def test_verify_rejects_swapped_boost_step_measures(capsys, tmp_path):
    path = tmp_path / "boost.json"
    steps = boost_envelope(capsys, path)["result"]["steps"]
    assert steps[0]["measure"] != steps[1]["measure"]

    def swap(env):
        first, second = env["result"]["steps"]
        first["measure"], second["measure"] = second["measure"], first["measure"]

    forge(path, swap)
    assert verify_status(capsys, path) == (1, "FAILED")


def test_verify_reruns_ramsey_function(capsys, tmp_path):
    path = tmp_path / "function.json"
    env = readme_envelope(capsys, path, "ramsey-function")
    assert env["result"]["value"] is not None
    forge(path, lambda env: env["result"].update(value=env["result"]["value"] + 1))
    assert verify_status(capsys, path) == (1, "FAILED")


def test_verify_reruns_function_table(capsys, tmp_path):
    path = tmp_path / "table.json"
    assert run(capsys, "function-table", "--group", Z5, "--m-max", "1", "--k-max", "1",
               "--window-radius", "2", "--n-max", "2", "--out", str(path))[0] == 0
    assert verify_status(capsys, path) == (0, "ok")
    row = json.loads(path.read_text())["result"]["rows"][0]
    assert row["quantity"] == "folner" and row["value"] is not None
    forge(path, lambda env: env["result"]["rows"][0].update(value=row["value"] + 1))
    assert verify_status(capsys, path) == (1, "FAILED")


def error_line(capsys, *argv):
    """Exit code and stderr of a run that must fail with one `error:` line."""
    code = main(list(argv))
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return code


@pytest.mark.parametrize("target", [
    '{"kind":"h_above"}',
    '{"kind":"h_above","k":0,"junk":1}',
    '{"kind":"first_letter","letters":"aA"}',
])
def test_pictures_rejects_malformed_target(capsys, target):
    assert error_line(capsys, "pictures", "--group", F2, "--window-radius", "1",
                      "--target", target, "--domain-radius", "1") == 1


def test_f2_verify_rejects_both_scans(capsys):
    assert error_line(capsys, "f2-verify", "--identities", "3", "--disjoint", "2", "3") == 1


@pytest.mark.parametrize("k", ["0", "1"])
def test_f2_verify_rejects_fewer_than_two_translates(capsys, k):
    assert error_line(capsys, "f2-verify", "--disjoint", k, "3") == 1


def test_f2_infeasible_names_the_rational_form(capsys):
    assert main(["f2-infeasible", "8", "0.5", "6"]) == 1
    assert capsys.readouterr().err == "error: rational expected as p/q or an integer, got '0.5'\n"


@pytest.mark.parametrize("family", [
    '{"ground":["x"]}',
    '{"ground":["x"],"members":[["y"]]}',
    '{"ground":[["x"]],"members":[]}',
    '{"ground":["x"],"members":[5]}',
    '{"ground":5,"members":[]}',
    '{"ground":["x"],"members":"x"}',
])
def test_balance_rejects_a_malformed_family(capsys, family):
    assert error_line(capsys, "balance", "--family", family) == 1


@pytest.mark.parametrize("f", [
    '["1/1"]',
    '{"-1":"1/1","1":"-1/1"}',
    '{"-1":"1/1","0":"0/1","1":"-1/1","2":"0/1"}',
    '{"-1":"1/1","0":0,"1":"-1/1"}',
    '{"-1":"1/1","0":"0/1","00":"0/1","1":"-1/1"}',
])
def test_realize_search_rejects_weights_off_the_window(capsys, f):
    assert error_line(capsys, "realize-search", "--group", Z, "--window-radius", "1",
                      "--radius", "2", "--f", f) == 1


def cap_line(capsys, *argv):
    """Exit code and stdout of a run that must stop with one `cap exhausted:` line."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.err.startswith("cap exhausted: ") and captured.err.count("\n") == 1, captured.err
    return code, captured.out


def test_negative_delta_is_refused_by_the_run_and_by_verify(capsys, tmp_path):
    assert error_line(capsys, "f2-infeasible", "--", "8", "-1/25", "2") == 1
    # The LP at delta = -1/25 is infeasible, and its Farkas vector is a valid
    # certificate for it; only the sign of delta can reject the forgery.
    group = f2.f2_group()
    columns = ball(group, 2)
    rows = f2._gap_rows(f2._membership_table(group, columns, 8), Fraction(-1, 25),
                        range(len(columns)))
    system = LinearSystem(len(columns), rows, nonneg=True)
    outcome = solve_feasibility(system)
    assert not outcome.feasible and verify_certificate(system, outcome)
    path = tmp_path / "inf.json"
    assert run(capsys, "f2-infeasible", "8", "1/25", "2", "--out", str(path))[0] == 0

    def negate(env):
        env["job"]["delta"] = env["result"]["delta"] = "-1/25"
        env["result"]["farkas"] = [fmt_q(x) for x in outcome.farkas]

    forge(path, negate)
    assert verify_status(capsys, path) == (1, "FAILED")


@pytest.mark.parametrize("job_field, result_field, value", [("K", "K", 9), ("r", "radius", 7)])
def test_verify_caps_a_forged_invariance_lp(capsys, tmp_path, job_field, result_field, value):
    # verify rebuilds the full LP from the envelope's K and r: the run's caps hold there too
    path = tmp_path / "inf.json"
    assert run(capsys, "f2-infeasible", "8", "1/100", "2", "--out", str(path))[0] == 0

    def enlarge(env):
        env["job"][job_field] = env["result"][result_field] = value

    forge(path, enlarge)
    assert cap_line(capsys, "verify", str(path)) == (2, "")


def test_pictures_caps_the_probe_domain(capsys, tmp_path):
    # ball(F2, 10) has 118,097 words, past the 100,000-word probe cap
    path = tmp_path / "pics.json"
    assert cap_line(
        capsys, "pictures", "--group", F2, "--window-radius", "1",
        "--target", '{"kind":"first_letter","letters":["a","A"]}',
        "--domain-radius", "10", "--out", str(path),
    ) == (2, "")
    assert not path.exists()


def test_boost_caps_the_balls_of_its_tower(capsys, tmp_path):
    # five levels over ball(F2, 1) would reach ball(F2, 32); ball(F2, 8) already has 13,121 words
    path = tmp_path / "boost.json"
    start = time.perf_counter()
    code = cap_line(capsys, "boost", "--group", F2, "--m", "1", "--eps", "1/4", "--out", str(path))
    assert code == (2, "")
    assert time.perf_counter() - start < 1
    assert not path.exists()


def test_boost_caps_its_window(capsys):
    # ball(F2, 12) has 1,062,881 words; the cap stops the window at ball(F2, 6)
    start = time.perf_counter()
    assert cap_line(capsys, "boost", "--group", F2, "--m", "12", "--eps", "3/4") == (2, "")
    assert time.perf_counter() - start < 1


def test_verify_rejects_a_forged_oversize_boost_level(capsys, tmp_path):
    path = tmp_path / "boost.json"
    assert run(capsys, "boost", "--group", F2, "--m", "1", "--eps", "3/4",
               "--out", str(path))[0] == 0
    assert verify_status(capsys, path) == (0, "ok")
    # the size of ball(F2, 16): verify must not build a ball that large to reject it
    forge(path, lambda env: env["result"]["steps"][0].update(next_window_size=86_093_441))
    start = time.perf_counter()
    assert verify_status(capsys, path) == (1, "FAILED")
    assert time.perf_counter() - start < 1


def test_verify_caps_a_forged_realize_search_probe(capsys, tmp_path):
    path = tmp_path / "search.json"
    readme_envelope(capsys, path, "realize-search")

    def widen(env):
        env["job"]["radius"] = env["result"]["certificate"]["radius"] = 10

    forge(path, widen)
    assert cap_line(capsys, "verify", str(path)) == (2, "")


def test_verify_rejects_a_non_optimal_balance_deficiency(capsys, tmp_path):
    # weights (1, 0) are a valid witness of gap 1, but the least gap is 0
    path = tmp_path / "balance.json"
    pair = '{"ground":["x","y"],"members":[["x"],["y"]]}'
    assert run(capsys, "balance", "--family", pair, "--out", str(path))[0] == 0
    assert verify_status(capsys, path) == (0, "ok")

    def worsen(env):
        env["result"].update(deficiency="1/1", balanced=False)
        env["result"]["witness"].update(weights=["1/1", "0/1"], vector=["1/1", "0/1"], gap="1/1")

    forge(path, worsen)
    assert verify_status(capsys, path) == (1, "FAILED")


def respell_measure_key(env):
    env["result"]["measure"] = {"-03": env["result"]["measure"].pop("-3")}


def respell_the_identity(env):
    bset = env["result"]["bset"]
    bset[bset.index("e")] = "aA"


@pytest.mark.parametrize("argv, respell", [
    (["boost", "--group", Z, "--m", "1", "--eps", "9/16"], respell_measure_key),
    (["ramsey-check", "--group", F2, "--m", "1", "--n", "1", "--eps", "1/2",
      "--method", "pictures"], respell_the_identity),
], ids=["boost", "ramsey-check"])
def test_verify_reads_elements_in_canonical_form_only(capsys, tmp_path, argv, respell):
    # "-03" names -3 and "aA" names e, but the tool writes neither
    path = tmp_path / "env.json"
    assert run(capsys, *argv, "--out", str(path))[0] == 0
    assert verify_status(capsys, path) == (0, "ok")
    forge(path, respell)
    assert verify_status(capsys, path) == (1, "FAILED")


@pytest.mark.parametrize("argv, text, canonical", [
    (["folner-check", "--group", Z, "--a-set", '["01"]', "--b-set", '["0","1"]',
      "--eps", "1/2"], "01", "1"),
    (["pictures", "--group", F2, "--window-radius", "1", "--domain-radius", "1",
      "--target", '{"kind":"explicit","elements":["aA"]}'], "aA", "e"),
], ids=["folner-check", "pictures"])
def test_element_arguments_are_read_in_canonical_form_only(capsys, argv, text, canonical):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: element {text!r} is not in its canonical form {canonical!r}\n"


# S3 as permutations of (0, 1, 2) in lexicographic order; 1 and 2 are transpositions
S3 = ('{"kind":"finite_table","generators":[1,2],"table":[[0,1,2,3,4,5],[1,0,4,5,2,3],'
      '[2,3,0,1,5,4],[3,2,5,4,0,1],[4,5,1,0,3,2],[5,4,3,2,1,0]]}')


def test_table_group_ramsey_check_by_both_methods(capsys, tmp_path):
    results = []
    for method in ("direct", "pictures"):
        path = tmp_path / f"{method}.json"
        env = run_envelope(capsys, "ramsey-check", "--group", S3, "--m", "1", "--n", "2",
                           "--eps", "1/2", "--method", method, "--out", str(path))[1]
        assert env["job"]["group"]["generators"] == [1, 2]
        assert verify_status(capsys, path) == (0, "ok")
        results.append(env["result"])
    assert [r["is_ramsey"] for r in results] == [True, True]
    assert [r["interior"] for r in results] == [["0", "1", "2"]] * 2


@pytest.mark.parametrize("radius, exact", [("2", False), ("3", True)])
def test_table_group_folner_function(capsys, tmp_path, radius, exact):
    # ball(2) misses one of the six elements and ball(3) is the whole group
    path = tmp_path / "folner.json"
    env = run_envelope(capsys, "folner-function", "--group", S3, "--k", "1",
                       "--window-radius", radius, "--out", str(path))[1]
    assert (env["result"]["size"], env["result"]["exact"]) == (4, exact)
    assert verify_status(capsys, path) == (0, "ok")


def test_verify_checks_an_empty_interior(capsys, tmp_path):
    # no translate of ball(2) fits in ball(1)
    path = tmp_path / "ramsey.json"
    env = ramsey_envelope(capsys, path, "--m", "2", "--n", "1", "--eps", "1/2")
    assert (env["result"]["is_ramsey"], env["result"]["reason"]) == (False, "empty_interior")
    assert verify_status(capsys, path) == (0, "ok")
    honest = path.read_text()
    # the verdict, its zero subset count and its empty counterexample are all fixed
    for change in (
        lambda result: result.update(is_ramsey=True),
        lambda result: result.update(subsets_checked=1),
        lambda result: result["counterexample"].update(E_mask=3),
        lambda result: result.pop("counterexample"),
    ):
        path.write_text(honest)
        forge(path, lambda env: change(env["result"]))
        assert verify_status(capsys, path) == (1, "FAILED")


def test_folner_function_reports_no_set_inside_a_small_window(capsys, tmp_path):
    # no 1/2-Folner set of Z fits in ball(1); verify reruns the job to the same null size
    path = tmp_path / "folner.json"
    env = run_envelope(capsys, "folner-function", "--group", Z, "--k", "2",
                       "--window-radius", "1", "--out", str(path))[1]
    result = env["result"]
    assert (result["size"], result["exact"]) == (None, False)
    assert result["note"] == "no Folner set inside the window"
    assert verify_status(capsys, path) == (0, "ok")


FAMILY_3 = '{"ground":["x","y","z"],"members":[["x"],["y","z"]]}'
PROGRESSION = '{"kind":"progression","axis":0,"modulus":2,"residues":[0]}'
RAMSEY_Z = ["ramsey-check", "--group", Z, "--m", "1", "--n", "2", "--eps", "1/2",
            "--method", "pictures"]


def reorder_members(env):
    """The same family with its members out of order and one repeated, in job and result."""
    for part in ("job", "result"):
        env[part]["family"]["members"] = [["y"], ["x"], ["x"]]


@pytest.mark.parametrize("argv, change", [
    pytest.param(
        ["folner-check", "--group", Z, "--a-set", '["1","-1"]', "--b-set", '["0","1","2","3"]',
         "--eps", "1/1"],
        lambda env: env["job"].update(window=["1", "-1"], bset=["3", "2", "1", "0"]),
        id="folner-check-unordered",
    ),
    pytest.param(
        ["balance", "--family", FAMILY_3],
        lambda env: env["job"]["family"].update(members=[["z", "y"], ["x"], ["x"]]),
        id="balance-unordered",
    ),
    pytest.param(["f2-verify", "--identities", "3"], lambda env: env["job"].update(extra=1),
                 id="f2-verify-extra-field"),
    pytest.param(
        ["pictures", "--group", Z, "--window-radius", "1", "--domain-radius", "3",
         "--target", PROGRESSION],
        lambda env: env["job"].update(window=["1", "0", "-1"]),
        id="pictures-unordered",
    ),
    # a job field holds parsed JSON: verify reads no file it names
    pytest.param(["balance", "--family", FAMILY_3],
                 lambda env: env["job"].update(family="family.json"), id="balance-path"),
    # the certificate commands rebuild their jobs too
    pytest.param(RAMSEY_Z, lambda env: env["job"].update(eps="2/4"), id="ramsey-check-eps-form"),
    pytest.param(RAMSEY_Z, lambda env: env["job"].update(extra=1), id="ramsey-check-extra-field"),
    pytest.param(RAMSEY_Z, lambda env: env["job"].update(m=True), id="ramsey-check-boolean-m"),
    pytest.param(["boost", "--group", Z, "--m", "1", "--eps", "9/16"],
                 lambda env: env["job"].update(eps="18/32"), id="boost-eps-form"),
    pytest.param(
        ["unbalance-witness", "--family", '{"ground":["x","y","z"],"members":[["x"],["y"]]}'],
        reorder_members,
        id="unbalance-witness-unordered",
    ),
    pytest.param(readme_argv("realize-search"), lambda env: env["job"]["f"].update(aa="5/1"),
                 id="realize-search-extra-weight"),
    pytest.param(readme_argv("realize-search"), lambda env: env["job"]["f"].update(a="2/2"),
                 id="realize-search-weight-form"),
    pytest.param(readme_argv("pictures"),
                 lambda env: env["job"]["target"].update(letters=["a", "A", "a"]),
                 id="pictures-repeated-letter"),
    pytest.param(readme_argv("pictures"), lambda env: env["job"].update(extra=1),
                 id="pictures-extra-field"),
    pytest.param(["f2-infeasible", "4", "1/100", "2"], lambda env: env["job"].update(extra=1),
                 id="f2-infeasible-extra-field"),
])
def test_verify_rejects_a_job_the_run_never_writes(capsys, tmp_path, argv, change):
    path = tmp_path / "env.json"
    assert run(capsys, *argv, "--out", str(path))[0] == 0
    assert verify_status(capsys, path) == (0, "ok")
    forge(path, change)
    assert verify_status(capsys, path) == (1, "FAILED")


def test_verify_builds_no_ball_past_the_verdicts_own(capsys, tmp_path):
    # ball(F2, 12) has 1,062,881 words; the verdict's bset ball(1) has 5
    path = tmp_path / "ramsey.json"
    assert run(capsys, "ramsey-check", "--group", F2, "--m", "1", "--n", "1", "--eps", "1/2",
               "--method", "pictures", "--out", str(path))[0] == 0
    assert verify_status(capsys, path) == (0, "ok")
    forge(path, lambda env: env["job"].update(n=12))
    started = time.perf_counter()
    assert verify_status(capsys, path) == (1, "FAILED")
    assert time.perf_counter() - started < 1


def widen_to_ball_16(env):
    """Restate a Z ball(1)/ball(3) pictures verdict for ball(16): |A*C| = 33."""
    ball16 = [str(x) for x in range(-16, 17)]
    env["job"]["n"] = 16
    env["result"].update(bset=ball16, products=ball16, interior=ball16[1:-1],
                         subsets_checked=2 ** 33)


def test_verify_rejects_a_verdict_past_its_cap(capsys, tmp_path):
    # a run stops past its cap, so a verdict over more of A*C was never computed
    path = tmp_path / "ramsey.json"
    ramsey_envelope(capsys, path, "--m", "1", "--n", "3", "--eps", "1/2", "--method", "pictures")
    copy = tmp_path / "copy.json"
    copy.write_text(path.read_text())
    forge(copy, lambda env: env["job"].update(cap=3))
    assert verify_status(capsys, copy) == (1, "FAILED")
    forge(path, widen_to_ball_16)
    started = time.perf_counter()
    assert verify_status(capsys, path) == (1, "FAILED")
    assert time.perf_counter() - started < 1
    forge(path, lambda env: env["job"].update(cap=40))
    started = time.perf_counter()
    assert verify_status(capsys, path) == (1, "FAILED")
    assert time.perf_counter() - started < 1


@pytest.mark.parametrize("argv", [
    ["ramsey-function", "--group", Z, "--m", "1", "--eps", "1/2", "--n-max", "2"],
    ["function-table", "--group", Z5, "--m-max", "1", "--k-max", "1", "--n-max", "2"],
    RAMSEY_Z,
])
def test_verify_caps_a_job_past_the_enumeration_cap(capsys, tmp_path, monkeypatch, argv):
    # every run echoes the constant cap, so a job with another fails its rebuild
    path = tmp_path / "env.json"
    assert run(capsys, *argv, "--out", str(path))[0] == 0
    assert json.loads(path.read_text())["job"]["cap"] == 24
    honest = path.read_text()

    def enumeration(*args, **kwargs):
        raise AssertionError("verify enumerated for a forged cap")

    for name in ("is_epsilon_ramsey", "ramsey_function", "inequality_harness"):
        monkeypatch.setattr(cli, name, enumeration)
    for cap in (40, -5, 3, True):
        path.write_text(honest)
        forge(path, lambda env: env["job"].update(cap=cap))
        started = time.perf_counter()
        assert verify_status(capsys, path) == (1, "FAILED")
        assert time.perf_counter() - started < 1


def test_ramsey_check_caps_b_before_building_it(capsys, tmp_path):
    # for n >= m, A*C = ball(n): ball(F2, 12) has 1,062,881 words, past the cap of 24
    path = tmp_path / "ramsey.json"
    started = time.perf_counter()
    assert cap_line(capsys, "ramsey-check", "--group", F2, "--m", "1", "--n", "12",
                    "--eps", "1/2", "--method", "pictures", "--out", str(path)) == (2, "")
    assert time.perf_counter() - started < 1
    assert not path.exists()


@pytest.mark.parametrize("order, code", [(25, 2), (24, 0)])
def test_ramsey_check_ball_cap_is_the_enumeration_cap(capsys, order, code):
    # ball(12) is the whole cyclic group, so |A*C| = order: the run stops exactly past 24
    group = json.dumps({"kind": "cyclic", "order": order})
    argv = ["ramsey-check", "--group", group, "--m", "1", "--n", "12", "--eps", "1/2",
            "--method", "pictures"]
    if code:
        assert cap_line(capsys, *argv) == (code, "")
    else:
        assert run(capsys, *argv)[0] == code


def test_ramsey_check_rejects_a_negative_eps_before_capping_b(capsys):
    assert error_line(capsys, "ramsey-check", "--group", F2, "--m", "1", "--n", "12",
                      "--eps=-1/2", "--method", "pictures") == 1


def test_ramsey_check_does_not_cap_b_below_the_window(capsys):
    # n < m: C is empty however large B is, so ball(3)'s 53 words pass the cap of 24
    code, env = run_envelope(capsys, "ramsey-check", "--group", F2, "--m", "4", "--n", "3",
                             "--eps", "1/2")
    assert code == 0 and env["result"]["reason"] == "empty_interior"


def test_ramsey_check_caps_its_window(capsys):
    # ball(F2, 12) has 1,062,881 words; the ball cap stops the window at ball(F2, 6)
    start = time.perf_counter()
    assert cap_line(capsys, "ramsey-check", "--group", F2, "--m", "12", "--n", "1",
                    "--eps", "1/2") == (2, "")
    assert time.perf_counter() - start < 1


def test_verify_rejects_a_ramsey_window_past_the_ball_cap(capsys, tmp_path, monkeypatch):
    # an empty interior in a window of 1,457 words, written while the cap was raised
    path = tmp_path / "ramsey.json"
    cap = cli.BOOST_BALL_CAP
    monkeypatch.setattr(cli, "BOOST_BALL_CAP", 1457)
    assert run(capsys, "ramsey-check", "--group", F2, "--m", "6", "--n", "1", "--eps", "1/2",
               "--out", str(path))[0] == 0
    assert verify_status(capsys, path) == (0, "ok")
    monkeypatch.setattr(cli, "BOOST_BALL_CAP", cap)
    assert verify_status(capsys, path) == (1, "FAILED")


TABLE_Z5 =["function-table", "--group", Z5, "--window-radius", "2"]
# each argv ends with the option given an empty search range: a negative --n-max,
# or a --k-max or --m-max of 0, with the other ranges nonempty
NEGATIVE_N_MAX = [
    (["ramsey-function", "--group", Z, "--m", "1", "--eps", "1/2", "--n-max"], "-1"),
    ([*TABLE_Z5, "--m-max", "1", "--k-max", "1", "--n-max"], "-3"),
    ([*TABLE_Z5, "--m-max", "1", "--n-max", "1", "--k-max"], "0"),
    ([*TABLE_Z5, "--k-max", "1", "--n-max", "1", "--m-max"], "0"),
]


@pytest.mark.parametrize("argv, n_max", NEGATIVE_N_MAX)
def test_negative_n_max_exits_one(capsys, tmp_path, argv, n_max):
    path = tmp_path / "env.json"
    assert error_line(capsys, *argv, n_max, "--out", str(path)) == 1
    assert not path.exists()


@pytest.mark.parametrize("argv, n_max", NEGATIVE_N_MAX)
def test_verify_rejects_a_negative_n_max(capsys, tmp_path, argv, n_max):
    # the least valid value: an --n-max of 0, a --k-max or --m-max of 1
    path = tmp_path / "env.json"
    least = "0" if argv[-1] == "--n-max" else "1"
    assert run(capsys, *argv, least, "--out", str(path))[0] == 0
    assert verify_status(capsys, path) == (0, "ok")
    field = argv[-1].removeprefix("--").replace("-", "_")

    def forge_range(env):
        env["job"][field] = int(n_max)
        if "per_n" in env["result"]:  # an empty search, as the run used to write it
            env["result"].update(n_max=int(n_max), per_n=[], status="exhausted", value=None)

    forge(path, forge_range)
    assert verify_status(capsys, path) == (1, "FAILED")


@pytest.mark.parametrize("argv, code, err", [
    (["--identities", "-1"], 1, "error: ball radius must be >= 0\n"),
    (["--disjoint", "4", "-1"], 1, "error: ball radius must be >= 0\n"),
    (["--identities", "13"], 2, "cap exhausted: scan capped at length 12\n"),
    (["--disjoint", "9", "8"], 2, "cap exhausted: translate count capped at 8\n"),
])
def test_f2_verify_edge_cases_fail_without_envelope(capsys, argv, code, err):
    assert main(["f2-verify", *argv]) == code
    assert capsys.readouterr() == ("", err)


# the invariance LP checks delta, then K, then the radius, then the ball cap,
# before it lists any column
@pytest.mark.parametrize("argv, code, err", [
    (["8", "1/25", "7"], 2, "cap exhausted: ball exceeded cap of 2000 elements\n"),
    (["8", "1/25", "-1"], 1, "error: ball radius must be >= 0\n"),
    (["--", "8", "-1/25", "7"], 1, "error: delta must be >= 0\n"),
    (["9", "1/25", "-1"], 2, "cap exhausted: translate count capped at 8\n"),
])
def test_f2_infeasible_edge_cases_fail_without_envelope(capsys, argv, code, err):
    assert main(["f2-infeasible", *argv]) == code
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("argv, digest", [
    (["--identities", "0"], "c7cdc54394d3cf7bcd63df51e3fc8a79ef63c748111b3a5afc38e70c43efab7a"),
    (["--disjoint", "2", "0"], "6e1e0405f4205921b671327063aedae27c0665cc0d059985ac1f1a34f99644cf"),
])
def test_f2_verify_on_the_identity_alone_is_pinned(capsys, tmp_path, argv, digest):
    path = tmp_path / "f2.json"
    code, env = run_envelope(capsys, "f2-verify", *argv, "--out", str(path))
    assert (code, env["digest"]) == (0, "sha256:" + digest)
    assert run(capsys, "verify", str(path)) == (0, VERIFY_OK.format("f2-verify"))
