"""CLI: commands, exit codes, deterministic output."""

import json
import re

import pytest

from clonal import cli
from clonal.cli import main
from clonal.firstorder import FoAxiom, FoRefl
from clonal.freealgebra import FAxiom, FRefl
from clonal.jsonio import context_to_json, document, fo_term_to_json, free_derivation_to_json
from clonal.sorts import Context, Sort
from test_jsonio import MALFORMED_REFS


B = Sort("b")


@pytest.fixture(autouse=True)
def json_documents(monkeypatch):
    """Every --json document printed by a test here must be byte-identical
    to ``json.dumps(data, indent=2)``; the list collects them."""
    documents = []
    to_json = cli._to_json

    def checked(data, pad="\n"):
        out = to_json(data, pad)
        if pad == "\n":  # a whole document, not a value nested in one
            assert out == json.dumps(data, indent=2)
            documents.append(out)
        return out

    monkeypatch.setattr(cli, "_to_json", checked)
    return documents


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNormalize:
    def test_beta_redex(self, capsys):
        code, out, _ = run(capsys, "normalize", "app (abs x. x) true")
        assert code == 0
        assert out.strip() == "true"

    def test_state_rewrite_before_completion(self, capsys):
        code, out, _ = run(
            capsys, "normalize", "--variant", "gs", "put v1 (put v2 x)",
            "--context", "x : b",
        )
        assert code == 0
        assert out.strip() == "put v2 x"

    def test_pure_state_term_uses_the_certified_completion(self, capsys):
        # `equal` says get x x = x; the bare oriented axioms leave it alone
        code, out, _ = run(capsys, "normalize", "--variant", "gs", "get x x", "--context", "x : b")
        assert code == 0
        assert out.strip() == "x"

    def test_state_completed_with_eta_long(self, capsys):
        code, out, _ = run(
            capsys, "normalize", "--variant", "gs", "put v1 (put v2 x)",
            "--context", "x : b", "--eta-long",
        )
        assert code == 0
        assert out.strip() == "get (put v2 x) (put v2 x)"

    def test_normalizing_a_normal_form_is_identity(self, capsys):
        code, first, _ = run(capsys, "normalize", "ite c true false", "--context", "c : b")
        code2, second, _ = run(capsys, "normalize", first.strip(), "--context", "c : b")
        assert code == code2 == 0
        assert first == second

    def test_witness_flag(self, capsys):
        code, out, _ = run(capsys, "normalize", "app (abs x. x) true", "--witness")
        assert code == 0
        assert "witness: checked" in out

    @pytest.mark.parametrize("text, sort, printed", [
        ("app (ite true (abs y : b. y) (abs y : b. y)) false", "b", "false"),
        ("abs w : b. ite true (app (abs f : b => b. app f true) (abs z : b. z)) w", "b => b",
         "abs x1 : b. true"),
    ])
    def test_json_witness_concludes_term_to_printed_form(self, capsys, text, sort, printed):
        # the witness must prove exactly (parsed term) ~ (printed form)
        from clonal.freealgebra import check_free_derivation
        from clonal.jsonio import free_derivation_from_json, free_term_from_json
        from clonal.surface import parse_term, stock_bundle

        code, out, _ = run(capsys, "normalize", "--witness", "--json", "--sort", sort, text)
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["term"] == printed
        bundle = stock_bundle("bool")
        s = B if sort == "b" else Sort("=>", (B, B))
        replay = check_free_derivation(
            bundle.free, Context(()), free_derivation_from_json(payload["witness"])
        )
        assert replay.ok
        assert replay.lhs == parse_term(bundle, text, s)
        assert replay.rhs == free_term_from_json(payload["tree"]) == parse_term(bundle, printed, s)

    @pytest.mark.parametrize("variant, text, printed, rule", [
        ("bool", "ite true c false", "c", '"rule": "axiom"'),
        # a derived rule of the completion, cited by a lemma node
        ("gs", "get c c", "c", '"rule": "lemma"'),
    ])
    def test_witness_of_a_pure_base_term_is_a_checked_rewrite_trace(
        self, capsys, variant, text, printed, rule
    ):
        from clonal.firstorder import check_fo_derivation
        from clonal.jsonio import fo_derivation_from_json
        from clonal.surface import parse_context, parse_term, stock_bundle

        argv = ("normalize", "--variant", variant, text, "--context", "c : b", "--witness")
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, f"{printed}\nwitness: checked\n", "")
        code, out, _ = run(capsys, *argv, "--json")
        data = json.loads(out)
        assert code == 0 and data["kind"] == "base-normal-form"
        assert data["payload"]["term"] == printed and rule in json.dumps(data)
        bundle = stock_bundle(variant)
        ctx, names = parse_context(bundle, "c : b")
        replay = check_fo_derivation(
            bundle.base, ctx, fo_derivation_from_json(data["payload"]["witness"]))
        assert replay.ok
        assert (replay.lhs, replay.rhs) == tuple(
            cli._base_only(parse_term(bundle, x, B, ctx, names)) for x in (text, printed))

    def test_a_pure_base_term_without_witness_prints_no_witness(self, capsys):
        code, out, _ = run(capsys, "normalize", "ite true c false", "--context", "c : b", "--json")
        assert code == 0 and json.loads(out)["payload"] == {"term": "c"}

    @pytest.mark.parametrize("wrong, message", [
        (lambda start, steps: FoAxiom("bogus", (), ()),
         "internal witness rejected: unknown equation 'bogus'"),
        (lambda start, steps: FoRefl(start),
         "internal witness concludes ite[b](true(), x1, false()) ~ ite[b](true(), x1, false()), "
         "not ite[b](true(), x1, false()) ~ x1"),
    ])
    def test_a_base_witness_that_does_not_conclude_the_pair_is_no_answer(
        self, capsys, monkeypatch, wrong, message
    ):
        monkeypatch.setattr(cli, "steps_to_derivation", wrong)
        code, out, err = run(
            capsys, "normalize", "ite true c false", "--context", "c : b", "--witness")
        assert (code, out) == (1, "")
        assert err.startswith(message) and len(err.splitlines()) == 1

    def test_parse_error_is_usage(self, capsys):
        code, _, err = run(capsys, "normalize", "app (")
        assert code == 2

    def test_sort_mismatch_against_a_parameter_is_usage(self, capsys):
        # the message names the operator's template A => B, sort parameters and all
        code, out, err = run(
            capsys, "normalize", "app (abs x : b. x) y", "--variant", "stlc", "--sort", "b => b"
        )
        assert code == 2 and out == ""
        assert "does not fit A => B (line 1, column 6)" in err


class TestEval:
    def test_true(self, capsys):
        code, out, _ = run(capsys, "eval", "true")
        assert code == 0 and out.strip() == "tt"

    def test_identity_table(self, capsys):
        code, out, _ = run(capsys, "eval", "abs x. x", "--sort", "b => b")
        assert code == 0
        assert out.strip() == "{tt -> tt; ff -> ff}"

    def test_open_term_rejected(self, capsys):
        code, _, err = run(capsys, "eval", "x", "--sort", "b")
        assert code == 2

    def test_wrong_variant_rejected(self, capsys):
        code, _, err = run(capsys, "eval", "true", "--variant", "stlc")
        assert code == 2


class TestEqual:
    def test_equal_is_zero(self, capsys):
        code, out, _ = run(capsys, "equal", "app (abs x. x) true", "true")
        assert code == 0 and out.strip() == "equal"

    def test_not_equal_is_one_with_certificate(self, capsys):
        code, out, _ = run(capsys, "equal", "true", "false", "--json")
        assert code == 1
        data = json.loads(out)
        assert data["payload"]["status"] == "not_equal"
        assert data["payload"]["certificate"] == ["('tt',)", "('ff',)"]

    def test_unknown_is_three(self, capsys):
        code, out, _ = run(capsys, "equal", "true", "false", "--search", "--budget", "3")
        assert code == 3

    def test_self_equality_refl(self, capsys):
        code, out, _ = run(capsys, "equal", "true", "true")
        assert code == 0

    def test_conditional_at_function_sort_is_equal(self, capsys):
        # the conditional selects a function, which then meets its argument
        code, out, _ = run(
            capsys, "equal", "--json", "app (ite true (abs y : b. y) (abs y : b. y)) false", "false"
        )
        assert code == 0
        assert json.loads(out)["payload"]["status"] == "equal"

    def test_redex_binder_at_function_sort_is_equal(self, capsys):
        code, out, _ = run(
            capsys, "equal", "--sort", "b => b",
            "abs w : b. ite true (app (abs f : b => b. app f true) (abs z : b. z)) w",
            "abs w : b. true",
        )
        assert code == 0 and out.strip() == "equal"

    @pytest.mark.parametrize("mode", [(), ("--search",)])
    def test_witness_the_bundle_does_not_prove_is_no_verdict(self, capsys, tmp_path, mode):
        # without beta and eta the surface is not the lambda calculus: there
        # is no normalizer and no beta step to search with, so no verdict
        from clonal.cli import bundled_source

        source = bundled_source("bool")
        lines = [line for line in source.splitlines()
                 if not line.lstrip().startswith(("eq beta", "eq eta"))]
        assert len(lines) == len(source.splitlines()) - 2
        path = tmp_path / "noeq.bundle"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(
            capsys, "equal", "--bundle", str(path), *mode, "app (abs x : b. x) true", "true")
        assert (code, out.strip(), err) == (3, "unknown", "")

    @pytest.mark.parametrize("argv", [
        ("equal", "app (abs x : b. x) true", "true"),
        ("normalize", "app (abs x : b. x) true", "--witness"),
    ])
    @pytest.mark.parametrize("wrong, message", [
        (lambda nf: FAxiom("bogus", (), ()), "internal witness rejected: unknown equation 'bogus'"),
        (FRefl, "internal witness concludes <true()> ~ <true()>, not app(abs(_.x1), <true()>)"),
    ])
    def test_a_witness_that_does_not_conclude_the_pair_is_no_verdict(
        self, capsys, monkeypatch, argv, wrong, message
    ):
        # the step normalizer answers with the right normal form but a
        # witness the kernel rejects, or one of another equation: the
        # command replays it and gives no answer
        from clonal import equality
        from clonal.nbe import nbe_normalize

        def norm(free, ctx, sort, t):
            nf = nbe_normalize(free, ctx, sort, t)
            return nf, wrong(nf)

        monkeypatch.setattr(equality, "norm", norm)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(message) and len(err.splitlines()) == 1


class TestParserReuse:
    ARGVS = [
        ["normalize", "app (abs x. x) true", "--json"],
        ["enumerate", "--sort", "b", "--budget", "1"],
        # needs more than enumerate's default budget of 5 search nodes
        ["equal", "--search", "app (abs f : b => b. app f (app f true)) (abs z : b. ite z false true)",
         "true"],
        ["enumerate", "--sort", "b", "--json"],
    ]

    def test_parser_is_built_once(self):
        from clonal.cli import build_parser

        assert build_parser() is build_parser()

    def test_back_to_back_calls_print_what_each_prints_alone(self, capsys):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        alone = []
        for argv in self.ARGVS:
            done = subprocess.run(
                [sys.executable, "-m", "clonal.cli", *argv], capture_output=True, text=True,
                env=env, timeout=120,
            )
            alone.append((done.returncode, done.stdout))
        together = [run(capsys, *argv)[:2] for argv in self.ARGVS + self.ARGVS]
        assert together == alone + alone
        assert alone[2] == (0, "equal\n")


class TestProvecheck:
    def test_accepts_valid_derivation(self, capsys, tmp_path):
        from clonal.freealgebra import FAxiom, FRefl, FreeVar
        from clonal.stlc import true_term

        B = Sort("b")
        d = FAxiom("beta", (B, B), (FRefl(FreeVar(1)), FRefl(true_term())))
        doc = document(
            "free-derivation",
            {
                "context": context_to_json(Context(())),
                "derivation": free_derivation_to_json(d),
            },
        )
        path = tmp_path / "beta.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "provecheck", str(path))
        assert code == 0 and out.strip() == "accepted"

    def test_rejects_bad_derivation_with_path(self, capsys, tmp_path):
        from clonal.freealgebra import FRefl, FTrans
        from clonal.stlc import false_term, true_term

        d = FTrans(FRefl(true_term()), FRefl(false_term()))
        doc = document(
            "free-derivation",
            {
                "context": context_to_json(Context(())),
                "derivation": free_derivation_to_json(d),
            },
        )
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "provecheck", str(path))
        assert code == 1
        assert "rejected" in out

    def test_rejects_out_of_range_element(self, capsys, tmp_path):
        # the element x5 of the clone of variables at arity [b] |- b
        from clonal.freealgebra import CloneApp, FRefl, FreeVar

        d = FRefl(CloneApp(5, Context((B,)), B, (FreeVar(1),)))
        doc = document("free-derivation", {
            "context": context_to_json(Context((B,))),
            "derivation": free_derivation_to_json(d),
        })
        path = tmp_path / "element.json"
        path.write_text(json.dumps(doc))
        assert '{"kind": "index", "value": 5}' in path.read_text()
        code, out, _ = run(capsys, "provecheck", "--variant", "stlc", str(path))
        assert code == 1
        assert out.startswith("rejected at []") and "out of range" in out

    def test_fo_derivation_with_a_lemma(self, capsys, tmp_path):
        # a completed-system trace cites a derived rule's proof in a lemma
        # node; it replays against the bundle's bare state presentation
        from clonal.firstorder import FoOp, FoVar, gs_rewrite_system, rewrite_normalize
        from clonal.firstorder import steps_to_derivation
        from clonal.jsonio import fo_derivation_to_json

        t = FoOp("put_v1", (), (FoOp("get", (), (FoVar(1), FoVar(1))),))
        d = steps_to_derivation(t, rewrite_normalize(gs_rewrite_system(("v1", "v2")), t)[1])
        data = fo_derivation_to_json(d)
        assert '"rule": "lemma"' in json.dumps(data)
        for name, derivation, want in (("lemma.json", data, 0), ("tampered.json", None, 1)):
            if derivation is None:  # the lemma's proof ends one put deeper
                derivation = json.loads(json.dumps(data))
                lemma = derivation["body"]["children"][0]  # the trace's terms fill a table
                end = {"rule": "refl", "term": fo_term_to_json(FoOp("put_v2", (), (FoVar(1),)))}
                lemma["proof"] = {"rule": "trans", "children": [lemma["proof"], end]}
            path = tmp_path / name
            path.write_text(json.dumps(document("fo-derivation", {
                "context": context_to_json(Context((B,))), "derivation": derivation})))
            code, out, _ = run(capsys, "provecheck", "--variant", "gs", str(path))
            assert code == want
            assert out.strip() == "accepted" if want == 0 else out.startswith("rejected at [1, 0]")

    def test_a_trace_deeper_than_the_recursion_limit_is_accepted(self, capsys, tmp_path):
        from clonal.firstorder import gs_rewrite_system, rewrite_normalize, steps_to_derivation
        from clonal.jsonio import fo_derivation_to_json
        from test_firstorder import _get_put_tree

        t = _get_put_tree(9)
        d = steps_to_derivation(t, rewrite_normalize(gs_rewrite_system(("v1", "v2")), t)[1])
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(document("fo-derivation", {
            "context": context_to_json(Context((B,))), "derivation": fo_derivation_to_json(d)})))
        code, out, _ = run(capsys, "provecheck", "--variant", "gs", str(path))
        assert (code, out.strip()) == (0, "accepted")

    @pytest.mark.parametrize("data, message", MALFORMED_REFS)
    def test_a_malformed_ref_table_or_chain_is_a_parse_error(self, capsys, tmp_path, data, message):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(document("free-derivation", {
            "context": context_to_json(Context(())), "derivation": data})))
        code, out, err = run(capsys, "provecheck", str(path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert re.search(message, err)

    def test_missing_file_is_usage(self, capsys):
        code, _, _ = run(capsys, "provecheck", "/nonexistent/file.json")
        assert code == 2

    @pytest.mark.parametrize("text, field", [
        ("{not json", None),
        ('{"rule": "refl"}', "'term'"),
        ('{"rule": "refl", "term": {"kind": "var"}}', "'index'"),
    ])
    def test_malformed_witness_is_a_parse_error(self, capsys, tmp_path, text, field):
        # not JSON at all, then a derivation and a term each missing a field
        if field is not None:
            text = json.dumps(document("free-derivation", {
                "context": context_to_json(Context(())), "derivation": json.loads(text)}))
        path = tmp_path / "malformed.json"
        path.write_text(text)
        code, out, err = run(capsys, "provecheck", str(path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert (field or "not a JSON document") in err


class TestEnumerate:
    def test_bound_one_booleans(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--sort", "b", "--budget", "1")
        assert code == 0
        assert sorted(out.split()) == ["false", "true"]

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--sort", "b", "--budget", "1", "--json")
        data = json.loads(out)
        assert data["payload"]["count"] == 2

    def test_default_size_bound_finishes(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--json")
        assert code == 0
        assert json.loads(out)["payload"]["count"] == 2554  # closed booleans of size <= 5

    def test_a_binding_operator_names_the_variables_it_binds(self, capsys, tmp_path):
        # let is not abstraction: its second argument binds one variable
        path = tmp_path / "let.bundle"
        path.write_text("bundle letb\nsorts b\ntypeformers =>\nsurface s\n"
                        "  op let[A,B] : (; A) (A ; B) ; B\nend\n")
        code, out, err = run(capsys, "enumerate", "--bundle", str(path), "--sort", "b",
                             "--context", "y : b", "--budget", "5")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert "let y (x2 : b. let x2 (x3 : b. x2))" in lines
        assert [line for line in lines if _unbound(line, {"y"})] == []


def _unbound(printed: str, free: set) -> list:
    """The variables of a printed term that neither ``free`` nor an
    enclosing ``(x : A. ...)`` binds; ``let`` and the sort ``b`` are no
    variables."""
    tokens = re.findall(r"[()]|[A-Za-z_][A-Za-z0-9_']*|[:.,]", printed)
    scopes, out = [set(free)], []
    for i, tok in enumerate(tokens):
        if tok == "(":
            scopes.append(set())
        elif tok == ")":
            scopes.pop()
        elif tokens[i + 1:i + 2] == [":"]:
            scopes[-1].add(tok)
        elif tok not in {"let", "b", ":", ".", ","} and not any(tok in s for s in scopes):
            out.append(tok)
    return out


class TestAdequacy:
    def test_small_budget_passes(self, capsys):
        code, out, _ = run(capsys, "adequacy", "--budget", "3")
        assert code == 0
        assert "adequacy: pass" in out

    def test_default_size_bound_passes(self, capsys):
        code, out, _ = run(capsys, "adequacy")
        assert code == 0
        assert "terms: 2554" in out and "adequacy: pass" in out

    def test_help_states_the_default(self, capsys):
        code, out, _ = run(capsys, "adequacy", "--help")
        assert code == 0
        assert "(default: 5)" in " ".join(out.split())


class TestJsonEmitter:
    def test_every_json_command_is_checked(self, capsys, json_documents):
        # the autouse fixture compares each document with json.dumps
        for argv in (
            ["normalize", "--variant", "gs", "get x x", "--context", "x : b", "--json"],
            ["eval", "abs x : b. x", "--sort", "b => b", "--json"],
            ["equal", "--search", "--json", "app (abs x. x) true", "true"],
            ["enumerate", "--sort", "b", "--budget", "1", "--json"],
        ):
            code, out, _ = run(capsys, *argv)
            assert code == 0 and out == json_documents[-1] + "\n"
        assert len(json_documents) == 4

    def test_empty_containers_and_scalars(self):
        data = {"a": [], "b": {}, "c": [1, None, True, "é", 2.5, {"d": ()}]}
        assert cli._to_json(data) == json.dumps(data, indent=2)
        for key in (1, 2.5, True, None, (1, 2)):
            with pytest.raises(TypeError, match="keys must be str"):
                cli._to_json({"a": {key: 1}})


class TestDeterminism:
    def test_json_outputs_are_byte_identical_across_runs(self, capsys):
        outputs = []
        for _ in range(2):
            code, out, _ = run(
                capsys, "normalize", "ite c true false", "--context", "c : b",
                "--json", "--witness",
            )
            assert code == 0 and out
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_check_json_stable(self, capsys):
        outputs = []
        for _ in range(2):
            code, out, _ = run(capsys, "check", "--variant", "stlc", "--json", "--seed", "3")
            assert code == 0 and out
            outputs.append(out)
        assert outputs[0] == outputs[1]


class TestOptions:
    # each command declares exactly the options its cmd_* function reads
    SHARED = ["--bundle", "--variant", "--json"]
    TABLE = {
        "check": ["--depth", "--seed"],
        "normalize": ["--context", "--sort", "--witness", "--eta-long"],
        "eval": ["--sort"],
        "equal": ["--context", "--sort", "--witness", "--search", "--budget"],
        "provecheck": [],
        "enumerate": ["--context", "--sort", "--budget"],
        "adequacy": ["--budget"],
    }

    @staticmethod
    def _subparsers():
        import argparse

        (action,) = [a for a in cli.build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    def test_every_command_is_in_the_table(self):
        assert sorted(self._subparsers()) == sorted(self.TABLE)

    @pytest.mark.parametrize("command", sorted(TABLE))
    def test_a_command_declares_exactly_its_options(self, command):
        p = self._subparsers()[command]
        flags = sorted(f for a in p._actions for f in a.option_strings if f not in ("-h", "--help"))
        assert flags == sorted(self.SHARED + self.TABLE[command])

    @pytest.mark.parametrize("argv", [
        ("provecheck", "--seed", "1", "proof.json"),
        ("eval", "x", "--context", "x : b"),
        ("check", "--sort", "b"),
        ("normalize", "true", "--budget", "9"),
        ("enumerate", "--witness"),
        ("adequacy", "--depth", "1"),
        ("equal", "true", "true", "--seed", "3"),
    ])
    def test_an_unread_option_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "unrecognized arguments" in err

    def test_check_depth_beyond_two_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "check", "--depth", "3")
        assert (code, out) == (2, "")
        assert "invalid choice: 3" in err

    @pytest.mark.parametrize("command, default", [
        ("equal", 2000), ("enumerate", 5), ("adequacy", 5),
    ])
    def test_each_budget_has_its_own_default(self, command, default):
        # equal's budget is read only with --search, so its parser default
        # is None and cmd_equal falls back to cli.SEARCH_BUDGET
        got = self._subparsers()[command].get_default("budget")
        assert (cli.SEARCH_BUDGET if got is None and command == "equal" else got) == default

    def test_equal_budget_without_search_is_a_usage_error(self, capsys):
        redex = "app (abs x. x) true"
        code, out, err = run(capsys, "equal", redex, "true", "--budget", "0")
        assert (code, out) == (2, "")
        assert "--budget is the node budget of --search" in err
        assert run(capsys, "equal", redex, "true", "--budget", "0", "--search")[:2] == (
            3, "unknown\n")
        assert run(capsys, "equal", redex, "true")[:2] == (0, "equal\n")


class TestBundleFlag:
    def test_explicit_bundle_file(self, capsys, tmp_path):
        from clonal.cli import bundled_source

        path = tmp_path / "theory.bundle"
        path.write_text(bundled_source("bool"))
        code, out, _ = run(capsys, "normalize", "--bundle", str(path), "app (abs x. x) false")
        assert code == 0 and out.strip() == "false"


class TestCheck:
    def test_stock_bundle_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--variant", "stlc")
        assert code == 0
        assert "check: pass" in out

    def test_misarity_equation_fails_citing_it(self, capsys, tmp_path):
        # beta's right side is declared at the wrong sort
        bad = """bundle broken
sorts b
typeformers =>
surface stlc
  op app[A,B] : (; A => B) (; A) ; B
  op abs[A,B] : (A ; B) ; A => B
  eq beta[A,B] : m1 : (A ; B), m2 : (; A) |- app (abs x : A. m1 x) m2 ~ m2 : B
end
"""
        path = tmp_path / "broken.bundle"
        path.write_text(bad)
        code, _, err = run(capsys, "check", "--bundle", str(path))
        assert code != 0
        assert "beta" in err or "sort" in err

    def test_generic_tier_failure_names_the_base_stably(self, capsys, tmp_path):
        # a generic tier has no NbE domain, so check stops; the message must
        # name the base, not print an object address
        from clonal.cli import bundled_source

        source = bundled_source("bool")
        assert "strategy base boolean" in source
        path = tmp_path / "rewrite.bundle"
        path.write_text(source.replace("strategy base boolean", "strategy base rewrite"))
        code, _, err = run(capsys, "check", "--bundle", str(path))
        assert code != 0
        assert "0x" not in err
        assert "base bool (tier rewrite)" in err
        assert run(capsys, "check", "--bundle", str(path))[2] == err

    def test_search_without_a_domain_still_searches(self, capsys, tmp_path):
        # the generic tier has no NbE domain to decide by, so search mode
        # searches as it always did and proves beta with a witness
        from clonal.cli import bundled_source
        from clonal.freealgebra import check_free_derivation
        from clonal.jsonio import free_derivation_from_json
        from clonal.surface import parse_bundle, parse_term

        source = bundled_source("bool").replace("strategy base boolean", "strategy base rewrite")
        path = tmp_path / "rewrite.bundle"
        path.write_text(source)
        left, right = "app (abs x : b. x) true", "true"
        code, out, _ = run(capsys, "equal", "--bundle", str(path), "--search", "--witness",
                           "--json", left, right)
        payload = json.loads(out)["payload"]
        assert (code, payload["status"]) == (0, "equal")
        bundle = parse_bundle(source)
        assert bundle.theory.domain is None
        witness = free_derivation_from_json(payload["witness"])
        replay = check_free_derivation(bundle.free, Context(()), witness)
        assert replay.ok
        assert (replay.lhs, replay.rhs) == tuple(parse_term(bundle, x, B) for x in (left, right))

    def test_rewriting_past_the_step_ceiling_is_budget_exhaustion(self, capsys, tmp_path):
        # a rewrite-tier base whose one rule swaps arguments never stops; the
        # surface is the lambda calculus, so a pure base term is rewritten
        cyclic = """bundle cyc
sorts b
typeformers =>
base cyc
  op f : b, b ; b
  eq comm : y : b, z : b |- f y z ~ f z y : b
surface stlc
  op app[A,B] : (; A => B) (; A) ; B
  op abs[A,B] : (A ; B) ; A => B
  eq beta[A,B] : m1 : (A ; B), m2 : (; A) |- app (abs x : A. m1 x) m2 ~ m1 m2 : B
  eq eta[A,B] : m : (; A => B) |- abs x : A. app m x ~ m : A => B
strategy base rewrite
end
"""
        path = tmp_path / "cyc.bundle"
        path.write_text(cyclic)
        code, out, err = run(
            capsys, "normalize", "--bundle", str(path), "f x y", "--context", "x : b, y : b")
        assert code == 3 and out == ""
        assert err.splitlines() == ["step ceiling exceeded while rewriting f(x1, x2)"]

    def test_surface_only_bundle_passes_vacuously(self, capsys, tmp_path):
        empty = """bundle minimal
sorts b
typeformers =>
surface bare
  op app[A,B] : (; A => B) (; A) ; B
  op abs[A,B] : (A ; B) ; A => B
end
"""
        path = tmp_path / "minimal.bundle"
        path.write_text(empty)
        code, out, _ = run(capsys, "check", "--bundle", str(path))
        assert code == 0
