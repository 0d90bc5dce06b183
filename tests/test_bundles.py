"""Bundle matrix: every shipped bundle, and a copy of the boolean one with
its bundle and base renamed, runs through the CLI commands its base theory
supports.  The base theory is chosen by the ``strategy base`` line, never by
a name, so the renamed copy behaves exactly like the original.  Likewise the
lambda calculus is recognized up to the names of its parts: a copy with its
surface renamed answers as the original, and copies whose surface is not the
lambda calculus give no verdict and no normal form.
"""

import functools
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from clonal.cli import main
from clonal.freealgebra import check_free_derivation, enumerate_free_terms, fold_hom, raw_eq
from clonal.jsonio import free_derivation_from_json
from clonal.nbe import nbe_for
from clonal.stlc import set_model
from clonal.surface import ParseError, parse_bundle, parse_context, parse_term, render_free
from clonal.surface import sort_text

BUNDLES = Path(__file__).resolve().parent.parent / "src" / "clonal" / "bundles"
SHIPPED = sorted(p.stem for p in BUNDLES.glob("*.bundle"))
BOOLEAN = ("stlc_bool", "renamed_bool")
# the surface renamed in renamed_surface: its name -> stlc_bool's
SURFACE_NAMES = {"ap": "app", "lam": "abs", "b1": "beta", "e1": "eta"}
COLLAPSE = "  eq collapse : m : (; b), n : (; b) |- app (abs x : b. m) n ~ n : b\n"


def source(name: str) -> str:
    if name == "renamed_bool":
        text = (BUNDLES / "stlc_bool.bundle").read_text()
        return text.replace("bundle stlc_bool", "bundle renamed_bool").replace(
            "base bool\n", "base truth\n"
        )
    if name == "renamed_surface":
        text = source("stlc_bool")
        for old, new in (("op app", "op ap"), ("op abs", "op lam"), ("|- app ", "|- ap "),
                         (". app m", ". ap m"), ("eq beta", "eq b1"), ("eq eta", "eq e1")):
            assert text.count(old) == 1
            text = text.replace(old, new)
        return text
    if name == "collapse":
        return source("stlc_bool").replace("strategy base", COLLAPSE + "strategy base")
    if name == "no_beta_eta":
        return "".join(line for line in source("stlc_bool").splitlines(keepends=True)
                       if not line.lstrip().startswith(("eq beta", "eq eta")))
    return (BUNDLES / f"{name}.bundle").read_text()


@pytest.fixture(params=SHIPPED + ["renamed_bool"])
def bundle_file(request, tmp_path):
    path = tmp_path / f"{request.param}.bundle"
    path.write_text(source(request.param))
    return request.param, str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err


def test_the_shipped_bundles_are_found():
    assert SHIPPED == ["stlc", "stlc_bool", "stlc_gs"]


def test_renamed_copy_changes_only_names():
    renamed = source("renamed_bool")
    assert "bundle renamed_bool" in renamed and "base truth" in renamed
    assert "stlc_bool" not in renamed and "\nbase bool\n" not in renamed


def test_check(capsys, bundle_file):
    _, path = bundle_file
    code, out, err = run(capsys, "check", "--bundle", path, "--depth", "1")
    assert code == 0, err
    assert out.endswith("check: pass")


def test_normalize(capsys, bundle_file):
    _, path = bundle_file
    code, out, err = run(capsys, "normalize", "--bundle", path, "abs y : b. y", "--sort", "b => b")
    assert code == 0, err
    assert out.startswith("abs x1 : b.")


def test_equal(capsys, bundle_file):
    _, path = bundle_file
    code, out, err = run(
        capsys, "equal", "--bundle", path, "app (abs x : b. x) y", "y", "--context", "y : b"
    )
    assert (code, out) == (0, "equal"), err


@pytest.mark.parametrize("name", BOOLEAN)
def test_boolean_bundles_evaluate(capsys, tmp_path, name):
    path = tmp_path / f"{name}.bundle"
    path.write_text(source(name))
    code, out, err = run(capsys, "eval", "--bundle", str(path), "abs x. x", "--sort", "b => b")
    assert (code, out) == (0, "{tt -> tt; ff -> ff}"), err
    code, out, err = run(capsys, "adequacy", "--bundle", str(path), "--budget", "3")
    assert code == 0, err
    assert "terms: 48" in out and out.endswith("adequacy: pass")


@pytest.mark.parametrize(
    "name, old, new, named",
    [
        ("stlc_bool", "ite false y z ~ z", "ite false y z ~ y", "equation ite_false"),
        ("stlc_bool", "op false : ; b\n", "op false : ; b\n  op maybe : ; b\n", "operator maybe"),
        ("stlc_gs", "put v2 (put v1 x) ~ put v1 x", "put v2 (put v1 x) ~ put v2 x",
         "equation put_put_v2_v1"),
        ("stlc_gs", "  eq get_put", "  -- eq get_put", "equation put_get_v1"),
    ],
)
def test_stock_tier_rejects_a_different_presentation(name, old, new, named):
    text = source(name)
    assert old in text
    with pytest.raises(ParseError, match=named):
        parse_bundle(text.replace(old, new))


def test_state_tier_without_puts_is_rejected():
    text = source("stlc_bool").replace("strategy base boolean", "strategy base state_table")
    with pytest.raises(ParseError, match="no put operators"):
        parse_bundle(text)


def test_unknown_tier_is_a_parse_error():
    with pytest.raises(ParseError, match="unknown strategy 'bogus'"):
        parse_bundle(source("stlc_bool").replace("strategy base boolean", "strategy base bogus"))


def test_generic_tier_gives_equality_only(capsys, tmp_path):
    # the same presentation under the generic rewrite tier: no NbE domain and
    # no set model, so distinct witnessed normal forms are not a verdict
    path = tmp_path / "generic.bundle"
    path.write_text(source("stlc_bool").replace("strategy base boolean", "strategy base rewrite"))
    code, out, _ = run(capsys, "equal", "--bundle", str(path), "true", "false")
    assert (code, out) == (3, "unknown")
    code, _, _ = run(capsys, "eval", "--bundle", str(path), "true")
    assert code == 2


def test_rewrite_tier_builds_one_system():
    # the certified normal form and the clone's equality share one system
    theory = parse_bundle(
        source("stlc_bool").replace("strategy base boolean", "strategy base rewrite")
    ).theory
    assert theory.rewrite_system is theory.clone.strategy.system


def written(tmp_path, name: str) -> str:
    path = tmp_path / f"{name}.bundle"
    path.write_text(source(name))
    return str(path)


def test_surface_copies_change_what_they_say():
    assert "app" not in source("renamed_surface").split("surface stlc")[1].replace("abs x", "")
    assert source("collapse").count("eq ") == source("stlc_bool").count("eq ") + 1
    assert source("no_beta_eta").count("eq ") == source("stlc_bool").count("eq ") - 2
    assert parse_bundle(source("renamed_surface")).surface.calculus is not None
    assert parse_bundle(source("collapse")).surface.calculus is None


def _stock_names(data):
    """A JSON document with renamed_surface's names put back to stlc_bool's."""
    if isinstance(data, dict):
        return {k: SURFACE_NAMES.get(v, v) if k in ("name", "op", "equation") else _stock_names(v)
                for k, v in data.items()}
    if isinstance(data, list):
        return [_stock_names(v) for v in data]
    return data


@pytest.mark.parametrize("argv", [
    ("normalize", "app (abs x : b. x) y", "--context", "y : b", "--witness", "--json"),
    ("normalize", "abs y : b. y", "--sort", "b => b", "--witness", "--json"),
    ("normalize", "f", "--context", "f : b => b", "--sort", "b => b", "--witness"),
    ("normalize", "ite x (abs y. y) (abs y. true)", "--context", "x : b", "--sort", "b => b"),
    ("equal", "app (abs x : b. x) y", "y", "--context", "y : b", "--witness", "--json"),
    ("equal", "abs x : b. x", "abs y : b. app (abs z : b. z) y", "--sort", "b => b", "--witness",
     "--json"),
    ("equal", "--search", "app (abs x : b. ite x false true) true", "false", "--witness",
     "--json"),
    ("equal", "app (abs x : b. ite x false true) true", "true", "--json"),
    ("equal", "x", "y", "--context", "x : b, y : b", "--json"),
    ("eval", "app (abs f : b => b. f) (abs x. ite x false true)", "--sort", "b => b", "--json"),
    ("enumerate", "--sort", "b => b", "--budget", "4"),
    ("check", "--depth", "1"),
    ("adequacy", "--budget", "3", "--json"),
])
def test_renamed_surface_answers_as_the_original(capsys, tmp_path, argv):
    got = []
    for name in ("stlc_bool", "renamed_surface"):
        path = written(tmp_path, name)
        args = [a.replace("app ", "ap ") if name == "renamed_surface" else a for a in argv[1:]]
        code, out, err = run(capsys, argv[0], "--bundle", path, *args)
        if "--json" in argv:
            out = _stock_names(json.loads(out))
        got.append((code, out, err))
    assert got[0] == got[1]
    assert got[0][0] in (0, 1) and not got[0][2]


@pytest.mark.parametrize("name", ["collapse", "no_beta_eta"])
@pytest.mark.parametrize("mode", [(), ("--search",)])
@pytest.mark.parametrize("pair", [("app (abs x : b. false) true", "true"), ("false", "true")])
def test_a_surface_that_is_not_the_lambda_calculus_gives_no_verdict(
    capsys, tmp_path, name, mode, pair
):
    # on collapse both pairs are provable: app (abs x. false) true is false
    # by beta and true by collapse; without beta and eta neither is
    code, out, err = run(capsys, "equal", "--bundle", written(tmp_path, name), *mode, *pair)
    assert (code, out, err) == (3, "unknown", "")


@pytest.mark.parametrize("name, differs", [
    ("collapse", "equation collapse"), ("no_beta_eta", "equation (missing beta)"),
])
@pytest.mark.parametrize("argv", [
    ("normalize", "app (abs x : b. x) true"),
    ("normalize", "abs x : b. x", "--sort", "b => b", "--witness"),
    ("eval", "true"),
    ("adequacy", "--budget", "3"),
    # a pure base term too: on collapse, true ~ false
    ("normalize", "true"),
])
def test_a_surface_that_is_not_the_lambda_calculus_is_not_normalized(
    capsys, tmp_path, name, differs, argv
):
    code, out, err = run(capsys, argv[0], "--bundle", written(tmp_path, name), *argv[1:])
    assert (code, out) == (1, "")
    assert err == (f"surface stlc is not the lambda calculus: {differs} differs from "
                   "stlc_presentation()\n")


@pytest.mark.parametrize("name, code", [("collapse", 1), ("no_beta_eta", 0)])
def test_check_decides_equality_syntactically_outside_the_lambda_calculus(
    capsys, tmp_path, name, code
):
    # with no normalizer, term_eq is raw_eq: collapse fails, nothing else does
    got, out, _ = run(capsys, "check", "--bundle", written(tmp_path, name), "--depth", "1")
    assert got == code and out.endswith("check: " + ("pass" if code == 0 else "FAIL"))


ALL = SHIPPED + ["renamed_surface", "collapse", "no_beta_eta"]


@functools.cache
def _pool(name: str, context: str, sort: str):
    """The bundle and its terms of size at most 4 at (context; sort), rendered."""
    bundle = parse_bundle(source(name))
    ctx, names = parse_context(bundle, context)
    terms = enumerate_free_terms(bundle.free, ctx, sort_text(bundle.sort_set, sort), max_size=4)
    return bundle, ctx, names, [render_free(t, names, bundle.surface) for t in terms]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(ALL), st.sampled_from(["", "y : b"]), st.sampled_from(["b", "b => b"]),
       st.booleans(), st.randoms(use_true_random=False))
def test_every_verdict_is_witnessed_or_certified(tmp_path_factory, name, context, sort, search,
                                                 rng):
    # equal: the witness replays to exactly the two parsed terms; not_equal:
    # the two values of a set model that is a model of the bundle, or two
    # distinct NbE normal forms; neither outside the lambda calculus
    bundle, ctx, names, texts = _pool(name, context, sort)
    assume(texts)  # no closed base-sort terms without constants
    left, right = rng.choice(texts), rng.choice(texts)
    path = tmp_path_factory.mktemp("bundle") / f"{name}.bundle"
    path.write_text(source(name))
    mode = ("--search", "--budget", "100") if search else ()
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(["equal", "--bundle", str(path), left, right, "--context", context,
                     "--sort", sort, *mode, "--witness", "--json"])
    assert code in (0, 1, 3)
    payload = json.loads(out.getvalue())["payload"]
    assert payload["status"] == {0: "equal", 1: "not_equal", 3: "unknown"}[code]
    event(f"{name}: {payload['status']}")
    free, s = bundle.free, sort_text(bundle.sort_set, sort)
    t, u = (parse_term(bundle, x, s, ctx, names) for x in (left, right))
    if code == 0:
        replay = check_free_derivation(free, ctx, free_derivation_from_json(payload["witness"]))
        assert replay.ok and (replay.lhs, replay.rhs) == (t, u)
    elif code == 1:
        assert bundle.surface.calculus is not None and not search
        values = None
        if bundle.theory.model_hom is not None and not ctx:
            model = set_model(presentation=bundle.surface)
            fold = fold_hom(free, model, bundle.theory.model_hom(model))
            values = (fold.apply(ctx, s, t), fold.apply(ctx, s, u))
        if values is not None and values[0] != values[1]:
            assert payload["certificate"] == [str(v) for v in values]
        else:
            engine = nbe_for(free)
            forms = (engine.normalize(ctx, s, t), engine.normalize(ctx, s, u))
            assert not raw_eq(free.base, ctx, s, *forms)
            assert payload["certificate"] == [str(f) for f in forms]
