"""Bundle matrix: every shipped bundle, and a copy of the boolean one with
its bundle and base renamed, runs through the CLI commands its base theory
supports.  The base theory is chosen by the ``strategy base`` line, never by
a name, so the renamed copy behaves exactly like the original.
"""

from pathlib import Path

import pytest

from clonal.cli import main
from clonal.surface import ParseError, parse_bundle

BUNDLES = Path(__file__).resolve().parent.parent / "src" / "clonal" / "bundles"
SHIPPED = sorted(p.stem for p in BUNDLES.glob("*.bundle"))
BOOLEAN = ("stlc_bool", "renamed_bool")


def source(name: str) -> str:
    if name == "renamed_bool":
        text = (BUNDLES / "stlc_bool.bundle").read_text()
        return text.replace("bundle stlc_bool", "bundle renamed_bool").replace(
            "base bool\n", "base truth\n"
        )
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
