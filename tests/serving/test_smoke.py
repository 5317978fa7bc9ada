"""The two-process serving smoke, end to end: export, fresh-process serve, update.

``serve`` runs through ``python -m repro.serving.smoke`` in a child
interpreter, so the property it exists for — a fresh process with no
fitted state answers exactly like the fitting one — is the one tested.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import cli
from repro.dataset.corpus import generate_page
from repro.persist import read_artifact, write_artifact
from repro.serving import smoke

SRC = str(Path(repro.__file__).resolve().parents[1])


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("smoke-export")
    assert smoke.main(["export", "--dir", str(out_dir)]) == 0
    return out_dir


@pytest.fixture
def smoke_dir(exported, tmp_path):
    """A private copy of the export, free to mutate."""
    return Path(shutil.copytree(exported, tmp_path / "smoke"))


def _serve_in_fresh_process(out_dir: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "repro.serving.smoke", "serve", "--dir", str(out_dir)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_export_serve_update_all_pass(smoke_dir, tmp_path):
    manifest = read_artifact(str(smoke_dir / smoke.MANIFEST))
    assert [entry["task_id"] for entry in manifest["tasks"]] == list(smoke.SMOKE_TASKS)
    assert all(entry["routed"]["answer"] for entry in manifest["tasks"])

    served = _serve_in_fresh_process(smoke_dir)
    assert served.returncode == 0, served.stderr
    assert "serving smoke OK" in served.stdout

    changed = tmp_path / "changed.html"
    changed.write_text(generate_page("faculty", 97).html, encoding="utf-8")
    url = manifest["tasks"][0]["pages"][0]["url"]
    store = str(smoke_dir / smoke.CORPUS_FILE)
    assert cli.main(["corpus", "update", store, "--page", str(changed), url]) == 0
    assert smoke.main(["update", "--dir", str(smoke_dir)]) == 0


def test_serve_fails_on_a_tampered_expected_answer(smoke_dir, capsys):
    path = str(smoke_dir / smoke.MANIFEST)
    manifest = read_artifact(path)
    page = manifest["tasks"][0]["pages"][0]
    page["expected"] = page["expected"] + ["not an answer"]
    write_artifact(path, manifest)

    assert smoke.main(["serve", "--dir", str(smoke_dir)]) == 1
    err = capsys.readouterr().err
    assert f"url={page['url']}" in err
    assert "serving smoke FAILED" in err


def test_update_fails_before_any_update(smoke_dir, capsys):
    # Store and index still sit at the build's generation 1.
    assert smoke.main(["update", "--dir", str(smoke_dir)]) == 1
    assert "GENERATION MISMATCH" in capsys.readouterr().err


def test_each_phase_takes_only_dir():
    with pytest.raises(SystemExit):
        smoke.main(["serve", "--dir", "x", "--jobs", "2"])
    assert sorted(smoke.PHASES) == ["export", "serve", "update"]
