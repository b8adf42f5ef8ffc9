"""Tests of ``append_trajectory.py``: result lines in, one stamped line out."""

import json
import subprocess

import pytest

import append_trajectory


def result_line(speedup, failed=0):
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": 10,
            "failed": failed,
            "metrics": {
                "speedup": {"value": speedup, "unit": "x"},
                "makespan_s": {"value": 21.70612345, "unit": "s"},
            },
        }
    )


def git(repo, *args):
    subprocess.run(["git", *args], cwd=repo, check=True, capture_output=True)


@pytest.fixture
def repo(tmp_path):
    git(tmp_path, "init", "-q")
    (tmp_path / "tracked.txt").write_text("a\n")
    git(tmp_path, "add", "tracked.txt")
    git(tmp_path, "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "c")
    return tmp_path


@pytest.fixture
def out(tmp_path, monkeypatch):
    """A stand-in for ``TRAJECTORY.jsonl``, so the tests never append to it."""
    path = tmp_path / "trajectory.jsonl"
    monkeypatch.setattr(append_trajectory, "TRAJECTORY", path)
    return path


def test_appends_one_line_stamped_with_head(repo, out, tmp_path):
    out.write_text('{"commit": "older"}\n')
    faults = tmp_path / "faults.txt"
    faults.write_text("== sim-faults-8w  seed 100\n  speedup  3.3 x\n" + result_line(3.30123456) + "\n")
    fig3 = tmp_path / "fig3.txt"
    fig3.write_text(result_line(7.2, failed=1))

    append_trajectory.main(
        [f"sim-faults-8w={faults}", f"sim-fig3-8w={fig3}", "--repo", str(repo),
         "--seed", "11", "--note", "n"]
    )
    lines = out.read_text().splitlines()
    assert len(lines) == 2 and lines[0] == '{"commit": "older"}'
    line = json.loads(lines[1])
    head = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=repo, capture_output=True, text=True
    ).stdout.strip()
    assert line["commit"] == head and "dirty" not in line
    assert line["seed"] == 11 and line["note"] == "n"
    assert list(line["cells"]) == ["sim-faults-8w", "sim-fig3-8w"]
    assert line["cells"]["sim-faults-8w"] == {"speedup": 3.3012, "makespan_s": 21.706}
    assert line["ops_failed"] == {"sim-faults-8w": 0, "sim-fig3-8w": 1}


def test_uncommitted_change_is_marked_dirty(repo, out, tmp_path):
    (repo / "tracked.txt").write_text("b\n")
    result = tmp_path / "r.txt"
    result.write_text(result_line(1.0))
    append_trajectory.main([f"sim-fig3-8w={result}", "--repo", str(repo)])
    assert json.loads(out.read_text())["dirty"] is True


def test_rejects_output_without_a_result_line(tmp_path):
    text = tmp_path / "r.txt"
    text.write_text('{"correct": true}\n')
    with pytest.raises(ValueError):
        append_trajectory.read_result(text)
    with pytest.raises(SystemExit):
        append_trajectory.main(["no-equals-sign"])
