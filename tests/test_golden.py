"""Every CLI command's exact bytes on the committed golden scenario (see ``golden.py``)."""

import os
import shutil

import pytest

from golden import CASES, EXPECTED_DIR, INPUTS_DIR, TERMINAL, first_difference, run_case, write_inputs


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_output_bytes(case, tmp_path):
    shutil.copytree(INPUTS_DIR, tmp_path, dirs_exist_ok=True)
    outputs = run_case(case, str(tmp_path))
    case_dir = os.path.join(EXPECTED_DIR, case.name)
    assert sorted(outputs) == sorted(os.listdir(case_dir))
    for name, actual in outputs.items():
        with open(os.path.join(case_dir, name), "rb") as f:
            expected = f.read()
        if actual != expected:
            pytest.fail(f"{case.name}/{name} differs at {first_difference(expected, actual)}")


def test_every_expected_directory_is_a_case():
    # ``regenerate()`` deletes the corpus first, so only this catches a directory a renamed case left behind.
    assert sorted(os.listdir(EXPECTED_DIR)) == sorted(case.name for case in CASES)


def test_generator_writes_the_committed_inputs(tmp_path):
    write_inputs(str(tmp_path))
    assert sorted(os.listdir(tmp_path)) == sorted(os.listdir(INPUTS_DIR))
    for name in os.listdir(INPUTS_DIR):
        with open(os.path.join(INPUTS_DIR, name), "rb") as f:
            expected = f.read()
        actual = (tmp_path / name).read_bytes()
        if actual != expected:
            pytest.fail(f"inputs/{name} differs at {first_difference(expected, actual)}")


def _sweep_rows(case_name):
    with open(os.path.join(EXPECTED_DIR, case_name, TERMINAL), encoding="utf-8") as f:
        return [line.split("\t") for line in f.read().splitlines()[1:]]


def test_scenario_has_false_advisories_missed_windows_and_undefined_rows():
    rows = _sweep_rows("sweep_tsv")
    assert rows and all(int(row[4]) > 0 and int(row[5]) > 0 for row in rows)
    assert all(row[1] == "—" for row in _sweep_rows("sweep_undefined_tsv"))


@pytest.mark.parametrize(
    "expected, actual, where",
    [
        (b"a\nb\n", b"a\nc\n", "line 2: expected b'b\\n', got b'c\\n'"),
        (b"a\nb\n", b"a\n", "line 2: expected b'b\\n', got end of output"),
        (b"a\n", b"a\nb", "line 2: expected end of output, got b'b'"),
        (b"a\n", b"a", "line 1: expected b'a\\n', got b'a'"),
    ],
)
def test_first_difference_names_the_line(expected, actual, where):
    assert first_difference(expected, actual) == where
