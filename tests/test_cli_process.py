"""The CLI as a process: `python -m flowsentinel` children against in-process
`cli.run`, stdout failures, and how the process ends.

Every child runs with buffered stdout (no PYTHONUNBUFFERED), as a pipe or a
file gets it, so a write can fail at the last flush as well as during the run.
"""

import errno
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flowsentinel import cli
from flowsentinel.cli import run

from conftest import write_flow_csv

SRC = str(Path(cli.__file__).resolve().parents[1])


def _env():
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _child(argv, stdout=subprocess.PIPE, prefix=("-m", "flowsentinel"), env=None):
    return subprocess.run([sys.executable, *prefix, *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env or _env())


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("process")
    data = write_flow_csv(tmp / "flows.csv", n_per_class=20, seed=4)
    # 300 rows: predict writes about 20 KB, past stdout's 8 KB buffer
    wide = write_flow_csv(tmp / "many.csv", n_per_class=100, seed=5)
    model = str(tmp / "model.fsnt")
    assert run(["train", "--data", data, "--out", model, "--epochs", "1"]) == 0
    return {"data": data, "many": wide, "model": model, "dir": tmp}


def _argv(files, name):
    data, model, tmp = files["data"], files["model"], files["dir"]
    return {
        "train": ["train", "--data", data, "--out", str(tmp / "new.fsnt"),
                  "--epochs", "2", "--seed", "3"],
        "inspect": ["inspect", "--model", model],
        "predict": ["predict", "--model", model, "--data", data],
        "predict-out": ["predict", "--model", model, "--data", data,
                        "--out", str(tmp / "pred.csv")],
        "predict-many": ["predict", "--model", model, "--data", files["many"]],
        "evaluate": ["evaluate", "--model", model, "--data", data],
        "help": ["--help"],
        "usage-error": ["train", "--data", data, "--bogus"],
        "data-error": ["predict", "--model", model, "--data", str(tmp / "absent.csv")],
        "model-error": ["inspect", "--model", str(tmp / "absent.fsnt")],
    }[name]


@pytest.mark.parametrize("name, code", [
    ("train", 0), ("inspect", 0), ("predict", 0), ("predict-out", 0),
    ("evaluate", 0), ("usage-error", 1), ("data-error", 2), ("model-error", 3),
])
def test_child_output_equals_in_process_run(files, capsys, name, code):
    argv = _argv(files, name)
    written = [Path(argv[i + 1]) for i, flag in enumerate(argv) if flag == "--out"]
    proc = _child(argv)
    child_files = [path.read_bytes() for path in written]
    assert run(argv) == code
    captured = capsys.readouterr()
    assert proc.returncode == code
    assert proc.stdout.decode("utf-8") == captured.out
    assert proc.stderr.decode("utf-8") == captured.err
    assert [path.read_bytes() for path in written] == child_files


def _closed_pipe(argv):
    read, write = os.pipe()
    os.close(read)
    try:
        return _child(argv, stdout=write), errno.EPIPE
    finally:
        os.close(write)


def _full_device(argv):
    if not Path("/dev/full").exists():
        pytest.skip("needs /dev/full")
    with open("/dev/full", "wb") as full:
        return _child(argv, stdout=full), errno.ENOSPC


@pytest.mark.parametrize("sink", [_closed_pipe, _full_device],
                         ids=["closed-pipe", "dev-full"])
@pytest.mark.parametrize("name", ["train", "inspect", "predict", "predict-many",
                                  "evaluate", "help"])
def test_failed_stdout_write_is_one_line_and_exit_2(files, sink, name):
    proc, code = sink(_argv(files, name))
    err = [line for line in proc.stderr.decode("utf-8").splitlines()
           if not line.startswith("epoch ")]
    assert err == [f"error: cannot write stdout: {os.strerror(code)}"]
    assert proc.returncode == 2


def test_a_profiler_keeps_the_normal_exit(files):
    """cProfile prints its table after the module returns: a fast exit that
    ignored the installed profiler would end the process before it."""
    proc = _child(_argv(files, "inspect"), prefix=("-m", "cProfile", "-m", "flowsentinel"))
    out = proc.stdout.decode("utf-8")
    assert proc.returncode == 0, proc.stderr
    assert out.startswith("task: ")
    assert "function calls" in out and "Ordered by: " in out


_ATEXIT = ("import atexit, sys\n"
           "atexit.register(lambda: print('atexit ran', file=sys.stderr))\n"
           "{hook}\n"
           "sys.argv[1:] = ['--help']\n"
           "from flowsentinel.cli import main\n"
           "main()\n")


@pytest.mark.parametrize("hook, ran", [
    ("", False),
    ("sys.setprofile(lambda *args: None)", True),
], ids=["fast-exit", "profiled"])
def test_atexit_handlers_run_only_when_a_tool_is_installed(hook, ran):
    proc = _child([], prefix=("-c", _ATEXIT.format(hook=hook)))
    assert proc.returncode == 0
    assert proc.stdout.startswith(b"usage: flowsentinel")
    assert proc.stderr == (b"atexit ran\n" if ran else b"")


def test_run_returns_after_help(capsys):
    assert run(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: flowsentinel")
