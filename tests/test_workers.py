"""`--workers` runs a batch in forked worker processes, and this process runs
a share: outputs are byte-identical at any worker count, a worker's input
error is that item's error, its death is the error of each item it had not
finished, a program error in any process fails the command, and no worker
outlives it. Each test forks at most two children."""

from __future__ import annotations

import json
import os
import shutil
import signal
import time

import numpy as np
import pytest

from speechpipe import Waveform, cli, write_embeddings_file, write_wav
from speechpipe.cli import main
from synth import SR, silence, tone, two_speaker_scene

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="worker processes are made by fork")


def assert_no_children() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def wavs(tmp_path) -> list[str]:
    paths = []
    for i in range(3):
        sig = np.concatenate([tone(300 + 150 * i, 1.5 + i), silence(0.8), tone(500, 1.0)])
        paths.append(str(tmp_path / f"w{i}.wav"))
        write_wav(paths[-1], Waveform(sig, SR))
    return paths


@pytest.fixture
def containers(tmp_path) -> list[str]:
    paths = []
    for i in range(4):
        emb, _ = two_speaker_scene(seed=20 + i, total_seconds=30.0, dim=16)
        emb.recording_id = f"rec{i}"
        paths.append(str(tmp_path / f"c{i}.emb"))
        write_embeddings_file(paths[-1], emb)
    return paths


def run_fd(capfd, argv) -> tuple[int, str, str]:
    code = main(argv)
    captured = capfd.readouterr()
    return code, captured.out, captured.err


def tree(root) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("command", ["chunk", "detect-music", "diarize", "cluster"])
def test_outputs_identical_at_any_worker_count(command, wavs, containers, tmp_path, capfd):
    # Compared at the file descriptors, so a worker's stray write would show.
    out_dir = tmp_path / "out"
    argv = {
        "chunk": ["chunk", *wavs, "--min-dur", "1", "--max-dur", "2", "--write-chunks", str(out_dir)],
        "detect-music": ["detect-music", *wavs],
        "diarize": ["diarize", *containers[:3], "--out-dir", str(out_dir)],
        "cluster": ["cluster", *containers[:3], "--method", "kmeans"],
    }[command]
    runs = []
    for workers in ("1", "2", "3"):
        shutil.rmtree(out_dir, ignore_errors=True)
        runs.append((run_fd(capfd, [*argv, "--workers", workers]), tree(out_dir) if out_dir.exists() else {}))
        assert_no_children()
    (code, out, _), written = runs[0]
    assert code == 0 and out
    assert runs[1] == runs[0] and runs[2] == runs[0]
    if command in ("chunk", "diarize"):
        assert written


def test_corrupt_container_dealt_to_a_child_is_its_error(containers, capfd):
    # Sorted, the corrupt file is item 1, which child 1 of `--workers 3` runs.
    with open(containers[1], "r+b") as fh:
        fh.truncate(40)
    argv = ["cluster", *containers[:3], "--method", "kmeans"]
    serial, forked = run_fd(capfd, [*argv, "--workers", "1"]), run_fd(capfd, [*argv, "--workers", "3"])
    assert forked == serial
    code, out, err = forked
    assert code == 1 and "Traceback" not in err
    doc = json.loads(out)
    assert [f["path"] for f in doc["files"]] == [containers[0], containers[2]]
    assert list(doc["errors"]) == [containers[1]]


def test_killed_child_makes_its_items_errors(containers, tmp_path, monkeypatch, capfd):
    # At two workers the child runs items 1 and 3; it is killed reading item 1.
    parent, read = os.getpid(), cli.read_embeddings_file

    def read_or_die(path):
        if os.getpid() != parent and path == containers[1]:
            os.kill(os.getpid(), signal.SIGKILL)
        return read(path)

    monkeypatch.setattr(cli, "read_embeddings_file", read_or_die)
    code, out, err = run_fd(capfd, ["diarize", *containers, "--out-dir", str(tmp_path / "out"), "--workers", "2"])
    assert_no_children()
    assert code == 1 and "Traceback" not in err
    doc = json.loads(out)
    assert [f["path"] for f in doc["files"]] == [containers[0], containers[2]]
    ended = "worker process was killed by signal 9 before sending its results"
    assert doc["errors"] == {containers[1]: ended, containers[3]: ended}
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["rec0.csv", "rec0.rttm", "rec2.csv", "rec2.rttm"]


@pytest.mark.parametrize("command", ["diarize", "chunk"])
def test_killed_child_keeps_the_files_it_finished(command, wavs, containers, tmp_path, monkeypatch, capfd):
    # The child runs items 1 and 3 and is killed reading item 3: item 1 is
    # reported, and its outputs written, as at one worker.
    out_dir = tmp_path / "out"
    if command == "diarize":
        paths, reader, lost = containers, "read_embeddings_file", "rec3."
        argv = ["diarize", *paths, "--out-dir", str(out_dir)]
    else:
        paths, reader, lost = [*wavs, str(tmp_path / "w3.wav")], "mono_stream", "w3_"
        shutil.copyfile(wavs[0], paths[3])
        argv = ["chunk", *paths, "--min-dur", "1", "--max-dur", "2", "--write-chunks", str(out_dir)]
    code, serial, _ = run_fd(capfd, [*argv, "--workers", "1"])
    assert code == 0
    written = tree(out_dir)
    shutil.rmtree(out_dir)
    parent, read = os.getpid(), getattr(cli, reader)

    def read_or_die(path, *args):
        if os.getpid() != parent and path == paths[3]:
            os.kill(os.getpid(), signal.SIGKILL)
        return read(path, *args)

    monkeypatch.setattr(cli, reader, read_or_die)
    code, out, err = run_fd(capfd, [*argv, "--workers", "2"])
    assert_no_children()
    assert code == 1 and "Traceback" not in err
    doc = json.loads(out)
    assert doc["files"] == json.loads(serial)["files"][:3]
    assert doc["errors"] == {paths[3]: "worker process was killed by signal 9 before sending its results"}
    assert tree(out_dir) == {name: data for name, data in written.items() if not name.startswith(lost)}
    if command == "chunk":  # the finished file's chunk WAVs are those of its plan
        chunks = len(doc["files"][1]["chunks"])
        assert sorted(n for n in tree(out_dir) if n.startswith("w1_")) == [f"w1_chunk{i:03d}.wav" for i in range(chunks)]


@pytest.mark.parametrize("local", [False, True])
def test_program_error_in_a_child_fails_the_command(local, containers, monkeypatch):
    # An exception class local to a function does not pickle: it fails the
    # command all the same, with the child's traceback.
    class Unpicklable(Exception):
        pass

    error, raised = (Unpicklable, RuntimeError) if local else (ZeroDivisionError, ZeroDivisionError)
    parent, clustered = os.getpid(), cli.cluster_embeddings

    def cluster_or_fail(*args):
        if os.getpid() != parent:
            raise error("a program error")
        return clustered(*args)

    monkeypatch.setattr(cli, "cluster_embeddings", cluster_or_fail)
    with pytest.raises(raised) as caught:
        main(["cluster", *containers[:2], "--workers", "2"])
    assert_no_children()
    cause = str(caught.value.__cause__)
    assert "raised in a worker process" in cause and "cluster_or_fail" in cause and "a program error" in cause


def test_program_error_here_kills_and_reaps_the_children(containers, monkeypatch):
    # The child would sleep for a minute: it is killed, not waited for.
    parent, clustered = os.getpid(), cli.cluster_embeddings

    def cluster_or_fail(*args):
        if os.getpid() == parent:
            raise ZeroDivisionError("a program error")
        time.sleep(60)
        return clustered(*args)

    monkeypatch.setattr(cli, "cluster_embeddings", cluster_or_fail)
    started = time.monotonic()
    with pytest.raises(ZeroDivisionError, match="a program error"):
        main(["cluster", *containers[:2], "--workers", "2"])
    assert time.monotonic() - started < 30
    assert_no_children()


@pytest.mark.parametrize("workers, forks", [("1", 0), ("8", 2)])
def test_forks_one_child_fewer_than_the_workers_it_can_use(workers, forks, containers, monkeypatch, capsys):
    made, fork = [], os.fork

    def counted():
        made.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    assert main(["cluster", *containers[:3], "--method", "kmeans", "--workers", workers]) == 0
    assert len(made) == forks
    assert len(json.loads(capsys.readouterr().out)["files"]) == 3
