"""`model_io.write_file`, the one writer of every file the package and its
scripts write: bytes as given and text as UTF-8, whole or not at all, and
never over a target that is not a regular file; `model_io.read_file`, the
one reader, which reads nothing from a file that is not a regular file;
and `model_io` as the one module that knows a bank directory's layout."""

import ast
import os
import re
from pathlib import Path

import pytest

from hmm2tc.model_io import read_file, write_file

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hmm2tc"


def _listing(root):
    return sorted(str(p.relative_to(root)) for p in Path(root).rglob("*"))


def test_chunks_are_written_in_order_with_no_newline_translated(tmp_path):
    path = tmp_path / "new" / "dir" / "f.bin"
    write_file(path, b"a\r\n", "é\r\n", memoryview(b"\x00z"), "")
    assert path.read_bytes() == b"a\r\n\xc3\xa9\r\n\x00z"
    assert _listing(tmp_path) == ["new", "new/dir", "new/dir/f.bin"]


def test_a_bare_file_name_is_written_in_the_working_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_file("f", "x")
    assert (tmp_path / "f").read_bytes() == b"x" and _listing(tmp_path) == ["f"]


def test_no_chunks_write_an_empty_file(tmp_path):
    (tmp_path / "f").write_bytes(b"old")
    write_file(tmp_path / "f")
    assert (tmp_path / "f").read_bytes() == b"" and _listing(tmp_path) == ["f"]


def test_a_chunk_that_fails_partway_leaves_the_old_file(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"old bytes\n")
    with pytest.raises(UnicodeEncodeError):
        write_file(path, b"new bytes", "\ud800")   # a lone surrogate has no UTF-8
    assert path.read_bytes() == b"old bytes\n" and _listing(tmp_path) == ["f.txt"]


def test_a_failed_replace_leaves_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "f"
    path.write_bytes(b"old")

    def full_disk(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", full_disk)
    with pytest.raises(OSError, match="no space"):
        write_file(path, b"new")
    assert path.read_bytes() == b"old" and _listing(tmp_path) == ["f"]


def test_a_write_through_a_symlink_updates_its_target(tmp_path):
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "target").write_bytes(b"old")
    (tmp_path / "link").symlink_to("d/target")
    (tmp_path / "link2").symlink_to("link")
    write_file(tmp_path / "link2", "new")
    assert (tmp_path / "link").is_symlink() and (tmp_path / "link2").is_symlink()
    assert (tmp_path / "d" / "target").read_bytes() == b"new"
    assert _listing(tmp_path) == ["d", "d/target", "link", "link2"]


def test_a_dangling_symlink_gets_its_target_written(tmp_path):
    (tmp_path / "link").symlink_to("target")
    write_file(tmp_path / "link", "new")
    assert (tmp_path / "link").read_bytes() == b"new" and (tmp_path / "link").is_symlink()


def test_a_directory_is_refused_before_anything_is_written(tmp_path):
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "inside").write_bytes(b"kept")
    with pytest.raises(OSError, match="not a regular file"):
        write_file(tmp_path / "d", b"new")
    assert _listing(tmp_path) == ["d", "d/inside"]
    assert (tmp_path / "d" / "inside").read_bytes() == b"kept"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_a_fifo_is_refused_before_anything_is_written(tmp_path):
    os.mkfifo(tmp_path / "pipe")
    with pytest.raises(OSError, match="not a regular file"):
        write_file(tmp_path / "pipe", b"new")
    assert (tmp_path / "pipe").is_fifo() and _listing(tmp_path) == ["pipe"]


def test_a_file_is_read_as_its_bytes_through_a_symlink_chain(tmp_path):
    (tmp_path / "f").write_bytes(b"\xef\xbb\xbfa\r\nb\rc\x00")
    (tmp_path / "link").symlink_to("f")
    (tmp_path / "link2").symlink_to("link")
    assert read_file(tmp_path / "f") == read_file(str(tmp_path / "link2")) == \
        b"\xef\xbb\xbfa\r\nb\rc\x00"
    (tmp_path / "empty").write_bytes(b"")
    assert read_file(tmp_path / "empty") == b""


def test_a_directory_is_refused_before_it_is_read(tmp_path):
    # FIFOs and devices are refused the same way; tests/test_cli.py names
    # them as every input of every command in a child process, so that a
    # reader that blocks on a FIFO or reads /dev/zero to its end can hang
    # or exhaust only that process
    (tmp_path / "d").mkdir()
    with pytest.raises(OSError, match=re.escape(f"{tmp_path / 'd'}: not a regular file") + "$"):
        read_file(tmp_path / "d")


def _name(call: ast.Call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _is_write(call: ast.Call) -> bool:
    """An open() whose mode may write, a Path write, or os.makedirs."""
    name = _name(call)
    if name in ("write_text", "write_bytes", "makedirs", "mkdir"):
        return True
    if name != "open":
        return False
    mode = call.args[1] if len(call.args) > 1 else \
        next((k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def _is_read(call: ast.Call) -> bool:
    """Any open() (builtin, os or io), a Path read, np.fromfile or np.load."""
    name = _name(call)
    if name in ("open", "read_bytes", "read_text", "fromfile"):
        return True
    value = getattr(call.func, "value", None)
    return name == "load" and isinstance(value, ast.Name) and value.id in ("np", "numpy")


def _sites(is_site) -> list[str]:
    """The calls in the package's modules and in scripts/ for which `is_site`
    holds, outside model_io.read_file and model_io.write_file. Each of the
    two may open a file in any mode: read_file's os.open takes flags that are
    no constant."""
    found = []
    for path in [*sorted(SRC.glob("*.py")), *sorted((ROOT / "scripts").glob("*.py"))]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {id(n) for top in tree.body if path.name == "model_io.py"
                   and isinstance(top, ast.FunctionDef) and top.name in ("read_file", "write_file")
                   for n in ast.walk(top)}
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
                  if isinstance(n, ast.Call) and is_site(n) and id(n) not in allowed]
    return found


def test_every_file_is_written_by_write_file():
    """No module of the package and no script opens a file for writing, or
    makes a directory, outside model_io's one reader and one writer."""
    assert _sites(_is_write) == []


def test_every_file_is_read_by_read_file():
    """No module of the package and no script opens or reads a file outside
    model_io's one reader and one writer."""
    assert _sites(_is_read) == []


def test_only_model_io_names_the_bank_files():
    """No module of the package but model_io holds, outside its docstrings,
    a string that names bank.json, the packed/ directory or a pack record's
    model_sha256: the bank directory's layout is model_io's alone."""
    names = re.compile(r"\bbank\.json\b|\bpacked\b|\bmodel_sha256\b")
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "model_io.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docs = {id(node.body[0].value) for node in ast.walk(tree)
                if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                     ast.AsyncFunctionDef))
                and node.body and isinstance(node.body[0], ast.Expr)}
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
                  if isinstance(n, ast.Constant) and isinstance(n.value, str)
                  and id(n) not in docs and names.search(n.value)]
    assert found == []
