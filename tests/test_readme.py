import contextlib
import io
import re
import shlex
from pathlib import Path

from forceps.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def test_python_examples_print_what_their_comments_state():
    blocks = _blocks("python")
    assert len(blocks) == 2
    for code in blocks:
        # a print line's comment starts with what it prints; ", ..." may follow
        stated = [line.split("#", 1)[1].strip() for line in code.splitlines()
                  if line.startswith("print(") and "#" in line]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(code, {})  # each block stands alone
        printed = out.getvalue().splitlines()
        assert len(printed) == len(stated)
        for got, want in zip(printed, stated):
            assert want == got or want.startswith(got + ", ")


def test_cli_examples_print_what_their_comments_state(capsys):
    stated = [re.match(r"forceps\s+(.*?)\s+# -> (.*)$", line).groups()
              for line in "".join(_blocks("sh")).splitlines() if "# -> " in line]
    assert sorted(shlex.split(argv)[0] for argv, _ in stated) == ["audit", "check", "hitting", "number"]
    for argv, want in stated:
        assert main(shlex.split(argv)) == 0
        pattern = r"\s.*\s".join(map(re.escape, want.split(" ... ")))
        assert re.fullmatch(pattern, capsys.readouterr().out.rstrip("\n")), argv
