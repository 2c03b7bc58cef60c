"""Usage lines and help text of the command line, made from `cli.COMMANDS`.

Only `--help` and a refused argv print them, so `cli` imports this module
at those two points and a command that runs never compiles it.  Each
function takes the module holding the table: run as `python -m
cubemedian.cli`, that module is `__main__`, and importing `cubemedian.cli`
from here would run a second copy of it.
"""

from __future__ import annotations


def _spelled(cli, option, flag: str) -> str:
    """flag followed by the word standing for its value."""
    kind = option[1]
    if kind is cli.FLAG:
        return flag
    word = "{" + ",".join(kind) + "}" if type(kind) is tuple else cli._dest(option).upper()
    return f"{flag} [{word} ...]" if kind is cli.LIST else f"{flag} {word}"


def _usage(cli, name) -> str:
    _, _, positional, options = cli.COMMANDS[name] if name else cli.PROGRAM
    words = ["usage: cubemedian", name or "", "[-h]"]
    for option in options:
        word = _spelled(cli, option, option[0][0])
        words.append(word if option[2] is cli.REQUIRED else f"[{word}]")
    words.append(positional or "" if name else f"{{{','.join(cli.COMMANDS)}}} ...")
    return " ".join(word for word in words if word)


def _help(cli, name) -> str:
    _, title, positional, options = cli.COMMANDS[name] if name else cli.PROGRAM
    if name is None:
        rows = [(command, entry[1]) for command, entry in cli.COMMANDS.items()]
    else:
        rows = [(positional, "the complex file")] if positional else []
    rows.append(("-h, --help", cli.HELP[3]))
    for option in options:
        flags, kind, default, text = option
        if kind is not cli.FLAG and default not in (None, cli.REQUIRED, []):
            text += f" (default: {default})"
        rows.append((", ".join((*flags[:-1], _spelled(cli, option, flags[-1]))), text))
    width = max(len(left) for left, _ in rows) + 2
    return "\n".join([_usage(cli, name), "", title, "",
                      *(f"  {left:{width}}{right}" for left, right in rows)]) + "\n"
