"""``cli.main`` parses with one parser built once; parsing must not change it.

A run after other subcommands and after an argparse failure must print the
same bytes as the same run with a freshly built parser.
"""
import pytest

from idealgames import cli

# Its printed points depend on --eps, which the failing call sets first.
CLUSTER = ["cluster", "--seq", "alt(0,33/100)", "--ideal", "density0", "-N", "1000"]
CLASSIFY = ["classify", "--ideal", "summable", "--set", "union(ap(1,3),finite{2})"]


def run(capsys, argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_shared_parser_leaks_no_state(capsys):
    first = run(capsys, CLUSTER)
    run(capsys, CLASSIFY)
    with pytest.raises(SystemExit) as exc:
        cli.main(["cluster", "--seq", "alt(0,1)", "--eps", "0.2", "--ideal", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    again = run(capsys, CLUSTER)
    cli.build_parser.cache_clear()
    fresh = run(capsys, CLUSTER)
    assert first == again == fresh
    assert first[0] == 0 and first[1]
