"""In-process fuzz of the command line.

Each example draws a subcommand, a subset of its own flags with values from
every family of spec strings (malformed ones included), and at times one
flag the subcommand does not take, then calls ``cli.main`` with stdout and
stderr captured.  Whatever the input, the CLI must answer with an exit code
in {0, 1, 2} and never with an escaped exception, a traceback or a numpy
``RuntimeWarning`` (each is raised as an error inside the example).

The drawn sizes stay small (degrees <= 8, node counts <= 16, lists of at
most 4 entries, ``sup:`` <= 8) and ``--out`` is never drawn: these limits
bound only what one example allocates, the caps themselves are tested in
``test_cli.py``.
"""

import argparse
import contextlib
import io
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from slicefock import cli

REALS = ["0", "0.25", "-0.3", "0.5", "1", "2", "1e-200", "1e200", "inf",
         "-inf", "nan", "x"]


def _listed(items, low=0):
    return st.lists(st.sampled_from(items), min_size=low, max_size=4).map(",".join)


def _ints(low, high):
    return st.integers(low, high).map(str)


#: Per flag: (values the flag is meant to take, values that are wrong for it).
VALUES = {
    "fn": (st.one_of(
        st.sampled_from(["exp", "gauss:0.25", "gauss:-0.2", "poly:{good}",
                         "kernel-section:0.5,0.1,0,-0.2,1"]),
        _ints(0, 8).map("mono:{}".format),
        st.tuples(_ints(0, 8), _ints(0, 99)).map(lambda t: "random:{}:{}".format(*t)),
    ), st.one_of(
        st.sampled_from(REALS).map("gauss:{}".format),
        st.lists(st.sampled_from(REALS), min_size=4, max_size=6)
        .map(lambda c: "kernel-section:" + ",".join(c)),
        st.sampled_from(["poly:{bad}", "poly:/nonexistent/f.txt", "bogus", "",
                         "exp:1", "gauss:", "mono:", "mono:-1", "mono:x",
                         "random:3", "random:1:2:3", "random:x:1",
                         "kernel-section:1,2"]),
    )),
    "p": (st.sampled_from(["1", "1.5", "2", "3", "4"]),
          st.sampled_from(["0.5", "0", "-1", "inf", "nan", "1e300", "x"])),
    "alpha": (st.sampled_from(["0.5", "1", "2"]),
              st.sampled_from(["0", "-1", "1e-200", "1e300", "inf", "nan", "x"])),
    "kind": (st.sampled_from(["first", "second"]), st.just("third")),
    "slice": (st.sampled_from(["i", "j", "k", "0.3,-0.4,0.5"])
              | _ints(1, 8).map("sup:{}".format),
              st.sampled_from(["0,0,0", "nan,1,0", "inf,0,0", "1e-300,0,0",
                               "sup:x", "sup:", "sup:0", "sup:-1", "a,b", "l"])),
    "quad_radial": (_ints(2, 16), st.sampled_from(["-1", "0", "1", "x"])),
    "quad_angular": (_ints(2, 16), st.sampled_from(["-1", "0", "1", "x"])),
    "format": (st.sampled_from(["csv", "json"]), st.just("xml")),
    "operator": (st.sampled_from(["taylor", "fejer", "vdp", "jackson"]),
                 st.just("bogus")),
    "n_list": (_listed([str(n) for n in range(1, 9)], 1),
               _listed(["-1", "0", "x", "2.5", ""])),
    "m": (_ints(0, 3), st.sampled_from(["-1", "x"])),
    "family": (st.sampled_from(["fejer", "vdp", "jackson"]), st.just("bogus")),
    "n": (_ints(1, 8), st.sampled_from(["-1", "0", "x"])),
    "k": (_ints(1, 4), st.sampled_from(["-1", "0", "x"])),
    "delta_list": (_listed(["0", "0.1", "0.5", "1", "3.14"], 1),
                   _listed(["4", "-1", "nan", "inf", "x"])),
    "h_grid": (_ints(8, 16), st.sampled_from(["0", "7", "x"])),
    "r_min": (st.sampled_from(["0.5", "1", "2"]), st.sampled_from(REALS)),
    "r_max": (st.sampled_from(["8", "16", "64"]), st.sampled_from(REALS)),
    "radii": (_ints(4, 12), st.sampled_from(["0", "3", "-1", "x"])),
    "centers": (_listed(["0", "0.5", "-0.8", "0.3:0.1:0:0", "0:0.5:0:0"], 1),
                _listed(["1e200", "1:2:3", "nan", "inf", "x", "0,0"])),
}


def _subcommands():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {a.dest: (a.option_strings[0], a.required) for a in p._actions
                   if a.option_strings and a.dest not in ("help", "out")}
            for name, p in sub.choices.items()}


SUBCOMMANDS = _subcommands()
ALL_FLAGS = sorted({f for flags in SUBCOMMANDS.values() for f, _ in flags.values()}
                   | {"--quad-sphere", "--nope"})


@st.composite
def invocations(draw):
    """A subcommand with its required flags (now and then one left out), a
    subset of its other flags, at most one wrong value and at times one
    flag it does not take."""
    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    own = SUBCOMMANDS[name]
    dests = [d for d in sorted(own) if own[d][1]]
    if dests and draw(st.integers(0, 9)) == 0:
        dests.remove(draw(st.sampled_from(dests)))
    dests += draw(st.lists(st.sampled_from([d for d in sorted(own) if not own[d][1]]),
                           unique=True))
    wrong = draw(st.none() | st.sampled_from(dests)) if dests else None
    argv = [name]
    for dest in dests:
        valid, invalid = VALUES[dest]
        argv += [own[dest][0], draw(invalid if dest == wrong else valid)]
    if draw(st.integers(0, 4)) == 0:
        flags = {f for f, _ in own.values()}
        argv += [draw(st.sampled_from([f for f in ALL_FLAGS if f not in flags])), "1"]
    return argv


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
# sizes and values past the float range that once overflowed with warnings
@example(argv=["kernel-fit", "--fn", "mono:2", "--centers", "0.5", "--alpha", "1e-200"])
@example(argv=["norm", "--fn", "kernel-section:1e200,1,0,0,1"])
@example(argv=["smoothness", "--fn", "exp", "--k", "100000", "--delta-list", "0.5"])
@example(argv=["bestapprox", "--fn", "exp", "--alpha", "0.01", "--n-list", "176,180"])
@example(argv=["converge", "--fn", "random:8:3", "--operator", "vdp", "--p", "1.5",
               "--alpha", "1e-20", "--n-list", "4,16"])
@example(argv=["norm", "--fn", "mono:4", "--kind", "first", "--p", "3",
               "--alpha", "1e-150"])
@example(argv=["norm", "--fn", "mono:4", "--alpha", "1e-200"])
@example(argv=["norm", "--fn", "mono:4", "--alpha", "1e200"])
@example(argv=["norm", "--fn", "mono:4", "--alpha", "1e200", "--p", "1"])
@example(argv=["converge", "--fn", "mono:4", "--operator", "taylor", "--alpha", "1e-200"])
@example(argv=["bestapprox", "--fn", "mono:4", "--alpha", "1e-200", "--p", "1.5",
               "--n-list", "2"])
@example(argv=["norm", "--fn", "mono:100", "--kind", "first", "--p", "4"])
# one verdict per input: the table of test_cli.py::test_one_verdict_per_input
@example(argv=["norm", "--fn", "exp", "--alpha", "0.01"])
@example(argv=["smoothness", "--fn", "exp", "--alpha", "0.01", "--p", "1"])
@example(argv=["converge", "--fn", "exp", "--alpha", "0.01", "--n-list", "4",
               "--operator", "fejer"])
@example(argv=["converge", "--fn", "exp", "--alpha", "0.01", "--n-list", "4",
               "--operator", "vdp", "--p", "1"])
@example(argv=["converge", "--fn", "exp", "--alpha", "0.01", "--n-list", "4",
               "--operator", "taylor"])
@example(argv=["converge", "--fn", "gauss:0.25", "--p", "1", "--n-list", "4,16",
               "--operator", "taylor"])
@example(argv=["converge", "--fn", "gauss:0.25", "--p", "1", "--n-list", "4,16",
               "--operator", "fejer"])
@example(argv=["norm", "--fn", "gauss:0.25", "--p", "1", "--kind", "first"])
@example(argv=["norm", "--fn", "gauss:0.25", "--p", "1", "--kind", "second"])
@example(argv=["norm", "--fn", "exp", "--alpha", "0.012", "--kind", "first"])
@example(argv=["norm", "--fn", "exp", "--alpha", "0.012", "--kind", "second"])
@example(argv=["norm", "--fn", "gauss:0.5", "--p", "1"])
@example(argv=["norm", "--fn", "gauss:0.5", "--p", "2"])
@example(argv=["norm", "--fn", "gauss:0.499", "--p", "1"])
@example(argv=["norm", "--fn", "gauss:0.499", "--p", "2"])
@example(argv=["smoothness", "--fn", "gauss:0.5"])
@example(argv=["bestapprox", "--fn", "gauss:0.5"])
@example(argv=["kernel-fit", "--fn", "gauss:0.1", "--centers", "1", "--alpha", "1e-200"])
@example(argv=["converge", "--fn", "mono:40", "--operator", "taylor", "--n-list", "4",
               "--quad-radial", "8"])
@example(argv=["converge", "--fn", "mono:300", "--operator", "taylor", "--n-list", "4"])
def test_cli_exits_0_1_or_2_without_traceback(tmp_path_factory, argv):
    good = tmp_path_factory.getbasetemp() / "fuzz_poly.txt"
    bad = good.with_suffix(".bad")
    good.write_text("1 0 0 0\n0.5 0.25 0 -1\n")
    bad.write_text("1 2 3\n")
    argv = [a.format(good=good, bad=bad) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
    if code:
        assert err.getvalue(), argv
