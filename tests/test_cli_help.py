"""The exact ``--help`` text of the top-level parser and of every subcommand.

argparse wraps help to the terminal width, so each test fixes ``COLUMNS=80``.
"""

import pytest

from exuberance.cli import main

HELP = {
    "exuberance": """\
usage: exuberance [-h]
                  {test,datestamp,monitor,simulate-cv,study,relate,plot-data}
                  ...

Command line front end for reproducible runs. Every invocation is resolved
into a :class:`RunConfig`, executed, and written out as a JSON report that
embeds the full config. Re-running ``<subcommand> --config report.json``
reproduces every number exactly: all randomness flows through the recorded
seed, never the wall clock. Only the ``created`` timestamp differs between two
runs of the same config. Exit codes: 0 when the run completed (a non-rejection
is not an error), 1 for usage or contract problems, 2 for data problems.

positional arguments:
  {test,datestamp,monitor,simulate-cv,study,relate,plot-data}
    test                one right-tailed test with a cv or bootstrap decision
    datestamp           stamp explosive episodes
    monitor             composite sequential monitoring over a control window
    simulate-cv         tabulate Monte Carlo critical values
    study               size/power study under configurable generators
    relate              migration, contagion-delay, or co-bubble analysis of
                        two series
    plot-data           emit a report's sequence/episodes as tidy CSV

options:
  -h, --help            show this help message and exit
""",
    "exuberance test": """\
usage: exuberance test [-h] [--config CONFIG] [--out OUT] [--seed SEED]
                       [--input INPUT] [--column COLUMN]
                       [--label-column LABEL_COLUMN]
                       [--stat {gsadf,gstadf,hb_chow,sadf,sadf_gls,sbz,sign_gsadf,sign_sadf,stadf}]
                       [--tau0 TAU0] [--det {none,const,trend}] [--k K]
                       [--B B] [--multiplier {gaussian,rademacher,skewed}]
                       [--level LEVEL] [--cv CV]

options:
  -h, --help            show this help message and exit
  --config CONFIG       config or report JSON to re-run
  --out OUT             report destination (stdout when omitted)
  --seed SEED           RNG seed (default $EXUBERANCE_SEED or 0)
  --input INPUT         CSV series file
  --column COLUMN       value column name or index
  --label-column LABEL_COLUMN
                        label column name or index
  --stat {gsadf,gstadf,hb_chow,sadf,sadf_gls,sbz,sign_gsadf,sign_sadf,stadf}
                        statistic (default gsadf)
  --tau0 TAU0           minimum window fraction or 'auto'
  --det {none,const,trend}
                        deterministic terms (default const)
  --k K                 ADF lag order (default 0)
  --B B                 bootstrap replications (default 499)
  --multiplier {gaussian,rademacher,skewed}
                        wild multiplier (default gaussian)
  --level LEVEL         confidence level (default 0.95)
  --cv CV               rule | table:<path> | bootstrap (default rule)
""",
    "exuberance datestamp": """\
usage: exuberance datestamp [-h] [--config CONFIG] [--out OUT] [--seed SEED]
                            [--input INPUT] [--column COLUMN]
                            [--label-column LABEL_COLUMN] [--tau0 TAU0]
                            [--det {none,const,trend}] [--k K]
                            [--method {pwy,psy,two-step,sign,ssr-bic}]
                            [--epsilon EPSILON]

options:
  -h, --help            show this help message and exit
  --config CONFIG       config or report JSON to re-run
  --out OUT             report destination (stdout when omitted)
  --seed SEED           RNG seed (default $EXUBERANCE_SEED or 0)
  --input INPUT         CSV series file
  --column COLUMN       value column name or index
  --label-column LABEL_COLUMN
                        label column name or index
  --tau0 TAU0           minimum window fraction or 'auto'
  --det {none,const,trend}
                        deterministic terms (default const)
  --k K                 ADF lag order (default 0)
  --method {pwy,psy,two-step,sign,ssr-bic}
                        default psy
  --epsilon EPSILON     sign-dating trim (default 0.01)
""",
    "exuberance monitor": """\
usage: exuberance monitor [-h] [--config CONFIG] [--out OUT] [--seed SEED]
                          [--input INPUT] [--column COLUMN]
                          [--label-column LABEL_COLUMN] [--tau0 TAU0]
                          [--det {none,const,trend}] [--k K] [--B B]
                          [--multiplier {gaussian,rademacher,skewed}]
                          [--level LEVEL] [--Tb TB]

options:
  -h, --help            show this help message and exit
  --config CONFIG       config or report JSON to re-run
  --out OUT             report destination (stdout when omitted)
  --seed SEED           RNG seed (default $EXUBERANCE_SEED or 0)
  --input INPUT         CSV series file
  --column COLUMN       value column name or index
  --label-column LABEL_COLUMN
                        label column name or index
  --tau0 TAU0           minimum window fraction or 'auto'
  --det {none,const,trend}
                        deterministic terms (default const)
  --k K                 ADF lag order (default 0)
  --B B                 bootstrap replications (default 499)
  --multiplier {gaussian,rademacher,skewed}
                        wild multiplier (default gaussian)
  --level LEVEL         confidence level (default 0.95)
  --Tb TB               monitoring window length (default 24)
""",
    "exuberance simulate-cv": """\
usage: exuberance simulate-cv [-h] [--config CONFIG] [--out OUT] [--seed SEED]
                              [--stat {gsadf,gstadf,hb_chow,sadf,sadf_gls,sbz,sign_gsadf,sign_sadf,stadf}]
                              [--tau0 TAU0] [--det {none,const,trend}] [--k K]
                              [--sizes SIZES] [--levels LEVELS]
                              [--replications REPLICATIONS]
                              [--table-out TABLE_OUT]

options:
  -h, --help            show this help message and exit
  --config CONFIG       config or report JSON to re-run
  --out OUT             report destination (stdout when omitted)
  --seed SEED           RNG seed (default $EXUBERANCE_SEED or 0)
  --stat {gsadf,gstadf,hb_chow,sadf,sadf_gls,sbz,sign_gsadf,sign_sadf,stadf}
                        statistic (default gsadf)
  --tau0 TAU0           minimum window fraction or 'auto'
  --det {none,const,trend}
                        deterministic terms (default const)
  --k K                 ADF lag order (default 0)
  --sizes SIZES         sample sizes, e.g. 100,200,400
  --levels LEVELS       quantile levels (default 0.9,0.95,0.99)
  --replications REPLICATIONS
                        Monte Carlo draws (default 2000)
  --table-out TABLE_OUT
                        also write the table alone to this path
""",
    "exuberance study": """\
usage: exuberance study [-h] [--config CONFIG] [--out OUT] [--seed SEED]
                        [--stat {gsadf,gstadf,hb_chow,sadf,sadf_gls,sbz,sign_gsadf,sign_sadf,stadf}]
                        [--tau0 TAU0] [--det {none,const,trend}] [--k K]
                        [--level LEVEL] [--replications REPLICATIONS]
                        [--cv-replications CV_REPLICATIONS] [--cv CV]
                        [--null-spec NULL_SPEC] [--alt-spec ALT_SPEC]
                        [--null-vol NULL_VOL] [--alt-vol ALT_VOL]

options:
  -h, --help            show this help message and exit
  --config CONFIG       config or report JSON to re-run
  --out OUT             report destination (stdout when omitted)
  --seed SEED           RNG seed (default $EXUBERANCE_SEED or 0)
  --stat {gsadf,gstadf,hb_chow,sadf,sadf_gls,sbz,sign_gsadf,sign_sadf,stadf}
                        statistic (default gsadf)
  --tau0 TAU0           minimum window fraction or 'auto'
  --det {none,const,trend}
                        deterministic terms (default const)
  --k K                 ADF lag order (default 0)
  --level LEVEL         confidence level (default 0.95)
  --replications REPLICATIONS
                        study replications (default 1000)
  --cv-replications CV_REPLICATIONS
                        internal tabulation draws
  --cv CV               rule (= simulate internally) | table:<path>
  --null-spec NULL_SPEC
                        null DGP (inline JSON or file)
  --alt-spec ALT_SPEC   alternative DGP (default: null)
  --null-vol NULL_VOL   null volatility path JSON
  --alt-vol ALT_VOL     alternative volatility path JSON
""",
    "exuberance relate": """\
usage: exuberance relate [-h] [--config CONFIG] [--out OUT] [--seed SEED]
                         [--input INPUT] [--column COLUMN]
                         [--label-column LABEL_COLUMN] [--B B]
                         [--multiplier {gaussian,rademacher,skewed}]
                         [--level LEVEL] [--input2 INPUT2]
                         [--method {migration,contagion,cobubble}]
                         [--tau0 TAU0] [--delay DELAY] [--d-max D_MAX]
                         [--origin-x ORIGIN_X] [--origin-y ORIGIN_Y]
                         [--scale SCALE]

options:
  -h, --help            show this help message and exit
  --config CONFIG       config or report JSON to re-run
  --out OUT             report destination (stdout when omitted)
  --seed SEED           RNG seed (default $EXUBERANCE_SEED or 0)
  --input INPUT         CSV series file
  --column COLUMN       value column name or index
  --label-column LABEL_COLUMN
                        label column name or index
  --B B                 bootstrap replications (default 499)
  --multiplier {gaussian,rademacher,skewed}
                        wild multiplier (default gaussian)
  --level LEVEL         confidence level (default 0.95)
  --input2 INPUT2       second CSV series file
  --method {migration,contagion,cobubble}
  --tau0 TAU0           minimum window fraction or 'auto'
  --delay DELAY         co-bubble alignment delay (default 0)
  --d-max D_MAX         largest contagion delay scanned (default 12)
  --origin-x ORIGIN_X   first series origination index
  --origin-y ORIGIN_Y   second series origination index
  --scale SCALE         migration normalization (default log window)
""",
    "exuberance plot-data": """\
usage: exuberance plot-data [-h] [--config CONFIG] [--out OUT] [--seed SEED]
                            [--input INPUT]

options:
  -h, --help       show this help message and exit
  --config CONFIG  config or report JSON to re-run
  --out OUT        report destination (stdout when omitted)
  --seed SEED      RNG seed (default $EXUBERANCE_SEED or 0)
  --input INPUT    report JSON path
""",
}


@pytest.mark.parametrize("prog", list(HELP))
def test_help_text(prog, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        main([*prog.split()[1:], "--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out == HELP[prog]
