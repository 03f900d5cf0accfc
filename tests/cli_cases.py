"""Golden-file case table shared by the CLI tests and the `cli_golden` benchmark workload.

Each case: (name, argv, expected exit code); its expected stdout is
tests/golden/expected/<name>.out.  All file arguments are relative to
tests/golden/inputs, where the commands are run.  `perfbench/run.py` times
every case here, so goldens added later live in tables of their own
(`test_cli.py`'s torus cases, `test_cli_human.py`).
"""

CASES = [
    ("validate_ok", ["validate", "susy_line.json", "--json"], 0),
    ("validate_broken", ["validate", "broken.json", "--json"], 1),
    ("validate_conflict", ["validate", "conflict.json", "--json"], 1),
    ("validate_badcoeff", ["validate", "badcoeff.json", "--json"], 2),
    ("validate_human", ["validate", "susy_line.json"], 0),
    ("center", ["center", "heis3.json", "--json"], 0),
    ("derivations", ["derivations", "heis3.json", "--json"], 0),
    ("out", ["out", "heis3.json", "--json"], 0),
    ("cohomology", ["cohomology", "a20.json", "--degree", "2", "--json"], 0),
    ("cohomology_module",
     ["cohomology", "a20.json", "--degree", "1", "--module", "mod_m2_a20.json", "--json"], 0),
    ("cohomology_susy_h6", ["cohomology", "a01.json", "--degree", "6", "--json"], 0),
    ("section_data",
     ["section-data", "--e", "susy_line.json", "--h", "a10.json", "--g", "a01.json",
      "--i", "i_susy.json", "--p", "p_susy.json", "--section", "s_susy.json", "--json"], 0),
    ("check_data", ["check-data", "susy_datum.json", "--json"], 0),
    ("build", ["build", "susy_datum.json", "--name", "susy_rebuilt", "--json"], 0),
    ("transform", ["transform", "split_datum.json", "--witness", "b_split.json", "--json"], 0),
    ("equivalent_yes",
     ["equivalent", "susy_datum.json", "susy_datum.json", "--witness", "b_zero.json", "--json"], 0),
    ("equivalent_no",
     ["equivalent", "susy_datum.json", "susy_datum4.json", "--witness", "b_zero.json", "--json"], 1),
    ("split_witness", ["split-check", "split_datum.json", "--witness", "b_split.json", "--json"], 0),
    ("split_solve", ["split-check", "split_datum.json", "--solve-abelian", "--json"], 0),
    ("split_none", ["split-check", "heis_datum.json", "--solve-abelian", "--json"], 1),
    ("obstruction",
     ["obstruction", "--g", "a01.json", "--h", "a10.json",
      "--alpha-bar", "ab_a01_a10.json", "--json"], 0),
    ("classify",
     ["classify", "--g", "a01.json", "--h", "a10.json",
      "--alpha-bar", "ab_a01_a10.json", "--json"], 0),
    ("classify_heis_kernel",
     ["classify", "--g", "a01.json", "--h", "heis3.json",
      "--alpha-bar", "ab_a01_heis3.json", "--json"], 0),
    ("pullback",
     ["pullback", "--g", "a10.json", "--h", "sl2.json",
      "--alpha-bar", "ab_a10_sl2.json", "--json"], 0),
    ("pullback_center_refused",
     ["pullback", "--g", "a10.json", "--h", "heis3.json",
      "--alpha-bar", "ab_a10_heis3.json", "--json"], 1),
]
