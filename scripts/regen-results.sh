#!/bin/sh
# Regenerates every file under results/ from the bench binaries at their
# default seed, one file per binary run (stdout only). Every binary is
# seeded and simulated, so a rerun prints identical bytes: CI runs this
# script and then `git diff --exit-code -- results/`, which keeps the
# committed outputs, and the EXPERIMENTS.md rows quoted from them, at
# the code's current figures.
#
#   sh scripts/regen-results.sh      (from the repository root)
set -eu

cargo build --release --locked -p bench --bins
bin=target/release

for fig in table1 table2 fig04 fig05 fig06 fig08 fig10 fig12 fig14 fig15 fig16 \
    headline ablation ext_2d ecc straggler; do
    "$bin/$fig" > "results/$fig.txt"
done
# Fig. 13 averages 8 sources per graph, as EXPERIMENTS.md quotes it.
ENTERPRISE_SOURCES=8 "$bin/fig13" > results/fig13.txt
"$bin/straggler" --sweep > results/straggler_sweep.csv
"$bin/straggler" --link-down > results/straggler_link_down.txt
