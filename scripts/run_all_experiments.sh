#!/usr/bin/env bash
# Regenerates every table/figure reproduction and extension experiment
# into results/exp_*.txt. Each binary runs at its default duration, the
# study's 0.5 s, unless a duration is given as $1 (e.g. 0.1 for a quick
# pass). From an empty trace store and result cache the whole set takes
# about 16 s on a 2-vCPU host, most of it trace generation. CI runs this
# and fails if any committed artifact changes.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results
experiments=(
  exp_config exp_table1 exp_fig3_table5 exp_table6 exp_table7 exp_fig7
  exp_table8 exp_threshold exp_control exp_duty_validation
  exp_sensor_noise exp_core_scaling exp_fig5 exp_energy
  exp_ablation_rotation exp_ablation_interval exp_ablation_fastmode
  exp_grid_validation exp_asymmetric
)
for exp in "${experiments[@]}"; do
  echo ">>> $exp"
  cargo run --quiet --release -p dtm-bench --bin "$exp" -- ${1:+"$1"} > "results/$exp.txt"
done
echo "all experiments written to results/"
