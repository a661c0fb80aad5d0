#!/bin/bash
# Regenerates the figure groups from the benches in ./build/bench, one
# results/group<X>.txt per group. Run from the repository root:
#
#   bash results/run_groups.sh        # every group, A to G, in order
#   bash results/run_groups.sh A B2   # only the named groups
#
# A-C are the committed paper figures; the env settings below are the
# ones those files were made with. Their delay columns are deterministic
# (MECSC_WORKERS and MECSC_SIMD do not change them); the running-time
# columns are host timings and move from machine to machine.
set -u
run() {
  local name=$1; shift
  echo "===== $name ====="
  "$@"
  echo
}
group() {
  case "$1" in
    A)
      run bench_fig3 env MECSC_TOPOLOGIES=4 ./build/bench/bench_fig3
      run bench_fig4 env MECSC_TOPOLOGIES=4 ./build/bench/bench_fig4 ;;
    B1)
      run bench_fig5 env MECSC_TOPOLOGIES=4 ./build/bench/bench_fig5 ;;
    B2)
      run bench_fig6 env MECSC_TOPOLOGIES=4 ./build/bench/bench_fig6 ;;
    C)
      run bench_fig7 env MECSC_TOPOLOGIES=2 ./build/bench/bench_fig7 ;;
    D)
      run bench_regret env MECSC_TOPOLOGIES=3 ./build/bench/bench_regret
      run bench_ablation_gamma env MECSC_TOPOLOGIES=3 MECSC_SLOTS=100 ./build/bench/bench_ablation_gamma ;;
    E)
      run bench_ablation_epsilon env MECSC_TOPOLOGIES=3 MECSC_SLOTS=120 ./build/bench/bench_ablation_epsilon
      run bench_ablation_ucb env MECSC_TOPOLOGIES=3 MECSC_SLOTS=120 ./build/bench/bench_ablation_ucb ;;
    F)
      run bench_predictors env MECSC_TOPOLOGIES=3 ./build/bench/bench_predictors
      run bench_lp_vs_flow ./build/bench/bench_lp_vs_flow
      run bench_ablation_instantiation env MECSC_TOPOLOGIES=3 MECSC_SLOTS=100 ./build/bench/bench_ablation_instantiation ;;
    G)
      run bench_ablation_mobility env MECSC_TOPOLOGIES=3 MECSC_SLOTS=100 ./build/bench/bench_ablation_mobility
      run bench_ablation_rnn env MECSC_TOPOLOGIES=3 MECSC_GAN_STEPS=400 ./build/bench/bench_ablation_rnn ;;
  esac
}

groups=("$@")
[ ${#groups[@]} -eq 0 ] && groups=(A B1 B2 C D E F G)
for g in "${groups[@]}"; do
  case "$g" in
    A|B1|B2|C|D|E|F|G) ;;
    *) echo "run_groups.sh: unknown group '$g' (A B1 B2 C D E F G)" >&2; exit 2 ;;
  esac
done
for g in "${groups[@]}"; do
  group "$g" > "results/group$g.txt" 2>&1
  echo "$g done"
done
