#!/usr/bin/env bash
# Shows that a change left virtual time where it was. Runs the 13 deterministic benches (every
# bench but bench_overheads, which times the host) and the 5 examples from two build trees, each
# program of each build in a fresh temporary directory, and compares what they leave behind:
# stdout, stderr, the exit code and every BENCH_*, TRACE_* and METRICS_* file. The "git"
# provenance field of the METRICS_ files is masked, since it names the checkout. Prints each file
# that differs and exits 1 if any does, 0 if none does.
#
# Usage: tools/same_outputs.sh PARENT_BUILD CHANGE_BUILD [--quick]
#   PARENT_BUILD, CHANGE_BUILD  CMake build directories with the benches and examples built
#   --quick                     passed to every bench (smaller problems; examples take no flags)
set -u

usage() {
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD [--quick]" >&2
  exit 2
}

[ $# -ge 2 ] && [ $# -le 3 ] || usage
parent=$(cd "$1" && pwd) || usage
change=$(cd "$2" && pwd) || usage
quick=()
if [ $# -eq 3 ]; then
  [ "$3" = "--quick" ] || usage
  quick=(--quick)
fi

benches=(bench_ablations bench_barrier bench_exprtree bench_extensions bench_false_sharing
         bench_jacobi bench_jacobi_breakdown bench_jacobi_pcp bench_loadbalance bench_matmul
         bench_packet bench_prefetch bench_quadrature)
examples=(quickstart heat_diffusion adaptive_integrate merge_sort trace_overlap)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# run BUILD_DIR REL_BINARY OUT_DIR ARGS...: runs one program in OUT_DIR, keeping its streams and
# exit code there next to the files it writes.
run() {
  local build=$1 bin=$2 out=$3
  shift 3
  mkdir -p "$out"
  if [ ! -x "$build/$bin" ]; then
    echo "missing: $build/$bin" >&2
    echo missing >"$out/exit_code"
    return
  fi
  (cd "$out" && "$build/$bin" "$@" >stdout 2>stderr; echo $? >exit_code)
  for f in "$out"/METRICS_*.json; do
    [ -e "$f" ] && sed -i 's/"git": "[^"]*"/"git": "masked"/' "$f"
  done
}

programs=()
for b in "${benches[@]}"; do programs+=("bench/$b"); done
for e in "${examples[@]}"; do programs+=("examples/$e"); done

differ=0
compared=0
for prog in "${programs[@]}"; do
  name=${prog#*/}
  args=()
  [ "${prog%%/*}" = bench ] && args=("${quick[@]}")
  # The two builds run side by side: two single-threaded processes at a time.
  run "$parent" "$prog" "$work/parent/$name" "${args[@]}" &
  run "$change" "$prog" "$work/change/$name" "${args[@]}" &
  wait
  files=$(cd "$work/parent/$name" && ls; cd "$work/change/$name" && ls)
  for f in $(echo "$files" | sort -u); do
    case $f in
      stdout | stderr | exit_code | BENCH_* | TRACE_* | METRICS_*) ;;
      *) continue ;;
    esac
    compared=$((compared + 1))
    if ! cmp -s "$work/parent/$name/$f" "$work/change/$name/$f"; then
      echo "differs: $name/$f"
      differ=$((differ + 1))
    fi
  done
done

echo "compared $compared files, $differ differ"
[ "$differ" -eq 0 ]
