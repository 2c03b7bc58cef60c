#!/usr/bin/env bash
# CLI guards: exit codes, exact lines and seven wall-clock bounds of the
# cubemedian command line.  Run it in an empty directory, which it fills
# with its inputs and outputs, and pass the command to run:
#
#     bash ci/cli_guards.sh cubemedian                  # the installed entry point
#     PYTHONPATH=src bash ci/cli_guards.sh python -m cubemedian.cli
#
# Each guard that fails prints what it saw and exits 1.  Each timed guard
# prints its elapsed time next to its bound.  The bounds are wall-clock
# times, so the tier-1 tests do not run this script.
set -e  # as the workflow step it came from ran
[ $# -gt 0 ] || { echo "usage: $0 COMMAND..." >&2; exit 2; }
cli=("$@")
exec 3>&1  # the timing lines go here, past a guard's own redirections
# timed BOUND CMD...: CMD under `timeout BOUND`, then its elapsed time next to BOUND
timed() {
  local bound=$1 start=${EPOCHREALTIME/[.,]/} code=0
  shift
  timeout "$bound" "$@" || code=$?
  local cs=$(( (${EPOCHREALTIME/[.,]/} - start) / 10000 ))
  printf 'timed: %d.%02d s of %s s: %s\n' $((cs / 100)) $((cs % 100)) "$bound" "$*" >&3
  return "$code"
}
"${cli[@]}" --version
# help at both levels exits 0; an unknown command exits 2 with a usage line and one error line
"${cli[@]}" --help > /dev/null
"${cli[@]}" verify --help > /dev/null
code=0; "${cli[@]}" frobnicate 2> frob.err || code=$?
{ [ "$code" -eq 2 ] && [ "$(wc -l < frob.err)" -eq 2 ]; } \
  || { cat frob.err; echo "cubemedian frobnicate: exit $code, not 2 with two stderr lines"; exit 1; }
# non-median input takes the refusal helpers: C6 misses a median, K3 has an odd cycle;
# each exits 1 with one stderr line
echo '{"vertices": 6, "edges": [[0,1],[1,2],[2,3],[3,4],[4,5],[0,5]]}' > c6.json
echo '{"vertices": 3, "edges": [[0,1],[1,2],[0,2]]}' > k3.json
for argv in 'analyze c6.json' 'analyze k3.json' 'oracle c6.json'; do
  code=0; "${cli[@]}" $argv 2> refused.err || code=$?
  { [ "$code" -eq 1 ] && [ "$(wc -l < refused.err)" -eq 1 ]; } \
    || { cat refused.err; echo "cubemedian $argv: exit $code, not 1 with one stderr line"; exit 1; }
done
"${cli[@]}" build --kind grid --params 2 2 -o grid22.json
# expect LINE CMD...: CMD exits 0 and prints exactly LINE
expect() {
  want=$1; shift; code=0; out=$("$@") || code=$?
  { [ "$code" -eq 0 ] && [ "$out" = "$want" ]; } \
    || { printf '%s\n' "$out"; echo "$*: exit $code, not 0 with '$want'"; exit 1; }
}
"${cli[@]}" analyze grid22.json
expect 'verify ok: suite=all cases=50 seed=1' "${cli[@]}" verify grid22.json --suite all --cases 50 --seed 1
# grid(2,2) has |F| = 4 * 4
expect 'oracle agreement: 16 members' "${cli[@]}" oracle grid22.json
"${cli[@]}" export grid22.json --dot grid22.dot
# generator specs: whitespace and nesting are read, a malformed one exits 2 with one line
"${cli[@]}" build --kind product --params ' grid( 1 , 1 ) ' 'wedge(box(2),0,tree(3,seed=1),0)' -o pw.json > pw.out
grep -q '20 vertices, 36 edges' pw.out \
  || { cat pw.out; echo "build product(grid(1,1),wedge(...)): not 20 vertices, 36 edges"; exit 1; }
code=0; "${cli[@]}" build --kind product --params 'grid(1,1' 'box(2)' -o bad.json 2> bad.err || code=$?
{ [ "$code" -eq 2 ] && [ "$(wc -l < bad.err)" -eq 1 ]; } \
  || { cat bad.err; echo "build with 'grid(1,1': exit $code, not 2 with one stderr line"; exit 1; }
# random_median(8,256) is the whole 8-cube: every coordinate is its own wall
"${cli[@]}" build --kind random_median --params 8 256 --seed 1 -o rm8.json > rm8.out
grep -q '256 vertices, 1024 edges' rm8.out \
  || { cat rm8.out; echo "build random_median(8,256,seed=1): not 256 vertices, 1024 edges"; exit 1; }
# the splitmix64 stream, pinned on every Python: seeded builds against the digests
# of the files that the one-output-per-step generator wrote; the glued ray and the
# nested pw.json against the files that validating each node of a spec wrote
"${cli[@]}" build --kind tree --params 300 --seed 1 -o tree300.json > /dev/null
"${cli[@]}" build --kind random_median --params 6 10 --seed 3 -o rm610.json > /dev/null
"${cli[@]}" build --kind glued_staircase_ray --params 6 -o gsr6.json > /dev/null
sha256sum -c --quiet <<'DIGESTS' || { echo "seeded builds: the splitmix64 stream moved"; exit 1; }
3a21eb9064ee808828f479e0180043be80feec53687a09b4bfca90d25407d73d  tree300.json
b550c6a91571d37a6120a792fdf88c5c9c3b1e239c2308cf9bc7719fb83587c2  rm610.json
f47e165875b8d4315ebdef34741a087630ada2ad78c99d4bdbae8f7424c7b0e1  gsr6.json
1e8578e254186b90614c54117a476d02ecdd92d0ec1b2676762e4326ce874cc9  pw.json
DIGESTS
"${cli[@]}" build --kind staircase --params 4 -o st4.json
expect 'verify ok: suite=closure cases=50 seed=1' "${cli[@]}" verify st4.json --suite closure --cases 50 --seed 1
# one suite at a time at the bench's case count
"${cli[@]}" build --kind staircase --params 6 -o st6.json
expect 'verify ok: suite=gates cases=1000 seed=1' "${cli[@]}" verify st6.json --suite gates --cases 1000 --seed 1
expect 'verify ok: suite=orth cases=1000 seed=1' "${cli[@]}" verify st6.json --suite orth --cases 1000 --seed 1
"${cli[@]}" analyze st4.json --with-oracle --oracle-bound 19 > st4.report.json
python -c 'import json, sys; sys.exit(json.load(open(sys.argv[1])).get("oracle_agrees") is not True)' st4.report.json \
  || { cat st4.report.json; echo "analyze --with-oracle: oracle_agrees is not true"; exit 1; }
# scale smoke: a closure search quadratic in the tree size needs over a minute
"${cli[@]}" build --kind tree --params 4000 --seed 1 -o tree4000.json
timed 30 "${cli[@]}" analyze tree4000.json > tree4000.report.json \
  || { echo "analyze tree(4000): failed or exceeded 30 s"; exit 1; }
# a polar recomputed per orth call costs |F|·k in the double-complement pass: over 13 s
timed 10 "${cli[@]}" verify tree4000.json --suite orth --cases 250 --seed 1 \
  || { echo "verify tree(4000) --suite orth: failed or exceeded 10 s"; exit 1; }
# sparse scale: the path box(4000) has 4,000 walls; halfspaces transposed from the
# signs one bit at a time cost the sum of all depths, 8 million steps, over 3 s
"${cli[@]}" build --kind box --params 4000 -o box4000.json
timed 1.5 "${cli[@]}" analyze box4000.json > box4000.report.json \
  || { echo "analyze box(4000): failed or exceeded 1.5 s"; exit 1; }
# the verify kernels at 1000 cases: every suite on staircase(30), 1.3-2.2 s on a 2-vCPU VM
"${cli[@]}" build --kind staircase --params 30 -o st30.json
timed 10 "${cli[@]}" verify st30.json --suite all --cases 1000 --seed 1 > st30.verify.out \
  || { cat st30.verify.out; echo "verify staircase(30) --suite all: failed or exceeded 10 s"; exit 1; }
grep -qx 'verify ok: suite=all cases=1000 seed=1' st30.verify.out \
  || { cat st30.verify.out; echo "verify staircase(30) --suite all: not 'verify ok'"; exit 1; }
# the longest chain as a DP over all 9.7 million containment pairs of members: over 6 s
"${cli[@]}" build --kind box --params 1 1 1 1 1 1 1 1 1 1 -o box1x10.json
timed 6 "${cli[@]}" analyze box1x10.json > box1x10.report.json \
  || { echo "analyze box(1^10): failed or exceeded 6 s"; exit 1; }
# non-median scale: grid(100,100) minus its centre goes to the class-by-class wall
# rule; with its own halfspace masks and sign loop that took 7.1-7.5 s, now 1.9-2.4 s
"${cli[@]}" build --kind grid --params 100 100 -o grid100.json
python -c 'import json, sys; d = json.load(open(sys.argv[1])); c = 50 * 101 + 50; json.dump({"vertices": d["vertices"] - 1, "edges": [[a - (a > c), b - (b > c)] for a, b in d["edges"] if c not in (a, b)]}, open(sys.argv[2], "w"))' grid100.json holed100.json
code=0; timed 5 "${cli[@]}" analyze holed100.json > /dev/null 2> holed100.err || code=$?
{ [ "$code" -eq 1 ] && grep -q unique-median holed100.err; } \
  || { cat holed100.err; echo "analyze grid(100,100) minus centre: exit $code, not 1 with unique-median within 5 s"; exit 1; }
# out of memory is a named limit: grid(3000,3000) in a 400 MiB address space
# exits 3 with one line naming the limit `memory`, not a MemoryError traceback
code=0; ( ulimit -v 409600; timed 10 "${cli[@]}" build --kind grid --params 3000 3000 -o oom.json ) \
  2> oom.err || code=$?
{ [ "$code" -eq 3 ] && [ "$(wc -l < oom.err)" -eq 1 ] && grep -q "'memory'" oom.err; } \
  || { cat oom.err; echo "build grid(3000,3000) under ulimit -v 409600: exit $code, not 3 with one stderr line"; exit 1; }
