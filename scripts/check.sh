#!/usr/bin/env bash
# Tier-1 verification plus bench JSON schema checks:
#   1. configure + build + ctest (the tier-1 gate from ROADMAP.md); the
#      build treats every compiler warning as an error;
#   2. on x86-64 hosts, no fused multiply-add (vfmadd, vfmsub, vfnmadd,
#      vfnmsub) in `objdump -d` of any built src/ library: host numerics
#      keep their bits only while -ffp-contract=off holds (DESIGN.md "Host
#      training kernels"), and the GEMM core's AVX-512F kernel is compiled
#      on every host, whatever ISA it runs;
#   3. run every --json bench in --fast mode;
#   4. compare the set of JSON keys each bench emits against the checked-in
#      schema in scripts/bench_schemas/<bench>.keys. A missing or renamed key
#      fails the run; a new key fails too, so schema growth is an explicit,
#      reviewed change (update the .keys file in the same commit); the
#      bench_table4_shl run, plus one at REPRO_THREADS=1, must also match
#      scripts/golden/bench_table4_shl_fast.json byte for byte (host
#      training numerics are bit-exact, see DESIGN.md "Host training
#      kernels"), and the bench_fig7_computesets and bench_multi_ipu runs
#      must match their scripts/golden/*_fast.json byte for byte;
#   5. trace determinism: two bench_serving --trace runs at different host
#      thread counts must produce bitwise-identical Chrome trace JSON (and
#      bitwise-identical metrics JSON), and the trace's key set must match
#      scripts/bench_schemas/trace_events.keys; the same run's metrics and
#      trace are then held byte-identical to the pre-ExecutionBackend
#      goldens in scripts/golden/, and bench_serving --backend auto
#      --require-crossover gates the cost-model placer (dense -> gpu,
#      butterfly/pixelfly -> ipu at n >= 1024, heterogeneous breakdown in
#      JSON and per-substrate chip tracks in the trace); bench_cluster
#      repeats the bitwise gate for its cluster metrics and trace, holds
#      the 1-thread metrics to scripts/golden/bench_cluster_fast.json, and
#      --require-efficiency 0.75 gates 4-chip scaling >= 3x;
#      bench_serving --require-stream-win 1.01 then gates the streaming
#      host-I/O claim: the double-buffered ingress must beat the host-copy
#      baseline on every method, with overlap visible in the trace;
#   6. executable artifact cache: cold-compile bench_serving / fig7 /
#      serve_demo into a --cache-dir, then rerun each in a fresh process that
#      must load every ipu::Executable from disk (0 compiles) and produce
#      byte-identical JSON/output;
#   7. perfbench simulated outputs: python3 perfbench/run.py --determinism
#      --tiny runs every benchmark workload at 1 and 4 host threads and
#      requires one sim.digest per workload (a hash of every simulated
#      output it records); each digest must also equal
#      scripts/golden/perfbench_tiny_digests.txt, so the simulated outputs
#      are pinned across commits, not only across thread counts;
#   8. the whole ctest suite again, built in a side build dir under
#      AddressSanitizer and UndefinedBehaviorSanitizer (REPRO_SANITIZE=address;
#      any undefined behaviour is fatal).
#
# On exit, pass or fail, it prints each stage's wall-clock seconds and the
# total.
#
# Usage: scripts/check.sh [build-dir]      (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
schema_dir="$repo_root/scripts/bench_schemas"

# `stage NAME` ends the running stage and starts NAME. On exit, pass or
# fail, the run prints each stage's wall-clock seconds and the total.
stage_names=()
stage_starts=()
stage() {
  stage_names+=("$1")
  stage_starts+=("$EPOCHREALTIME")
  echo "== $1 =="
}
print_stage_seconds() {
  local end="$EPOCHREALTIME" i
  echo "== stage wall-clock seconds =="
  for i in "${!stage_names[@]}"; do
    awk -v a="${stage_starts[$i]}" -v b="${stage_starts[$((i + 1))]:-$end}" \
        -v name="${stage_names[$i]}" 'BEGIN { printf "%8.1f  %s\n", b - a, name }'
  done
  awk -v a="${stage_starts[0]:-$end}" -v b="$end" \
      'BEGIN { printf "%8.1f  total\n", b - a }'
}
trap print_stage_seconds EXIT

stage "configure + build"
cmake -B "$build_dir" -S "$repo_root" -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build "$build_dir" -j "$(nproc)"

stage "tier-1 tests"
ctest --test-dir "$build_dir" --output-on-failure -j

stage "no fused multiply-add in the src/ libraries"
if [[ "$(uname -m)" == x86_64 ]]; then
  libs=("$build_dir"/src/*/librepro_*.a)
  fma="$(objdump -d "${libs[@]}" | grep -E '\bvfn?m(add|sub)' || true)"
  if [[ -n "$fma" ]]; then
    echo "FAIL: fused multiply-add in the src/ libraries (-ffp-contract=off lost?)"
    echo "$fma" | head -5
    exit 1
  fi
  echo "ok: no vfmadd/vfmsub/vfnmadd/vfnmsub in ${#libs[@]} libraries"
else
  echo "skipped: not an x86-64 host"
fi

stage "bench --json schemas"
json_benches=(
  bench_fig3_exchange
  bench_fig4_skew
  bench_fig5_memusage
  bench_fig6_layers
  bench_fig7_computesets
  bench_table2_mm
  bench_table4_shl
  bench_table5_sweep
  bench_multi_ipu
  bench_serving
  bench_kernels
  bench_cluster
)
tmp_dir="$(mktemp -d)"
trap 'rm -rf "$tmp_dir"; print_stage_seconds' EXIT
failed=0
for bench in "${json_benches[@]}"; do
  out="$tmp_dir/$bench.json"
  "$build_dir/bench/$bench" --fast --json "$out" > "$tmp_dir/$bench.log"
  # The schema is the sorted set of distinct object keys in the output.
  grep -o '"[A-Za-z_][A-Za-z_0-9]*":' "$out" | sort -u > "$tmp_dir/$bench.keys"
  expected="$schema_dir/$bench.keys"
  if [[ ! -f "$expected" ]]; then
    echo "FAIL: $bench has no checked-in schema ($expected)"
    failed=1
  elif ! diff -u "$expected" "$tmp_dir/$bench.keys"; then
    echo "FAIL: $bench JSON keys changed (left: expected, right: actual)"
    failed=1
  else
    echo "ok: $bench"
  fi
done
if [[ "$failed" -ne 0 ]]; then
  echo "bench JSON schema check FAILED"
  exit 1
fi

stage "Table 4 training bytes vs golden"
# The accuracies in this JSON come from host training but are coarse (400
# test samples); each record's final training loss, printed at %.17g, is
# what makes this gate fail when any training bit moves. The golden's
# accuracies and times date from before the register-tiled GEMM core and
# the parameter-gradients-only backward; the loss key was added once, on
# the numerics of the SSE-only core. The schema run above is the default
# thread count.
t4_golden="$repo_root/scripts/golden/bench_table4_shl_fast.json"
REPRO_THREADS=1 "$build_dir/bench/bench_table4_shl" --fast \
  --json "$tmp_dir/table4_t1.json" > "$tmp_dir/table4_t1.log"
for out in "$tmp_dir/bench_table4_shl.json" "$tmp_dir/table4_t1.json"; do
  if ! cmp -s "$out" "$t4_golden"; then
    echo "FAIL: $(basename "$out") differs from the Table 4 golden"
    diff "$out" "$t4_golden" | head -10
    exit 1
  fi
done
echo "ok: Table 4 JSON byte-identical to the golden at default and 1 thread"

stage "fig7 ledger + multi-IPU scaling bytes vs goldens"
# Compiler ledgers, graph counts and the fabric's allreduce algebra, held to
# the bytes the goldens were captured with (both deterministic across host
# thread counts).
for bench in bench_fig7_computesets bench_multi_ipu; do
  golden="$repo_root/scripts/golden/${bench}_fast.json"
  if ! cmp -s "$tmp_dir/$bench.json" "$golden"; then
    echo "FAIL: $bench --fast --json differs from its golden"
    diff "$tmp_dir/$bench.json" "$golden" | head -10
    exit 1
  fi
done
echo "ok: fig7 and multi-IPU JSON byte-identical to their goldens"

stage "trace determinism"
# The tracer's contract: simulated-time timestamps only, so the trace bytes
# never depend on host parallelism (REPRO_THREADS or --host-threads). The
# streaming host-exchange spans ride the same contract, so the serving
# metrics JSON (which now carries overlapped_host_s) is held to byte
# identity across thread counts too.
t1="$tmp_dir/trace_t1.json"
t4="$tmp_dir/trace_t4.json"
j1="$tmp_dir/serving_json_t1.json"
j4="$tmp_dir/serving_json_t4.json"
REPRO_THREADS=1 "$build_dir/bench/bench_serving" --fast --requests 128 \
  --host-threads 1 --trace "$t1" --json "$j1" > "$tmp_dir/trace_t1.log"
REPRO_THREADS=4 "$build_dir/bench/bench_serving" --fast --requests 128 \
  --host-threads 4 --trace "$t4" --json "$j4" > "$tmp_dir/trace_t4.log"
if ! cmp -s "$t1" "$t4"; then
  echo "FAIL: trace JSON differs across host thread counts"
  exit 1
fi
if ! cmp -s "$j1" "$j4"; then
  echo "FAIL: serving metrics JSON differs across host thread counts"
  diff "$j1" "$j4" | head -10
  exit 1
fi
grep -o '"[A-Za-z_][A-Za-z_0-9]*":' "$t1" | sort -u > "$tmp_dir/trace.keys"
if ! diff -u "$schema_dir/trace_events.keys" "$tmp_dir/trace.keys"; then
  echo "FAIL: trace JSON keys changed (left: expected, right: actual)"
  exit 1
fi
echo "ok: trace + metrics bitwise-identical across host threads, schema stable"

stage "IPU backend byte-identity vs pre-refactor goldens"
# The ExecutionBackend refactor's observational contract: routing the IPU
# serving path through serve::IpuBackend must not change a byte of the
# metrics or trace JSON. The goldens were captured from the pre-refactor
# code with exactly the command of the t1 run above.
if ! cmp -s "$j1" "$repo_root/scripts/golden/bench_serving_ipu.json"; then
  echo "FAIL: bench_serving --json differs from the pre-refactor golden"
  diff "$j1" "$repo_root/scripts/golden/bench_serving_ipu.json" | head -10
  exit 1
fi
if ! cmp -s "$t1" "$repo_root/scripts/golden/bench_serving_ipu_trace.json"; then
  echo "FAIL: bench_serving --trace differs from the pre-refactor golden"
  exit 1
fi
echo "ok: IPU backend serving bytes identical to the pre-refactor goldens"

stage "backend auto mode: cost-model crossover gate"
# The placer must route dense to the GPU and butterfly/pixelfly to the IPU
# at n >= 1024 (the paper's Table 4 economics); --require-crossover makes
# the bench itself exit nonzero otherwise. The auto-mode record stream
# (placement decisions + heterogeneous router metrics) carries its own
# schema.
auto_json="$tmp_dir/serving_auto.json"
auto_trace="$tmp_dir/serving_auto_trace.json"
if ! REPRO_THREADS=1 "$build_dir/bench/bench_serving" --backend auto --fast \
    --requests 64 --require-crossover --json "$auto_json" \
    --trace "$auto_trace" > "$tmp_dir/serving_auto.log"; then
  echo "FAIL: --backend auto did not reproduce the IPU/GPU crossover"
  grep -E 'placer|crossover' "$tmp_dir/serving_auto.log" | tail -12
  exit 1
fi
grep 'crossover gate' "$tmp_dir/serving_auto.log" || true
grep -o '"[A-Za-z_][A-Za-z_0-9]*":' "$auto_json" | sort -u \
  > "$tmp_dir/serving_auto.keys"
if ! diff -u "$schema_dir/bench_serving_auto.keys" "$tmp_dir/serving_auto.keys"; then
  echo "FAIL: bench_serving --backend auto JSON keys changed"
  exit 1
fi
# The heterogeneous demo must have routed work to both substrates, visible
# in the per-backend metrics breakdown and as per-substrate chip tracks in
# the trace.
if ! grep -q '"backend": "ipu"' "$auto_json" \
    || ! grep -q '"backend": "gpu"' "$auto_json"; then
  echo "FAIL: auto-mode JSON lacks the per-backend breakdown rows"
  exit 1
fi
if ! grep -q 'chip 0 \[ipu\]' "$auto_trace" \
    || ! grep -q 'chip 1 \[gpu\]' "$auto_trace"; then
  echo "FAIL: auto-mode trace lacks the per-substrate chip tracks"
  exit 1
fi
echo "ok: dense -> gpu, butterfly/pixelfly -> ipu at n >= 1024; auto schema stable"

stage "streaming host I/O: overlap + throughput gate"
# bench_serving runs every method through both ingress paths off one
# capacity probe. --require-stream-win 1.01 makes the bench itself exit
# nonzero unless, for every method, the double-buffered streaming path
# sustains >= 1.01x the host-copy baseline's closed-loop QPS with real
# overlap recorded (overlapped_host_s > 0).
stream_log="$tmp_dir/stream_gate.log"
if ! "$build_dir/bench/bench_serving" --fast --require-stream-win 1.01 \
    > "$stream_log"; then
  echo "FAIL: streaming ingress did not clear 1.01x the copy baseline"
  grep -A 4 'Streaming ingress vs host copy' "$stream_log" || true
  exit 1
fi
grep -A 3 'Streaming ingress vs host copy' "$stream_log" || true
# Both ingress paths must be present in the JSON record stream.
if ! grep -q '"ingress": "stream"' "$tmp_dir/bench_serving.json" \
    || ! grep -q '"ingress": "copy"' "$tmp_dir/bench_serving.json"; then
  echo "FAIL: bench_serving JSON lacks stream/copy ingress records"
  exit 1
fi
# The trace must show the host-exchange lane doing work behind compute:
# stream spans with nonzero hidden time.
if ! grep -q '"name": "stream_in"' "$t1"; then
  echo "FAIL: trace has no stream_in host-exchange spans"
  exit 1
fi
if ! grep -o '"overlapped_s": [^,}]*' "$t1" \
    | grep -Evq ': 0(\.0+)?$'; then
  echo "FAIL: no stream span in the trace hides any link time"
  exit 1
fi
echo "ok: streaming beats copy >= 1.01x on every method, overlap visible in trace"

stage "cluster fabric: thread-count byte-identity + golden + scaling sanity"
# The router runs the serving event loop, so it shares the tracer contract:
# metrics JSON and trace bytes derive only from the single-threaded loop,
# and REPRO_THREADS and --host-threads must not change a byte. The same run
# gates the scaling claim: butterfly QPS at 4 chips must reach >= 3x a
# single chip (--require-efficiency 0.75 makes the bench itself exit nonzero
# below it; chips share nothing, so this checks the scheduler).
c1="$tmp_dir/cluster_t1.json"
c2="$tmp_dir/cluster_t2.json"
ct1="$tmp_dir/cluster_trace_t1.json"
ct2="$tmp_dir/cluster_trace_t2.json"
REPRO_THREADS=1 "$build_dir/bench/bench_cluster" --fast --host-threads 1 \
  --require-efficiency 0.75 --json "$c1" --trace "$ct1" \
  > "$tmp_dir/cluster_t1.log"
REPRO_THREADS=2 "$build_dir/bench/bench_cluster" --fast --host-threads 4 \
  --require-efficiency 0.75 --json "$c2" --trace "$ct2" \
  > "$tmp_dir/cluster_t2.log"
if ! cmp -s "$c1" "$c2"; then
  echo "FAIL: bench_cluster --json differs across host thread counts"
  diff "$c1" "$c2" | head -10
  exit 1
fi
if ! cmp -s "$ct1" "$ct2"; then
  echo "FAIL: bench_cluster trace differs across host thread counts"
  exit 1
fi
# Thread-count identity alone would let the routed bytes drift across
# commits; the golden pins them (captured with bench_cluster --fast --json).
if ! cmp -s "$c1" "$repo_root/scripts/golden/bench_cluster_fast.json"; then
  echo "FAIL: bench_cluster --json differs from its golden"
  diff "$c1" "$repo_root/scripts/golden/bench_cluster_fast.json" | head -10
  exit 1
fi
grep 'scaling efficiency' "$tmp_dir/cluster_t1.log" || true
echo "ok: cluster metrics/trace bitwise-identical and equal to the golden; 4-chip scaling >= 3x"

stage "executable artifact cache: cold vs warm byte-identity"
# The cold run compiles every plan and saves each ipu::Executable into
# --cache-dir; the warm run is a FRESH PROCESS that must load every artifact
# from disk (0 compiles) and still emit byte-identical --json. This is the
# cross-process save/load gate for the serialized executable format.
cache_dir="$tmp_dir/exe_cache"
serving_cold="$tmp_dir/serving_cold.json"
serving_warm="$tmp_dir/serving_warm.json"
"$build_dir/bench/bench_serving" --fast --requests 128 \
  --cache-dir "$cache_dir" --json "$serving_cold" > "$tmp_dir/serving_cold.log"
"$build_dir/bench/bench_serving" --fast --requests 128 \
  --cache-dir "$cache_dir" --json "$serving_warm" > "$tmp_dir/serving_warm.log"
if ! cmp -s "$serving_cold" "$serving_warm"; then
  echo "FAIL: bench_serving --json differs when plans load from cached artifacts"
  diff "$serving_cold" "$serving_warm" | head -10
  exit 1
fi
if ! grep -Eq 'compile cache: .* [1-9][0-9]* disk hits, 0 compiles' \
    "$tmp_dir/serving_warm.log"; then
  echo "FAIL: warm bench_serving run did not load every executable from disk"
  grep 'compile cache' "$tmp_dir/serving_warm.log" || true
  exit 1
fi
fig7_cold="$tmp_dir/fig7_cold.json"
fig7_warm="$tmp_dir/fig7_warm.json"
"$build_dir/bench/bench_fig7_computesets" --fast \
  --cache-dir "$cache_dir" --json "$fig7_cold" > "$tmp_dir/fig7_cold.log"
"$build_dir/bench/bench_fig7_computesets" --fast \
  --cache-dir "$cache_dir" --json "$fig7_warm" > "$tmp_dir/fig7_warm.log"
if ! cmp -s "$fig7_cold" "$fig7_warm"; then
  echo "FAIL: fig7 ledger JSON differs when executables load from cached artifacts"
  diff "$fig7_cold" "$fig7_warm" | head -10
  exit 1
fi
if ! grep -Eq 'compile cache: .* [1-9][0-9]* disk hits, 0 compiles' \
    "$tmp_dir/fig7_warm.log"; then
  echo "FAIL: warm fig7 run did not load every executable from disk"
  grep 'compile cache' "$tmp_dir/fig7_warm.log" || true
  exit 1
fi
# serve_demo shares the same cache format: its second run must announce the
# plan came from a cached artifact, with the same calibrated batch time.
"$build_dir/examples/serve_demo" --requests 64 \
  --cache-dir "$cache_dir" > "$tmp_dir/demo_cold.log"
"$build_dir/examples/serve_demo" --requests 64 \
  --cache-dir "$cache_dir" > "$tmp_dir/demo_warm.log"
if ! grep -q '^loaded cached butterfly forward' "$tmp_dir/demo_warm.log"; then
  echo "FAIL: warm serve_demo did not load its plan from the artifact cache"
  head -3 "$tmp_dir/demo_warm.log"
  exit 1
fi
if ! cmp -s "$tmp_dir/demo_cold.log" <(sed 's/^loaded cached/compiled/' \
    "$tmp_dir/demo_warm.log"); then
  echo "FAIL: serve_demo output differs between compiled and cached plan"
  diff "$tmp_dir/demo_cold.log" "$tmp_dir/demo_warm.log" | head -10
  exit 1
fi
echo "ok: cold and warm runs byte-identical; warm runs served entirely from disk"

stage "perfbench simulated outputs vs golden digests"
# Builds perfbench/ into .bench_build/ on first use (about a minute), then
# about 15 s of tiny-size runs.
det_log="$tmp_dir/perfbench_determinism.log"
if ! python3 "$repo_root/perfbench/run.py" --determinism --tiny \
    > "$det_log" 2> "$tmp_dir/perfbench_determinism.err"; then
  echo "FAIL: perfbench --determinism --tiny"
  cat "$det_log"
  tail -20 "$tmp_dir/perfbench_determinism.err"
  exit 1
fi
sed -n 's/^\([a-z_]*\): sim\.digest \([0-9]*\) at 1 thread.*/\1 \2/p' \
  "$det_log" > "$tmp_dir/perfbench_digests.txt"
if ! diff -u "$repo_root/scripts/golden/perfbench_tiny_digests.txt" \
    "$tmp_dir/perfbench_digests.txt"; then
  echo "FAIL: perfbench sim.digest differs from the golden (left: golden)"
  exit 1
fi
echo "ok: perfbench sim.digest identical across threads and equal to the golden"

stage "asan + ubsan build, whole ctest suite"
asan_dir="$build_dir-asan"
cmake -B "$asan_dir" -S "$repo_root" -DREPRO_SANITIZE=address > /dev/null
cmake --build "$asan_dir" -j "$(nproc)"
ctest --test-dir "$asan_dir" --output-on-failure -j \
  > "$tmp_dir/asan_ctest.log" \
  || { echo "FAIL: asan + ubsan ctest"; tail -60 "$tmp_dir/asan_ctest.log"; exit 1; }
tail -3 "$tmp_dir/asan_ctest.log"
echo "ok: asan + ubsan clean"

echo "all checks passed"
