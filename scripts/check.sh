#!/usr/bin/env bash
# Repository gate: tier-1 verification (full build + every test), a
# strict -Wall -Wextra -Werror compile of every target (src/ libraries,
# tests, benches, examples) and a Release one of the src/ libraries, a
# doc-drift guard (docs/wire-contracts.md vs
# core/layout.h + markdown link check), JIT-vs-interpreter speed ratio
# gates for eBPF and for lowered Wasm (ablation_jit), a golden smoke gate
# (bench stdout and the chrome://tracing file vs bench/golden/), an
# examples golden gate (example stdout vs bench/golden/examples/), an
# API guard against completion-callback entry points, an
# rdxbench virtual gate (each workload's virtual-clock results at seeds
# 1-3, traced and untraced, vs bench/golden/rdxbench/), and an
# ASan+UBSan build + test pass (catches the lifetime/aliasing bugs the
# guardrail and fault paths and the coroutine frames are most prone to).
#
# Usage: scripts/check.sh            # from anywhere inside the repo
#        RDX_SKIP_SANITIZERS=1 scripts/check.sh   # quick gate only
#        RDX_BENCH_SMOKE=1 scripts/check.sh       # + run every bench tiny
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

echo "== tier-1: configure + build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"

echo
echo "== docs: wire-contract drift guard + markdown link check =="
# Every `| 0x.. | kConstant |` table row in docs/wire-contracts.md must
# match the constexpr value in src/core/layout.h, and every layout
# constant in the header must appear in the doc. Grep-based on purpose:
# no extra tooling, and the doc's table format is part of the contract.
doc="docs/wire-contracts.md"
hdr="src/core/layout.h"
drift=0

# Doc -> header: each documented (offset, constant) pair exists verbatim.
while IFS=' ' read -r off name; do
  if ! grep -Eq "constexpr std::uint64_t ${name} = ${off};" "$hdr"; then
    echo "doc-drift: $doc documents ${name} = ${off}, not found in $hdr"
    drift=1
  fi
done < <(sed -n 's/^| `\(0x[0-9a-fA-F]*\)` | `\(k[A-Za-z0-9]*\)` .*/\1 \2/p' "$doc")

# Doc sizes: `kFooBytes` = `0x..` mentions in prose must match too.
while IFS=' ' read -r name off; do
  if ! grep -Eq "constexpr std::uint64_t ${name} = ${off};" "$hdr"; then
    echo "doc-drift: $doc documents ${name} = ${off}, not found in $hdr"
    drift=1
  fi
done < <(sed -n 's/.*`\(k[A-Za-z0-9]*Bytes\)` = `\(0x[0-9a-fA-F]*\)`.*/\1 \2/p' "$doc")

# Header -> doc: every offset/size constant is documented somewhere.
while IFS= read -r name; do
  if ! grep -q "\`${name}\`" "$doc"; then
    echo "doc-drift: $hdr defines ${name}, missing from $doc"
    drift=1
  fi
done < <(sed -n 's/^constexpr std::uint64_t \(k\(Cb\|Tr\|Ts\|Hb\|Desc\)[A-Za-z0-9]*\) = 0x.*/\1/p; s/^constexpr std::uint64_t \(k[A-Za-z0-9]*Bytes\) = 0x.*/\1/p' "$hdr" | sort -u)

# Relative markdown links in the top-level docs resolve to real files.
for md in README.md DESIGN.md EXPERIMENTS.md docs/*.md; do
  dir="$(dirname "$md")"
  while IFS= read -r link; do
    target="${link%%#*}"
    [[ -z "$target" ]] && continue
    if [[ ! -e "$dir/$target" ]]; then
      echo "broken link: $md -> $link"
      drift=1
    fi
  done < <(grep -o '](\([^)]*\))' "$md" | sed 's/^](//; s/)$//' \
             | grep -v '^https\?://' | grep -v '^#' | grep -v ' ' || true)
done

if [[ "$drift" != "0" ]]; then
  echo "doc guard FAILED (see above)"
  exit 1
fi
echo "doc guard OK"

echo
echo "== api guard: no new completion-callback entry points in src/ =="
# Control-plane, collective, orchestrator, inspector, monitor and agent
# operations are sim::Task coroutines; code that is not a coroutine
# drives one with sim::Start or sim::RunToCompletion. A public
# declaration in src/core/*.h or src/agent/*.h that takes a completion
# callback (std::function<void(Status...)> or <void()>, or Done) fails,
# unless it is one of the seven entry points rdxbench calls.
allowed="CreateCodeFlow InjectExtension InjectWasmFilter XStateDump HarvestTrace BroadcastWasm DeployPipelined"
awk -v allowed="$allowed" '
  BEGIN { n = split(allowed, a, " "); for (i = 1; i <= n; ++i) ok[a[i]] = 1 }
  FNR == 1 { access = "public"; decl = "" }
  /^(class|struct) [A-Za-z0-9_]+[^;]*$/ {
    access = ($1 == "class") ? "private" : "public"
  }
  /^ *(public|private|protected):/ { access = $1; sub(/:.*/, "", access); next }
  /^ *\/\// { next }
  {
    decl = decl " " $0
    if ($0 !~ /[;{}] *$/) next
    if (access == "public" &&
        decl ~ /(std::function<void\((Status[^)]*)?\)>|[^A-Za-z0-9_]Done) +[A-Za-z0-9_]+ *[,)=]/ &&
        match(decl, /[A-Za-z0-9_]+\(/)) {
      name = substr(decl, RSTART, RLENGTH - 1)
      if (!(name in ok)) {
        printf "callback guard: %s: public %s takes a completion callback\n",
               FILENAME, name
        bad = 1
      }
    }
    decl = ""
  }
  END { exit bad }' src/core/*.h src/agent/*.h || {
  echo "api guard FAILED (see above)"
  exit 1
}
echo "api guard OK"

src_libs=(rdx_common rdx_sim rdx_rdma rdx_bpf rdx_wasm rdx_telemetry
          rdx_agent rdx_core rdx_fault rdx_mesh rdx_kvstore)

echo
echo "== strict: -Wall -Wextra -Werror build of every target =="
# The src/ libraries and every test, bench and example binary. rdxbench
# is not in this project: rdxbench/run.py builds it on its own.
cmake -B build-werror -S . \
  -DCMAKE_CXX_FLAGS="-Wall -Wextra -Werror" >/dev/null
cmake --build build-werror -j"$(nproc)"

echo
echo "== strict release: -O3 -Wall -Wextra -Werror build of src/ libraries =="
# rdxbench builds src/ as Release; -O3 inlining surfaces flow warnings
# (-Wmaybe-uninitialized) that the default RelWithDebInfo build misses.
# Only the libraries: at -O3, GCC 12's libstdc++ reports a false
# -Wrestrict in `"literal" + std::to_string(n)`, which the tests and
# benches use to name nodes.
cmake -B build-werror-release -S . -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="-Wall -Wextra -Werror" >/dev/null
cmake --build build-werror-release -j"$(nproc)" --target "${src_libs[@]}"

echo
echo "== perf-smoke gate: small_op_fastpath vs checked-in budget =="
# The bench runs in virtual time, so the smoke numbers are deterministic;
# the 20% tolerance absorbs deliberate cost-constant recalibration (in
# which case refresh bench/small_op_fastpath_budget.json) while catching
# accidental fast-path regressions. The headline row is payload=64 warm —
# the control plane's common case.
budget="bench/small_op_fastpath_budget.json"
row="$(RDX_BENCH_SMOKE=1 ./build/bench/small_op_fastpath \
       | grep '"payload_bytes": 64, "locality": "warm"')"
json_field() { sed -n "s/.*\"$2\": \([0-9.][0-9.]*\).*/\1/p" <<<"$1"; }
base="$(json_field "$row" baseline_ns_per_op)"
fast="$(json_field "$row" fastpath_ns_per_op)"
want_base="$(json_field "$(cat "$budget")" baseline_ns_per_op)"
want_fast="$(json_field "$(cat "$budget")" fastpath_ns_per_op)"
min_speedup="$(json_field "$(cat "$budget")" min_speedup)"
awk -v b="$base" -v f="$fast" -v wb="$want_base" -v wf="$want_fast" \
    -v ms="$min_speedup" 'BEGIN {
  ok = 1
  if (f > wf * 1.2 || f < wf * 0.8) {
    printf "perf gate: fastpath %.1f ns/op outside budget %.1f +/-20%%\n", f, wf
    ok = 0
  }
  if (b > wb * 1.2 || b < wb * 0.8) {
    printf "perf gate: baseline %.1f ns/op outside budget %.1f +/-20%%\n", b, wb
    ok = 0
  }
  if (b / f < ms) {
    printf "perf gate: speedup %.2fx below required %.1fx\n", b / f, ms
    ok = 0
  }
  if (!ok) exit 1
  printf "perf gate OK: %.1f -> %.1f ns/op (%.2fx, budget %.1f +/-20%%)\n",
         b, f, b / f, wf
}'

echo
echo "== jit ratio gate: ablation_jit JIT vs interpreter at 1000 insns =="
# Both engines run the same program in one process, repetitions
# interleaved, so the ratio of their insn/s medians is robust to host
# speed. The JIT, with its replicated dispatch and inline array-map
# helpers, must stay >= 3.0x the interpreter.
jit_json="$(./build/bench/ablation_jit \
  --benchmark_filter='^BM_(Interpreter|JitThreadedCode)/1000$' \
  --benchmark_min_time=0.1 --benchmark_repetitions=5 \
  --benchmark_enable_random_interleaving=true \
  --benchmark_report_aggregates_only=true --benchmark_format=json)"
awk '
  /"name":/ { name = $2 }
  /"items_per_second":/ {
    v = $2; sub(/,$/, "", v)
    if (name ~ /"BM_Interpreter\/1000_median"/) interp = v
    if (name ~ /"BM_JitThreadedCode\/1000_median"/) jit = v
  }
  END {
    if (interp == "" || jit == "") { print "jit gate: no medians"; exit 1 }
    ratio = jit / interp
    printf "jit gate: %.1f vs %.1f M insn/s (%.2fx, need >= 3.0x)\n",
           jit / 1e6, interp / 1e6, ratio
    if (ratio < 3.0) exit 1
  }' <<<"$jit_json"

echo
echo "== wasm ratio gate: ablation_jit lowered Wasm vs oracle at 1000 insns =="
# Same method as the jit gate: Wasm filters lowered onto the fused
# executor must stay >= 1.5x the RunFilter stack interpreter.
wasm_json="$(./build/bench/ablation_jit \
  --benchmark_filter='^BM_Wasm(Oracle|Lowered)/1000$' \
  --benchmark_min_time=0.1 --benchmark_repetitions=5 \
  --benchmark_enable_random_interleaving=true \
  --benchmark_report_aggregates_only=true --benchmark_format=json)"
awk '
  /"name":/ { name = $2 }
  /"items_per_second":/ {
    v = $2; sub(/,$/, "", v)
    if (name ~ /"BM_WasmOracle\/1000_median"/) oracle = v
    if (name ~ /"BM_WasmLowered\/1000_median"/) lowered = v
  }
  END {
    if (oracle == "" || lowered == "") { print "wasm gate: no medians"; exit 1 }
    ratio = lowered / oracle
    printf "wasm gate: %.1f vs %.1f M insn/s (%.2fx, need >= 1.5x)\n",
           lowered / 1e6, oracle / 1e6, ratio
    if (ratio < 1.5) exit 1
  }' <<<"$wasm_json"

echo
echo "== golden smoke gate: bench stdout vs bench/golden/ =="
# Virtual time is deterministic, so a bench's full RDX_BENCH_SMOKE=1
# stdout (git_sha stamp stripped) must match bench/golden/<bench>.txt byte
# for byte: the proof that a refactor changed no behaviour; so must the
# chrome://tracing file telemetry_overhead writes. Three benches
# have no golden because they print host wall-clock timings, which differ
# from run to run: ablation_jit (interpreter vs JIT insn/s),
# ablation_xstate (host-timed XState ops) and guardrail_overhead
# (steady_clock hook timing). A change that moves a number on purpose
# refreshes the goldens; docs/benchmarks.md says how.
no_golden=(ablation_jit ablation_xstate guardrail_overhead)
golden_fail=0
for bench in build/bench/*; do
  [[ -f "$bench" && -x "$bench" ]] || continue
  name="$(basename "$bench")"
  golden="bench/golden/$name.txt"
  if [[ " ${no_golden[*]} " == *" $name "* ]]; then
    continue
  fi
  if [[ ! -f "$golden" ]]; then
    echo "golden gate: $name has no $golden"
    golden_fail=1
    continue
  fi
  if ! RDX_BENCH_SMOKE=1 "$bench" | sed -E 's/"git_sha": "[^"]*", ?//' \
       | diff -u "$golden" - ; then
    echo "golden gate: $name smoke output differs from $golden"
    golden_fail=1
  fi
done
# telemetry_overhead also writes a chrome://tracing file into the working
# directory (the repo root here). Its spans are on the virtual clock too,
# so the file must equal bench/golden/telemetry_trace.json byte for byte.
if ! diff -u bench/golden/telemetry_trace.json telemetry_trace.json; then
  echo "golden gate: telemetry_trace.json differs from bench/golden/telemetry_trace.json"
  golden_fail=1
fi
if [[ "$golden_fail" != "0" ]]; then
  echo "golden smoke gate FAILED (see above)"
  exit 1
fi
echo "golden smoke gate OK"

echo
echo "== examples golden gate: example stdout vs bench/golden/examples/ =="
# The examples run on the virtual clock too, so each one's stdout must
# equal bench/golden/examples/<example>.txt byte for byte. An example
# with no golden fails the gate.
examples_fail=0
for bin in build/examples/*; do
  [[ -f "$bin" && -x "$bin" ]] || continue
  example="$(basename "$bin")"
  golden="bench/golden/examples/$example.txt"
  if [[ ! -f "$golden" ]]; then
    echo "examples gate: $example has no $golden"
    examples_fail=1
    continue
  fi
  if ! "$bin" | diff -u "$golden" - ; then
    echo "examples gate: $example stdout differs from $golden"
    examples_fail=1
  fi
done
if [[ "$examples_fail" != "0" ]]; then
  echo "examples golden gate FAILED (see above)"
  exit 1
fi
echo "examples golden gate OK"

echo
echo "== rdxbench virtual gate: virtual {...} lines vs bench/golden/rdxbench/ =="
# The benchmark's virtual-clock results are deterministic and depend on
# neither --seconds nor tracing: the `virtual {...}` line of each workload
# at seeds 1-3, with --trace 0 and with --trace 1, must equal the
# checked-in one byte for byte. docs/benchmarks.md says how to refresh
# them when a model change lands.
virtual_fail=0
for workload in kv_ebpf fleet_deploy mesh_wasm; do
  for seed in 1 2 3; do
    golden="bench/golden/rdxbench/$workload.seed$seed.virtual"
    for trace in 0 1; do
      run="$workload seed $seed trace $trace"
      if ! out="$(python3 rdxbench/run.py --workload "$workload" \
                    --seed "$seed" --seconds 1 --trace "$trace" 2>/dev/null)"; then
        echo "virtual gate: rdxbench $run failed to build or run"
        virtual_fail=1
        continue
      fi
      if ! grep '^virtual ' <<<"$out" | diff -u "$golden" - ; then
        echo "virtual gate: $run virtual line differs from $golden"
        virtual_fail=1
      fi
    done
  done
done
if [[ "$virtual_fail" != "0" ]]; then
  echo "rdxbench virtual gate FAILED (see above)"
  exit 1
fi
echo "rdxbench virtual gate OK"

if [[ "${RDX_BENCH_SMOKE:-0}" == "1" ]]; then
  echo
  echo "== bench smoke: every bench binary, tiny iterations =="
  for bench in build/bench/*; do
    [[ -f "$bench" && -x "$bench" ]] || continue
    echo "-- $(basename "$bench")"
    RDX_BENCH_SMOKE=1 "$bench" >/dev/null
  done
fi

if [[ "${RDX_SKIP_SANITIZERS:-0}" != "1" ]]; then
  echo
  echo "== sanitizers: ASan + UBSan build + ctest =="
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" >/dev/null
  cmake --build build-asan -j"$(nproc)"
  ctest --test-dir build-asan --output-on-failure -j"$(nproc)"
fi

echo
echo "check.sh: all gates passed"
