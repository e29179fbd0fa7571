#!/usr/bin/env bash
# Build the benchmark and run it; arguments go to the binary.
#
#   benchmark/run.sh                      every workload, untraced then traced
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh selftest             A/A: two runs must agree within bounds
#   benchmark/run.sh test                 the benchmark's own unit tests
#
# The build is `cargo build --release --offline` when the registry
# resolves, and otherwise bare rustc against the shim crates the
# repository keeps under .claude/skills/verify (read-only here). Output
# goes to $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT=$PWD
TARGET=${CARGO_TARGET_DIR:-.bench_build}
case $TARGET in /*) ;; *) TARGET=$ROOT/$TARGET ;; esac
export CARGO_TARGET_DIR=$TARGET
SHIMS=$ROOT/.claude/skills/verify
BIN=$TARGET/benchmark-bin
TEST_BIN=$TARGET/benchmark-test

# Sources the binary is built from; a newer file than the binary means rebuild.
sources() { echo "$ROOT/crates" "$ROOT/benchmark/src" "$ROOT/benchmark/Cargo.toml" "$SHIMS"; }

stale() { # <binary>
  [ ! -x "$1" ] && return 0
  # shellcheck disable=SC2046
  [ -n "$(find $(sources) -newer "$1" -type f -print -quit 2>/dev/null)" ]
}

# Compile every crate of a layer at once, then wait for all of them.
layer() {
  local pids=() pid
  while [ $# -gt 0 ]; do
    # shellcheck disable=SC2086
    $1 &
    pids+=($!)
    shift
  done
  for pid in "${pids[@]}"; do wait "$pid"; done
}

shim_build() { # <out-binary> [extra rustc flags for the final crate]
  local out=$TARGET/shim final=$1
  shift
  [ -d "$SHIMS" ] || { echo "run.sh: no registry and no shim crates at $SHIMS" >&2; return 1; }
  mkdir -p "$out"
  local rc="rustc --edition 2021 -C opt-level=3 -L $out --cap-lints allow"
  ext() { local c; for c in "$@"; do printf -- '--extern %s=%s/lib%s.rlib ' "$c" "$out" "$c"; done; }
  shim() { $rc --crate-type lib --crate-name "$1" -o "$out/lib$1.rlib" "$SHIMS/$1.rs"; }
  lib() { # <crate dir> <deps...>
    local dir=$1 name=scriptflow_${1//-/_}
    shift
    # shellcheck disable=SC2046
    $rc --crate-type lib --crate-name "$name" $(ext "$@") -o "$out/lib$name.rlib" "$ROOT/crates/$dir/src/lib.rs"
  }
  layer "shim bytes" "shim rand" "shim parking_lot" "shim crossbeam" "lib simcluster"
  layer "lib datakit bytes" "lib core scriptflow_simcluster" "lib raysim scriptflow_simcluster" \
        "lib mlkit scriptflow_simcluster rand"
  layer "lib workflow scriptflow_core scriptflow_datakit scriptflow_simcluster crossbeam parking_lot" \
        "lib datagen scriptflow_datakit scriptflow_mlkit rand" \
        "lib notebook scriptflow_datakit scriptflow_simcluster scriptflow_raysim"
  lib tasks scriptflow_datakit scriptflow_simcluster scriptflow_mlkit scriptflow_datagen \
      scriptflow_workflow scriptflow_notebook scriptflow_raysim scriptflow_core
  # shellcheck disable=SC2046
  $rc --crate-name benchmark "$@" \
    $(ext scriptflow_core scriptflow_datakit scriptflow_simcluster scriptflow_mlkit \
          scriptflow_datagen scriptflow_workflow scriptflow_tasks) \
    -o "$final" "$ROOT/benchmark/src/main.rs"
}

build() {
  stale "$BIN" || return 0
  mkdir -p "$TARGET"
  if cargo build --release --offline --manifest-path "$ROOT/benchmark/Cargo.toml" >"$TARGET/cargo.log" 2>&1; then
    cp "$TARGET/release/benchmark" "$BIN"
    echo cargo >"$TARGET/build_kind"
  else
    echo "run.sh: cargo cannot resolve the registry offline (see $TARGET/cargo.log); building with rustc and the shim crates" >&2
    shim_build "$BIN"
    echo shim >"$TARGET/build_kind"
  fi
}

if [ "${1:-}" = test ]; then
  if stale "$TEST_BIN"; then
    mkdir -p "$TARGET"
    if cargo test --release --offline --no-run --manifest-path "$ROOT/benchmark/Cargo.toml" >"$TARGET/cargo.log" 2>&1; then
      exec cargo test --release --offline --manifest-path "$ROOT/benchmark/Cargo.toml"
    fi
    shim_build "$TEST_BIN" --test
  fi
  exec "$TEST_BIN"
fi

build >&2
BENCH_BUILD_KIND=$(cat "$TARGET/build_kind")
BENCH_RUSTC=$(rustc --version)
BENCH_COMMIT=$(git -C "$ROOT" rev-parse HEAD 2>/dev/null || echo unknown)
export BENCH_BUILD_KIND BENCH_RUSTC BENCH_COMMIT
exec "$BIN" "$@"
