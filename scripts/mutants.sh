#!/usr/bin/env bash
# Mutation-kill table. Needs bash, git, cargo and awk.
#
#   scripts/mutants.sh [--rev REV] [--work DIR] [ID...]
#
# Each mutant of scripts/mutants.txt (all of them, or the IDs named) is
# one exact string patch, which must match its file exactly once. It is
# applied to a fresh `git clone --shared` of REV (default HEAD; pass
# `$(git stash create)` after `git add -A` for uncommitted work) under
# DIR/<id> (default target/mutants), built there with its own
# CARGO_TARGET_DIR (`cargo test --no-run`), and every test binary is run
# from its package directory, as `cargo test` runs it. Doc tests are not
# run. A binary that runs past 240 s or above 1.5 GB resident is killed;
# if it was, or if it ended without its summary line, it is run again
# one test at a time under the same watchdog, which names the test that
# hangs ("(hangs)") or takes the binary down ("(aborts)"). The kill table
# is printed at the end and saved as DIR/kills.md; the script fails if a
# patch does not apply, a mutant does not build or any mutant survives.
# A mutant takes a few minutes on 2 cores. Not part of scripts/ci.sh.

set -euo pipefail
cd "$(dirname "$0")/.."
ROOT=$PWD

rev=HEAD
work=$ROOT/target/mutants
while [ $# -gt 0 ]; do
  case $1 in
    --rev) rev=$2; shift 2 ;;
    --work) work=$2; shift 2 ;;
    -*) echo "usage: scripts/mutants.sh [--rev REV] [--work DIR] [ID...]" >&2; exit 2 ;;
    *) break ;;
  esac
done
rev=$(git rev-parse --verify "$rev^{commit}")
LIMIT_S=240
LIMIT_KB=$((1536 * 1024))

# --- The data file: ids, files, notes, old and new texts. ---
ids=() files=() notes=() olds=() news=()
state=none
while IFS= read -r line || [ -n "$line" ]; do
  case $state in
    none)
      case $line in
        "@@ "*) read -r _ id file <<<"$line"; ids+=("$id"); files+=("$file"); state=note ;;
      esac ;;
    note) notes+=("$line"); state=start ;;
    start) [ "$line" = "<<<<" ] || { echo "mutants.txt: expected <<<< after ${ids[-1]}" >&2; exit 2; }
      old="" new="" first=1; state=old ;;
    old)
      if [ "$line" = "====" ]; then first=1; state=new
      elif ((first)); then old=$line; first=0
      else old+=$'\n'$line; fi ;;
    new)
      if [ "$line" = ">>>>" ]; then olds+=("$old"); news+=("$new"); state=none
      elif ((first)); then new=$line; first=0
      else new+=$'\n'$line; fi ;;
  esac
done <"$ROOT/scripts/mutants.txt"
[ "$state" = none ] || { echo "mutants.txt: unterminated patch ${ids[-1]}" >&2; exit 2; }

# Replace the one occurrence of $OLD in $1 with $NEW.
patch_once() {
  OLD=$2 NEW=$3 awk '
    { text = text $0 "\n" }
    END {
      old = ENVIRON["OLD"]; i = index(text, old)
      if (i == 0) { print "patch does not match" > "/dev/stderr"; exit 1 }
      rest = substr(text, i + length(old))
      if (index(rest, old)) { print "patch matches more than once" > "/dev/stderr"; exit 1 }
      printf "%s%s%s", substr(text, 1, i - 1), ENVIRON["NEW"], rest
    }' "$1" >"$1.mutant"
  mv "$1.mutant" "$1"
}

# Run `$exe "$@"` from directory $pkg, output to $log, under the
# watchdog; set `verdict` to ok, failed, hangs or aborts. (The shell's
# own notice of a job killed by a signal goes to /dev/null.)
watched() {
  local log=$1 pkg=$2 exe=$3; shift 3
  (cd "$pkg" && exec "$exe" "$@") >"$log" 2>&1 &
  local pid=$! start=$SECONDS rss status=0
  verdict=""
  while kill -0 "$pid" 2>/dev/null; do
    rss=$(awk '/^VmRSS:/ { print $2 }' "/proc/$pid/status" 2>/dev/null || true)
    if ((SECONDS - start > LIMIT_S)); then verdict=hangs; fi
    if ((${rss:-0} > LIMIT_KB)); then verdict=aborts; fi
    if [ -n "$verdict" ]; then kill -9 "$pid" 2>/dev/null || true; break; fi
    sleep 0.2
  done
  wait "$pid" || status=$?
  if [ -n "$verdict" ]; then return; fi
  if ! grep -q '^test result: ' "$log"; then verdict=aborts
  elif ((status)); then verdict=failed
  else verdict=ok; fi
} 2>/dev/null

# The tests of one binary that fail under the mutant, one per line.
killers_of() {
  local pkg=$1 exe=$2 label=$3 log=$4
  watched "$log" "$pkg" "$exe"
  case $verdict in
    ok) return ;;
    failed) sed -n 's/^test \(.*\) \.\.\. FAILED$/\1/p' "$log" | sed "s/^/$label/"; return ;;
  esac
  # Hung or aborted: one test at a time names the culprit(s).
  local name
  (cd "$pkg" && "$exe" --list --format terse 2>/dev/null) | sed -n 's/: test$//p' |
    while IFS= read -r name; do
      watched "$log.one" "$pkg" "$exe" --exact "$name" --test-threads=1
      case $verdict in
        ok) ;;
        failed) echo "$label$name" ;;
        *) echo "$label$name ($verdict)" ;;
      esac
    done
}

mkdir -p "$work"
table=$work/kills.md
printf '| # | patch | killed by |\n|---|---|---|\n' >"$table"
survived=0
for k in "${!ids[@]}"; do
  id=${ids[$k]}
  if [ $# -gt 0 ] && [[ " $* " != *" $id "* ]]; then continue; fi
  dir=$work/$id
  rm -rf "$dir"
  git clone --quiet --shared --no-checkout "$ROOT" "$dir"
  git -C "$dir" checkout --quiet --detach "$rev"
  patch_once "$dir/${files[$k]}" "${olds[$k]}" "${news[$k]}" ||
    { echo "$id: patch of ${files[$k]} failed" >&2; exit 1; }
  echo "== $id: ${notes[$k]}" >&2
  start=$SECONDS
  if ! (cd "$dir" && CARGO_TARGET_DIR=$dir/target cargo test --offline --no-run \
        --message-format=json 2>"$dir/build.log" >"$dir/build.json"); then
    echo "$id does not build; see $dir/build.log" >&2
    exit 1
  fi
  killers=()
  while IFS=$'\t' read -r exe manifest kind name; do
    pkg=$(dirname "$manifest")
    if [ "$kind" = lib ]; then
      label="$(basename "$pkg") "
      [ "$pkg" = "$dir" ] && label="scriptflow "
    else
      label="$name::"
    fi
    mapfile -t -O "${#killers[@]}" killers < <(killers_of "$pkg" "$exe" "$label" "$dir/run.log")
  done < <(grep '"profile":{[^}]*"test":true' "$dir/build.json" | grep '"executable":"' |
    sed 's/.*"manifest_path":"\([^"]*\)".*"target":{"kind":\["\([^"]*\)"\],"crate_types":\[[^]]*\],"name":"\([^"]*\)".*"executable":"\([^"]*\)".*/\4\t\1\t\2\t\3/')
  echo "   $id: $((SECONDS - start)) s, ${#killers[@]} killing tests" >&2
  if ((${#killers[@]})); then
    cell=$(printf '`%s`; ' "${killers[@]}")
    cell=${cell%; }
  else
    cell="**nothing**"
    survived=$((survived + 1))
  fi
  printf '| %s | %s | %s |\n' "$id" "${notes[$k]}" "$cell" >>"$table"
  rm -rf "$dir"
done
cat "$table"
if ((survived)); then
  echo "$survived mutant(s) survived" >&2
  exit 1
fi
