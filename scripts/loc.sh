#!/usr/bin/env bash
# Non-test lines per crate, and the size of the operator trait. Needs bash
# and awk.
#
#   scripts/loc.sh          # one line per crate, a total, the two engines, test lines, knobs per crate, the method count
#
# A file's non-test lines are the lines before its first `#[cfg(test)]`
# (all of it when there is none), comments and blanks included, over
# `crates/*/src/**/*.rs`. This is the count a "net-negative lines" claim
# in CHANGES.md is made on; at b107d71 it read 13 771 for
# `crates/workflow/src` and 3 633 for `crates/datakit/src`.

set -euo pipefail
cd "$(dirname "$0")/.."
shopt -s globstar nullglob

total=0
for crate in crates/*/; do
    files=("$crate"src/**/*.rs)
    ((${#files[@]})) || continue
    lines="$(awk 'FNR == 1 { test = 0 } /#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }' "${files[@]}")"
    printf '%8d  %ssrc\n' "$lines" "$crate"
    total=$((total + lines))
done
printf '%8d  total\n' "$total"

# The two engines' files, the count a "one rulebook" claim is made on: at
# 96e4a2b `exec_live.rs` read 2 023 and `exec_sim.rs` 1 011.
for file in crates/workflow/src/exec_live.rs crates/workflow/src/exec_sim.rs; do
    printf '%8d  %s\n' "$(awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")" "$file"
done

# Every line of the integration tests, `tests/*.rs`: the other half of a
# "net-negative across `crates/workflow/src` and `tests/`" claim.
printf '%8d  tests/*.rs (all lines)\n' "$(cat tests/*.rs | wc -l)"

# The in-crate test modules: every line from each file's first
# `#[cfg(test)]` on, over `crates/*/src/**/*.rs`. With the line above, the
# whole of the test code a "less test code" claim is made on.
printf '%8d  crates/*/src in-crate test lines\n' "$(awk 'FNR == 1 { test = 0 } /#\[cfg\(test\)\]/ { test = 1 } test { n++ } END { print n + 0 }' crates/*/src/**/*.rs)"

# Knobs: `pub fn with_*` / `pub fn set_*` methods in each crate's
# non-test code, so "no new knobs" is a count. At d945407
# `crates/workflow/src` read 63.
for crate in crates/*/; do
    files=("$crate"src/**/*.rs)
    ((${#files[@]})) || continue
    knobs="$(awk 'FNR == 1 { test = 0 } /#\[cfg\(test\)\]/ { test = 1 } !test && /pub fn (with|set)_/ { n++ } END { print n + 0 }' "${files[@]}")"
    printf '%8d  %ssrc knobs (pub fn with_* / set_*)\n' "$knobs" "$crate"
done

# Methods of `trait OperatorFactory`: `fn` items between the trait's
# opening line and the first line that closes it at column 0.
methods="$(awk '/^pub trait OperatorFactory/ { on = 1 } on && /^}/ { exit } on && /^    fn / { n++ } END { print n + 0 }' crates/workflow/src/operator.rs)"
printf '%8d  OperatorFactory methods\n' "$methods"

# `pub` fields of the two run records a run-level number could be copied
# into: `EngineRun` read 10 and `BackendRun` 7 before both stopped
# copying, 8 and 3 after. A count going up is a copy coming back.
pub_fields() {
    awk -v open="^pub struct $1 " '$0 ~ open { on = 1 } on && /^}/ { exit } on && /^    pub [a-z_]+:/ { n++ } END { print n + 0 }' "$2"
}
printf '%8d  EngineRun pub fields\n' "$(pub_fields EngineRun crates/workflow/src/backend.rs)"
printf '%8d  BackendRun pub fields\n' "$(pub_fields BackendRun crates/tasks/src/common.rs)"

# The service's policy surface: fields of `TenantQuota` (5 before the
# weights and the spill and cache quotas went, 2 after) and variants of
# `SubmitError` (7 before, 5 after). A count going up is a policy coming
# back.
printf '%8d  TenantQuota fields\n' "$(awk '/^pub struct TenantQuota / { on = 1; next } on && /^}/ { exit } on && /^    [a-z_]+:/ { n++ } END { print n + 0 }' crates/workflow/src/service.rs)"
printf '%8d  SubmitError variants\n' "$(awk '/^pub enum SubmitError / { on = 1; next } on && /^}/ { exit } on && /^    [A-Z][A-Za-z]*([ ({,]|$)/ { n++ } END { print n + 0 }' crates/workflow/src/service.rs)"
