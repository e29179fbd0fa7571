#!/usr/bin/env bash
# Non-test lines per crate, and the size of the operator trait. Needs bash
# and awk.
#
#   scripts/loc.sh          # one line per crate, a total, the method count
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

# Every line of the integration tests, `tests/*.rs`: the other half of a
# "net-negative across `crates/workflow/src` and `tests/`" claim.
printf '%8d  tests/*.rs (all lines)\n' "$(cat tests/*.rs | wc -l)"

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
