#!/usr/bin/env bash
# Dead-export lint. Every [val] that an interface under lib/ exports
# must be named by some other module: a file under lib, bin, bench,
# perfbench, examples or test whose path differs from the interface's
# own [name.ml]/[name.mli] pair. A value that only its own module calls
# should not be exported; one that nothing calls should not exist.
#
# A value whose only callers outside its module are under test/ fails
# too, unless scripts/test_only_exports.txt lists it with the reason a
# test needs that handle. A list line fails when its value is no longer
# exported, when a module outside test/ now names it, or when it gives
# no reason.
#
# The check is a word match on source text, not on resolved names: a
# value counts as used when its name appears as a whole word (letters,
# digits, [_]) in any other module, even if that occurrence means
# something else. It can therefore miss a dead export whose name is
# common, but it does not flag a value that another file names.
#
# Usage: scripts/check_dead_exports.sh   (from the repository root)

set -euo pipefail

DIRS=(lib bin bench perfbench examples test)
ALLOW=scripts/test_only_exports.txt

# Source files, skipping build outputs (_build, _out) and hidden dirs.
sources() {
  find "${DIRS[@]}" \( -name '_*' -o -name '.*' \) -prune -o \
    -type f \( -name '*.ml' -o -name '*.mli' \) -print
}

# "word module" pairs, one per distinct identifier per file, where the
# module is the file's path without its extension.
index=$(sources | while read -r f; do
  grep -ow "[A-Za-z_][A-Za-z0-9_]*" "$f" | sort -u | sed "s|\$| ${f%.*}|"
done)

# "name module" for every [val name] in an interface under lib/.
vals=$(find lib \( -name '_*' -o -name '.*' \) -prune -o -type f -name '*.mli' -print |
  while read -r f; do
    sed -nE "s/^[[:space:]]*val[[:space:]]+([a-z_][A-Za-z0-9_']*)[[:space:]]*(:.*)?$/\1/p" "$f" |
      sed "s|\$| ${f%.*}|"
  done)

# "dead <iface>: <name>" when no other module names the value,
# "test <iface>: <name>" when only modules under test/ do.
verdicts=$(awk '
  NR == FNR { words[$1] = words[$1] " " $2; next }
  {
    n = split(words[$1], mods, " ")
    lib = 0; test = 0
    for (i = 1; i <= n; i++) {
      if (mods[i] == $2) continue
      if (mods[i] ~ /^test\//) test = 1; else lib = 1
    }
    if (!lib && !test) print "dead " $2 ".mli: " $1
    else if (!lib) print "test " $2 ".mli: " $1
  }' <(printf '%s\n' "$index") <(printf '%s\n' "$vals") | sort -u)

fail=0
report() {
  echo "check_dead_exports: $1" >&2
  sed 's/^/  /' >&2
  fail=1
}

dead=$(printf '%s\n' "$verdicts" | sed -n 's/^dead //p')
[ -z "$dead" ] || report "exported values that no other module names:" <<<"$dead"

# List lines are "<iface>: <name> <reason>"; '#' starts a comment.
entries=$(grep -vE '^[[:space:]]*(#|$)' "$ALLOW" || true)
unreasoned=$(printf '%s\n' "$entries" | awk 'NF > 0 && NF < 3')
[ -z "$unreasoned" ] || report "$ALLOW lines without a reason:" <<<"$unreasoned"

listed=$(printf '%s\n' "$entries" | awk 'NF > 0 { print $1 " " $2 }' | sort -u)
test_only=$(printf '%s\n' "$verdicts" | sed -n 's/^test //p')
unlisted=$(comm -23 <(printf '%s\n' "$test_only" | sed '/^$/d') <(printf '%s\n' "$listed" | sed '/^$/d'))
[ -z "$unlisted" ] ||
  report "exported values that only tests name (unexport, delete, or list in $ALLOW):" <<<"$unlisted"
stale=$(comm -13 <(printf '%s\n' "$test_only" | sed '/^$/d') <(printf '%s\n' "$listed" | sed '/^$/d'))
[ -z "$stale" ] ||
  report "$ALLOW lists values that are not exported or have a caller outside test/:" <<<"$stale"

[ "$fail" -eq 0 ] || exit 1
echo "check_dead_exports: $(printf '%s\n' "$vals" | wc -l) exported values all have a caller outside their module;" \
  "$(printf '%s\n' "$test_only" | sed '/^$/d' | wc -l) reached only by tests are listed in $ALLOW"
