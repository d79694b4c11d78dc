#!/usr/bin/env bash
# Dead-export lint. Every [val] that an interface under lib/ exports
# must be named by some other module: a file under lib, bin, bench,
# perfbench, examples or test whose path differs from the interface's
# own [name.ml]/[name.mli] pair. A caller in a test counts as a use. A
# value that only its own module calls should not be exported; one that
# nothing calls should not exist.
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

dead=$(awk '
  NR == FNR { words[$1] = words[$1] " " $2; next }
  {
    n = split(words[$1], mods, " ")
    used = 0
    for (i = 1; i <= n; i++) if (mods[i] != $2) used = 1
    if (!used) print $2 ".mli: " $1
  }' <(printf '%s\n' "$index") <(printf '%s\n' "$vals") | sort -u)

if [ -n "$dead" ]; then
  echo "check_dead_exports: exported values that no other module names:" >&2
  echo "$dead" | sed 's/^/  /' >&2
  exit 1
fi
echo "check_dead_exports: $(printf '%s\n' "$vals" | wc -l) exported values all have a caller outside their module"
