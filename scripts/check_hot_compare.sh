#!/usr/bin/env bash
# Hot-path compare lint. Algorithm 1's per-access path (interval
# arithmetic, access equality, the AVL interval tree, fragmentation, the
# disjoint store and the analyzer's tree tables) and the simulator's
# per-access step that feeds it (the scheduler's run queue, event
# dispatch and access classification in the runtime, and the rank
# memory's scans), the line splitter, trace codec and ingestion step that every
# recorded, analyzed or served event passes through, the recorder that
# every analyze pass replays through, and the serve session that every
# served line crosses, must stay monomorphic:
# without flambda, Stdlib's polymorphic [compare]/[=]/[<]/... on
# non-int types and Stdlib's [max]/[min] on any type are calls into the
# C runtime's generic compare (DESIGN.md §18, §19). This script lists the
# undefined symbols of those modules' native objects and fails on any
# reference to the polymorphic compare primitives or to Stdlib.max/min.
# Fix a hit with [Int.max], [Int.equal], [String.compare], a pattern
# match, or a type annotation that lets the compiler specialise.
#
# Usage: scripts/check_hot_compare.sh [build-dir]   (default _build/default)
# Run it after `dune build @all`, which builds the native objects.

set -euo pipefail

BUILD=${1:-_build/default}

OBJECTS=(
  lib/access/.rma_access.objs/native/rma_access__Interval.o
  lib/access/.rma_access.objs/native/rma_access__Access.o
  lib/access/.rma_access.objs/native/rma_access__Access_kind.o
  lib/store/.rma_store.objs/native/rma_store__Avl.o
  lib/store/.rma_store.objs/native/rma_store__Fragmenter.o
  lib/store/.rma_store.objs/native/rma_store__Disjoint_store.o
  lib/analysis/.rma_analysis.objs/native/rma_analysis__Rma_analyzer.o
  lib/mpi_sim/.mpi_sim.objs/native/mpi_sim__Run_queue.o
  lib/mpi_sim/.mpi_sim.objs/native/mpi_sim__Runtime.o
  lib/mpi_sim/.mpi_sim.objs/native/mpi_sim__Memory.o
  lib/util/.rma_util.objs/native/rma_util__Lines.o
  lib/trace/.rma_trace.objs/native/rma_trace__Codec.o
  lib/trace/.rma_trace.objs/native/rma_trace__Ingest.o
  lib/trace/.rma_trace.objs/native/rma_trace__Recorder.o
  lib/serve/.rma_serve.objs/native/rma_serve__Session.o
)

# Module paths in symbol names are joined by "." on OCaml 5.1 and by
# "__" (or "$") on other releases; an optional leading "_" covers
# platforms that prefix C symbols.
FORBIDDEN='^_?(caml_(compare|equal|notequal|lessthan|lessequal|greaterthan|greaterequal)|camlStdlib(\.|__|\$)(max|min)_[0-9]+)$'

status=0
for obj in "${OBJECTS[@]}"; do
  path="$BUILD/$obj"
  if [ ! -f "$path" ]; then
    echo "check_hot_compare: missing $path (run dune build @all first)" >&2
    status=1
    continue
  fi
  hits=$(nm -u "$path" | awk '{print $NF}' | grep -E "$FORBIDDEN" || true)
  if [ -n "$hits" ]; then
    echo "check_hot_compare: $obj references polymorphic compare:" >&2
    echo "$hits" | sed 's/^/  /' >&2
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "check_hot_compare: ${#OBJECTS[@]} hot-path objects are free of polymorphic compare"
fi
exit "$status"
