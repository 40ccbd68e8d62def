#!/usr/bin/env bash
# The benchmark's one command. Builds the harness from source (offline,
# release) and runs it with the given flags; run from the repository
# root or anywhere else. See README.md for the flags.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# An explicit target directory, so the build lands in the same place
# whatever the working directory: the caller's CARGO_TARGET_DIR if set
# (resolved against the caller's directory, as cargo does), else the
# repository's own target/.
target="${CARGO_TARGET_DIR:-$here/../target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/pipeline-bench" "$@"
