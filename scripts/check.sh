#!/usr/bin/env bash
# Repo-wide quality gate: formatting, lints as errors, full test suite.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> panic-hygiene grep gate (no .join().unwrap()/.expect() in crates/*/src, no .expect(\"spawn in crates/net/src)"
# Worker threads must be harvested through the supervision layer, never
# joined with a bare unwrap/expect that would re-raise the panic payload
# unhandled. The network servers return io::Result, so a thread that
# cannot be spawned there is an error for the caller, not a panic. Test
# modules (everything after a #[cfg(test)] marker) are exempt.
violations=$(
  for f in crates/*/src/*.rs crates/*/src/**/*.rs; do
    [ -e "$f" ] || continue
    net=0
    case "$f" in crates/net/src/*) net=1 ;; esac
    awk -v net="$net" '/^#\[cfg\(test\)\]/ { exit }
         /\.join\(\)[[:space:]]*\.(unwrap|expect)\(/ || (net && /\.expect\("spawn/) { print FILENAME ":" FNR ": " $0 }' "$f"
  done
)
if [ -n "$violations" ]; then
  echo "error: unhandled thread joins or spawns found (route joins through the supervisor, return spawn errors):"
  echo "$violations"
  exit 1
fi

echo "==> checkpoint-I/O grep gate (no .unwrap()/.expect( in crates/state/src)"
# Checkpoint files are untrusted input: a torn write, a flipped byte, or a
# hand-edited manifest must surface as a typed StateError so recovery can
# fall back to the previous complete checkpoint — never as a panic. Test
# modules (everything after a #[cfg(test)] marker) are exempt.
violations=$(
  for f in crates/state/src/*.rs crates/state/src/**/*.rs; do
    [ -e "$f" ] || continue
    awk '/^#\[cfg\(test\)\]/ { exit }
         /\.unwrap\(\)|\.expect\(/ { print FILENAME ":" FNR ": " $0 }' "$f"
  done
)
if [ -n "$violations" ]; then
  echo "error: panics on checkpoint I/O paths (return StateError instead):"
  echo "$violations"
  exit 1
fi

echo "==> replica-name grep gate (no \"base[i]\" construction outside crates/shard)"
# Shard replica node IDs ("agg[0]", "agg.split", ...) key the checkpoint
# blobs, so a recovered run must mint exactly the same names. The ONLY
# constructor is hmts-shard's names module. Replica groups travel as
# typed ShardGroup metadata, so nothing needs to parse the names back.
# The gate rejects the construction idiom `format!("...{x}[{i}]...")`.
violations=$(
  for f in crates/*/src/*.rs crates/*/src/**/*.rs; do
    [ -e "$f" ] || continue
    case "$f" in crates/shard/src/*) continue ;; esac
    grep -Hn '}\[{' "$f" || true
  done
)
if [ -n "$violations" ]; then
  echo "error: replica node IDs constructed outside crates/shard (use hmts_shard::names):"
  echo "$violations"
  exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> admin-plane smoke (/metrics + /healthz + /analyze against a live serve)"
# Boots the served Fig. 9/10 chain with the embedded admin endpoint and
# scrapes it over raw /dev/tcp (no curl dependency): non-200 or an empty
# body fails the gate. JSON endpoints are additionally validated with the
# repo's own strict parser (target/release/jsonv wraps hmts-obs::json).
smoke_log=$(mktemp)
target/release/serve --ingest 127.0.0.1:0 --egress 127.0.0.1:0 \
  --admin 127.0.0.1:0 >"$smoke_log" 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -f "$smoke_log"' EXIT
admin_addr=""
for _ in $(seq 1 50); do
  admin_addr=$(sed -n 's#^serve: admin endpoint on http://\([^/]*\)/.*#\1#p' "$smoke_log")
  [ -n "$admin_addr" ] && break
  sleep 0.1
done
if [ -z "$admin_addr" ]; then
  echo "error: serve never announced its admin endpoint:"
  cat "$smoke_log"
  exit 1
fi
host=${admin_addr%:*}
port=${admin_addr##*:}
http_get() { # $1 = request target; prints the full HTTP response
  exec 3<>"/dev/tcp/$host/$port"
  printf 'GET %s HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n\r\n' "$1" >&3
  cat <&3
  exec 3<&- 3>&-
}
for target in /metrics /healthz /analyze; do
  resp=$(http_get "$target")
  status=$(printf '%s' "$resp" | head -n1 | awk '{print $2}')
  body=$(printf '%s' "$resp" | sed -e '1,/^\r\{0,1\}$/d')
  bytes=$(printf '%s' "$body" | wc -c)
  if [ "$status" != 200 ] || [ "$bytes" -eq 0 ]; then
    echo "error: GET $target -> status ${status:-none}, $bytes body bytes"
    printf '%s\n' "$resp"
    exit 1
  fi
  # The engine registers its graph model itself: an /analyze stub means
  # the analyzer never saw the running plan.
  if [ "$target" = /analyze ] && printf '%s' "$body" | grep -q '"topology":false'; then
    echo "error: GET /analyze returned the no-model stub: $body"
    exit 1
  fi
  case "$target" in
    /healthz|/analyze)
      if ! shape=$(printf '%s' "$body" | target/release/jsonv); then
        echo "error: GET $target body is not valid JSON"
        printf '%s\n' "$body"
        exit 1
      fi
      echo "    GET $target -> 200 ($bytes bytes, $shape)"
      ;;
    *)
      echo "    GET $target -> 200 ($bytes bytes)"
      ;;
  esac
done
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
trap - EXIT
rm -f "$smoke_log"

echo "==> sharded recovery smoke (kill + recover with sel_expensive split 2-way)"
scripts/recovery.sh --shard

echo "==> all checks passed"
