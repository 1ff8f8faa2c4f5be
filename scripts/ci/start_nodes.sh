#!/usr/bin/env bash
# Start hsqp-node processes on OS-assigned loopback ports and print their
# addresses, comma-separated, for `hsqp --cluster`.
#
# Usage: scripts/ci/start_nodes.sh PREFIX [N]
#
# Starts N nodes (default 4) from target/release/hsqp-node in the
# background, logging to node-logs/PREFIX<i>.out and .err, and waits up to
# 10 s for each to report its listen address. The nodes exit when the
# coordinator that connects to them shuts down.
set -euo pipefail

prefix=$1
n=${2:-4}
mkdir -p node-logs
for i in $(seq 0 $((n - 1))); do
  ./target/release/hsqp-node --listen 127.0.0.1:0 \
    > "node-logs/$prefix$i.out" 2> "node-logs/$prefix$i.err" &
done
for i in $(seq 0 $((n - 1))); do
  for _ in $(seq 1 100); do
    grep -q "listening on" "node-logs/$prefix$i.out" && break
    sleep 0.1
  done
  grep -q "listening on" "node-logs/$prefix$i.out"
done
for i in $(seq 0 $((n - 1))); do
  awk '{print $NF}' "node-logs/$prefix$i.out"
done | paste -sd,
