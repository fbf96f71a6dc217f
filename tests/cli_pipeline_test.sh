#!/bin/sh
# End-to-end integration test of the parpde_cli pipeline:
# simulate -> info -> train -> eval -> rollout, through real files, plus a
# checkpointed train resumed with --resume.
set -e

CLI="$1"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

"$CLI" simulate --pde=euler --grid=20 --frames=14 --out="$WORKDIR/frames.ppfr"
"$CLI" info --data="$WORKDIR/frames.ppfr" | grep -q "14 frames"

"$CLI" train --data="$WORKDIR/frames.ppfr" --ranks=4 --epochs=2 --loss=mse \
  --out="$WORKDIR/model.ppde" | grep -q "saved ensemble"
"$CLI" info --model="$WORKDIR/model.ppde" | grep -q "ranks: 4"

"$CLI" eval --data="$WORKDIR/frames.ppfr" --model="$WORKDIR/model.ppde" \
  | grep -q "pressure"
"$CLI" rollout --data="$WORKDIR/frames.ppfr" --model="$WORKDIR/model.ppde" \
  --steps=2 | grep -q "rollout error"

# Recorded frames stream to the CLI's sink: --metrics gets one rollout_step
# record per recorded step (1-based), and the summary counts them.
steps_of() {
  sed -n 's/.*"record":"rollout_step","step":\([0-9]*\).*/\1/p' "$1" \
    | tr '\n' ' '
}
"$CLI" rollout --data="$WORKDIR/frames.ppfr" --model="$WORKDIR/model.ppde" \
  --steps=4 --metrics="$WORKDIR/every.jsonl" > /dev/null
if [ "$(steps_of "$WORKDIR/every.jsonl")" != "1 2 3 4 " ]; then
  echo "rollout --steps=4 recorded steps '$(steps_of "$WORKDIR/every.jsonl")'" >&2
  exit 1
fi
grep -q '"recorded_frames":4[,}]' "$WORKDIR/every.jsonl"
"$CLI" rollout --data="$WORKDIR/frames.ppfr" --model="$WORKDIR/model.ppde" \
  --steps=4 --record-every=3 --metrics="$WORKDIR/strided.jsonl" > /dev/null
if [ "$(steps_of "$WORKDIR/strided.jsonl")" != "3 4 " ]; then
  echo "rollout --record-every=3 recorded steps" \
    "'$(steps_of "$WORKDIR/strided.jsonl")'" >&2
  exit 1
fi
grep -q '"recorded_frames":2[,}]' "$WORKDIR/strided.jsonl"

# Crash-resume through the CLI: drop every rank's final checkpoint, so the
# manifests name missing files and the directory scan falls back to epoch 2;
# the resumed run must finish the last epoch into the same bytes (PPDE files
# hold no timings). The log check rules out a silent cold start, which would
# also reproduce the bytes.
"$CLI" train --data="$WORKDIR/frames.ppfr" --ranks=4 --epochs=3 --loss=mse \
  --checkpoint-dir="$WORKDIR/ckpt" --checkpoint-every=1 \
  --out="$WORKDIR/full.ppde" > /dev/null
rm "$WORKDIR"/ckpt/rank*_epoch000003.ckpt
"$CLI" train --data="$WORKDIR/frames.ppfr" --ranks=4 --epochs=3 --loss=mse \
  --checkpoint-dir="$WORKDIR/ckpt" --checkpoint-every=1 --resume \
  --out="$WORKDIR/resumed.ppde" > "$WORKDIR/resume.log" 2>&1
resumed=$(grep -c "resuming from epoch 2" "$WORKDIR/resume.log" || true)
if [ "$resumed" -ne 4 ]; then
  echo "--resume restarted $resumed of 4 ranks from epoch 2" >&2
  cat "$WORKDIR/resume.log" >&2
  exit 1
fi
cmp "$WORKDIR/full.ppde" "$WORKDIR/resumed.ppde"

# The advection path exercises the non-4-channel architecture adaptation.
"$CLI" simulate --pde=advection --grid=20 --frames=10 --out="$WORKDIR/adv.ppfr"
"$CLI" train --data="$WORKDIR/adv.ppfr" --ranks=2 --epochs=1 --loss=mse \
  --border=zero --out="$WORKDIR/adv.ppde" > /dev/null
"$CLI" info --model="$WORKDIR/adv.ppde" | grep -q "network channels: 1"

# Error handling: garbage inputs fail with a clean error, not a crash.
if "$CLI" eval --data=/nonexistent --model="$WORKDIR/model.ppde" 2>/dev/null; then
  echo "expected failure on missing data" >&2
  exit 1
fi

# Options a command does not read are rejected (exit 2), never silently
# ignored: a retired flag, and a misspelled key.
for bad in serialized halo-timout-ms=20; do
  rc=0
  "$CLI" rollout --data="$WORKDIR/frames.ppfr" --model="$WORKDIR/model.ppde" \
    --steps=2 "--$bad" > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "rollout --$bad exited $rc, want 2" >&2
    exit 1
  fi
done

echo "cli pipeline ok"
