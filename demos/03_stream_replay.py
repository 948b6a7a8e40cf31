"""Parse the bundled event log and replay it as an ordered stream."""

from pathlib import Path

from streamcc import parse_csv_log, replay, replicate_events

log_path = Path(__file__).resolve().parents[1] / "data" / "sample_stream.csv"
log = parse_csv_log(log_path)
print(f"parsed {len(log)} events across cases {log.case_ids()}")
print()

print("replay order (timestamp, then log position for ties):")
for event in replay(log):
    print(f"  #{event.arrival_index}: case {event.case_id} did {event.activity}")
print()

print("replicated twice (second copy gets fresh case ids):")
for event in replicate_events(list(replay(log)), 2):
    marker = "*" if "~r" in event.case_id else " "
    print(f" {marker}#{event.arrival_index}: case {event.case_id} did {event.activity}")
