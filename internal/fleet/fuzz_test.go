package fleet

import (
	"testing"

	"element/internal/overload"
	"element/internal/units"
)

// fuzzScaleSeedCorpus builds a genuine snapshot from a short scale run
// so the fuzzer starts from structurally valid bytes, not just random
// JSON. Escalation is made aggressive so the snapshot carries Full
// entries with real rebased checkpoints.
func fuzzScaleSeedCorpus(tb testing.TB) []byte {
	cfg := ScaleConfig{
		Seed:          11,
		Flows:         64,
		Duration:      3 * units.Second,
		Interval:      100 * units.Millisecond,
		Shards:        3,
		EscalateAbove: 10 * units.Millisecond,
		Overload:      &overload.Config{Budgets: overload.Budgets{LiveFull: 16}},
	}
	fl := NewScale(cfg)
	fl.Run()
	raw, err := fl.Snapshot().Marshal()
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// FuzzScaleResume is the scale-mode snapshot decode + re-home fuzz: any
// byte string that parses as a ScaleSnapshot must resume into a fleet
// of any shard count with every flow landing in a valid ladder tier,
// every surviving Full entry on a sub-counters tier at the slot its id
// re-homes to, and the resumed run completing without panic. Bytes that
// don't parse must be rejected with an error, never a crash.
func FuzzScaleResume(f *testing.F) {
	valid := fuzzScaleSeedCorpus(f)
	f.Add(valid, uint8(1))
	f.Add(valid, uint8(4))
	f.Add([]byte(`{}`), uint8(2))
	f.Add([]byte(`{"flows":-3}`), uint8(1))
	f.Add([]byte(`{"flows":2,"tiers":[0,1,2,3]}`), uint8(2))
	f.Add([]byte(`{"flows":8,"shards":2,"tiers":[9,0,255,3],"full":[{"id":1},{"id":1},{"id":-4},{"id":999},{"id":3,"snd":"not json"}]}`), uint8(3))
	f.Add([]byte(`{"flows":1000000000,"tiers":[0]}`), uint8(2))
	f.Add(valid[:len(valid)/2], uint8(2))

	f.Fuzz(func(t *testing.T, raw []byte, shardByte uint8) {
		snap, err := UnmarshalScaleSnapshot(raw)
		if err != nil {
			return
		}
		cfg := ScaleConfig{
			Seed:     7,
			Flows:    48, // decoupled from snap.Flows: resume must re-home into whatever fleet it lands in
			Duration: units.Second,
			Interval: 100 * units.Millisecond,
			Shards:   1 + int(shardByte)%5,
			Resume:   snap,
		}
		fl := NewScale(cfg)

		fullSeen := 0
		for si, sh := range fl.shards {
			for slot := range sh.ids {
				if sh.tier[slot] >= uint8(overload.NumTiers) {
					t.Fatalf("flow %d resumed into invalid tier %d", sh.ids[slot], sh.tier[slot])
				}
			}
			for slot, fu := range sh.full {
				fullSeen++
				if fu == nil || fu.tr == nil {
					t.Fatalf("slot %d re-homed as escalated without a tracker", slot)
				}
				if overload.Tier(sh.tier[slot]) >= overload.TierCounters {
					t.Fatalf("slot %d escalated on degraded tier %d", slot, sh.tier[slot])
				}
				if id := sh.ids[slot]; int(id)%len(fl.shards) != si || int(id)/len(fl.shards) != int(slot) {
					t.Fatalf("full entry id %d landed on shard %d slot %d: wrong home", id, si, slot)
				}
			}
		}
		if fullSeen > len(snap.Full) {
			t.Fatalf("resume produced %d escalated flows from %d snapshot entries", fullSeen, len(snap.Full))
		}
		res := fl.Run()
		if res.StreamErr != nil {
			t.Fatalf("resumed run broke stream invariants: %v", res.StreamErr)
		}
	})
}

// FuzzFleetResumeDecode is the simulated-stack fleet's snapshot decode
// fuzz: any byte string that UnmarshalSnapshot accepts must resume a
// fleet at any shard count without panicking, with every monitor
// landing in a valid ladder tier regardless of what the snapshot
// claimed. Undecodable bytes must error, never crash.
func FuzzFleetResumeDecode(f *testing.F) {
	src := testConfig(31, 6)
	src.Churn = ChurnConfig{}
	src.Duration = 3 * units.Second
	src.Shards = 2
	seedFleet := New(src)
	seedFleet.Run()
	valid, err := seedFleet.Snapshot().Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, uint8(1))
	f.Add(valid, uint8(3))
	f.Add([]byte(`{}`), uint8(1))
	f.Add([]byte(`{"conns":[{"id":-1,"tier":200},{"id":0,"tier":3,"snd":"junk"},{"id":0}]}`), uint8(2))
	f.Add([]byte(`{"seed":1,"shards":9,"conns":[{"id":4,"snd":"{}","rcv":"{}","min":"{}"}]}`), uint8(4))
	f.Add(valid[:len(valid)*2/3], uint8(2))

	f.Fuzz(func(t *testing.T, raw []byte, shardByte uint8) {
		snap, err := UnmarshalSnapshot(raw)
		if err != nil {
			return
		}
		cfg := testConfig(32, 4)
		cfg.Churn = ChurnConfig{}
		cfg.Duration = 2 * units.Second
		cfg.Shards = 1 + int(shardByte)%4
		cfg.Resume = snap
		res := New(cfg).Run()
		for _, cr := range res.Conns {
			if cr.Tier >= overload.NumTiers {
				t.Fatalf("conn %d resumed into invalid tier %d", cr.ID, cr.Tier)
			}
		}
	})
}
