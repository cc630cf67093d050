package fleet

import (
	"math/rand"
	"sort"
	"testing"

	"element/internal/units"
)

// wheelOracle is the reference implementation the wheel is checked
// against: a plain sorted container keyed by (tick, arm sequence). It
// shares none of the wheel's machinery — no buckets, no generations, no
// lazy deletion — so agreement between the two is evidence, not an echo.
type wheelOracle struct {
	gran     units.Duration
	now      int64 // last expired tick
	seq      int64
	deadline map[int32]oracleTimer
}

type oracleTimer struct {
	tick int64
	seq  int64
}

func newWheelOracle(gran units.Duration) *wheelOracle {
	return &wheelOracle{gran: gran, now: -1, deadline: make(map[int32]oracleTimer)}
}

func (o *wheelOracle) arm(slot int32, at units.Time) {
	g := int64(o.gran)
	t := (int64(at) + g - 1) / g
	if t <= o.now {
		t = o.now + 1
	}
	if cur, ok := o.deadline[slot]; ok && cur.tick == t {
		return // identical re-arm keeps the original order key
	}
	o.seq++
	o.deadline[slot] = oracleTimer{tick: t, seq: o.seq}
}

// expire returns every slot due at or before now, ordered by
// (tick, arm sequence) — the contract the wheel's bucket scan realizes.
func (o *wheelOracle) expire(now units.Time) []int32 {
	last := int64(now) / int64(o.gran)
	var due []oracleTimer
	slotOf := make(map[oracleTimer]int32)
	for slot, tm := range o.deadline {
		if tm.tick <= last {
			due = append(due, tm)
			slotOf[tm] = slot
		}
	}
	sort.Slice(due, func(i, j int) bool {
		if due[i].tick != due[j].tick {
			return due[i].tick < due[j].tick
		}
		return due[i].seq < due[j].seq
	})
	fired := make([]int32, 0, len(due))
	for _, tm := range due {
		slot := slotOf[tm]
		fired = append(fired, slot)
		delete(o.deadline, slot)
	}
	if last > o.now {
		o.now = last
	}
	return fired
}

// wheelVsOracle drives both implementations through one op sequence and
// fails on the first divergence. Returns the total number of fires so
// callers can assert the sequence actually exercised something.
func wheelVsOracle(t testing.TB, gran units.Duration, slots int, ops []wheelOp) int {
	t.Helper()
	w := newWheel(gran, slots, 16) // small bucket count → frequent wrap-around
	o := newWheelOracle(gran)
	now := units.Time(0)
	fires := 0
	for i, op := range ops {
		switch op.kind {
		case opArm:
			at := now.Add(op.delay)
			w.arm(op.slot, at)
			o.arm(op.slot, at)
		case opAdvance:
			now = now.Add(op.delay)
			got := w.expire(now)
			want := o.expire(now)
			if len(got) != len(want) {
				t.Fatalf("op %d: expire(%v): wheel fired %d timers %v, oracle %d %v",
					i, now, len(got), got, len(want), want)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("op %d: expire(%v): fire order diverges at %d: wheel %v, oracle %v",
						i, now, j, got, want)
				}
			}
			fires += len(got)
		}
		if w.armedCount() != len(o.deadline) {
			t.Fatalf("op %d: armed count: wheel %d, oracle %d", i, w.armedCount(), len(o.deadline))
		}
	}
	return fires
}

type wheelOpKind int

const (
	opArm wheelOpKind = iota
	opAdvance
)

type wheelOp struct {
	kind  wheelOpKind
	slot  int32
	delay units.Duration
}

// TestWheelOracle is the property test: random insert / advance / re-arm
// sequences must fire the same deadlines in the same order as
// the sorted-container oracle, with no timer lost or duplicated. The
// delay distribution deliberately reaches past the wheel horizon
// (16 buckets × gran) so multi-round wrap-around entries are routine,
// and re-arms target both past and far-future deadlines.
func TestWheelOracle(t *testing.T) {
	const gran = units.Millisecond
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		slots := 4 + rng.Intn(60)
		ops := make([]wheelOp, 0, 4000)
		for i := 0; i < 4000; i++ {
			r := rng.Float64()
			slot := int32(rng.Intn(slots))
			switch {
			case r < 0.6:
				// Delay up to 64 ticks: four times the 16-bucket horizon.
				ops = append(ops, wheelOp{opArm, slot, units.Duration(rng.Int63n(64 * int64(gran)))})
			default:
				ops = append(ops, wheelOp{opAdvance, 0, units.Duration(rng.Int63n(3 * int64(gran)))})
			}
		}
		if fires := wheelVsOracle(t, gran, slots, ops); fires == 0 {
			t.Fatalf("seed %d: sequence fired no timers; property vacuous", seed)
		}
	}
}

// TestWheelWrapAround pins the horizon case directly: a deadline armed
// many rounds past the wheel's bucket count must survive every
// intermediate scan of its bucket and fire exactly once, at its tick.
func TestWheelWrapAround(t *testing.T) {
	const gran = units.Millisecond
	w := newWheel(gran, 4, 8) // horizon = 8 ticks
	// Slot 0 fires 3 ticks out; slot 1 fires 35 ticks out — bucket
	// 35&7 = 3 is scanned four times before its round arrives.
	w.arm(0, units.Time(3*gran))
	w.arm(1, units.Time(35*gran))
	var all []int32
	for tick := int64(1); tick <= 40; tick++ {
		all = append(all, w.expire(units.Time(tick*int64(gran)))...)
	}
	if len(all) != 2 || all[0] != 0 || all[1] != 1 {
		t.Fatalf("wrap-around fires = %v, want [0 1]", all)
	}
	if w.armedCount() != 0 {
		t.Fatalf("armed = %d after all fires", w.armedCount())
	}
}

// TestWheelZeroAlloc pins the per-flow cost contract: once buckets have
// grown to steady state, an arm/expire cycle allocates nothing.
func TestWheelZeroAlloc(t *testing.T) {
	const gran = units.Millisecond
	const slots = 1024
	w := newWheel(gran, slots, 64)
	now := units.Time(0)
	for i := int32(0); i < slots; i++ {
		w.arm(i, now.Add(gran+units.Duration(i)%(8*gran)))
	}
	// Warm the bucket capacities through a few full rotations.
	for r := 0; r < 16; r++ {
		now = now.Add(gran)
		for _, slot := range w.expire(now) {
			w.arm(slot, now.Add(8*gran))
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		now = now.Add(gran)
		for _, slot := range w.expire(now) {
			w.arm(slot, now.Add(8*gran))
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state wheel tick allocates %.1f times, want 0", avg)
	}
}

// BenchmarkWheelTick measures the steady-state cost of the timer wheel:
// 64k slots re-arming every 8 ticks, so each tick expires and re-arms
// ~8k timers. One op is a full wheel revolution (1024 ticks, ~8M timer
// fires), which amortizes timer-resolution noise out of single-shot
// -benchtime 1x runs; warm-up also covers a full revolution so every
// bucket reaches steady-state capacity first — allocs/op is pinned at
// zero by the benchgate baseline.
func BenchmarkWheelTick(b *testing.B) {
	const gran = units.Millisecond
	const slots = 64 << 10
	const revolution = 1024 // bucket count = ticks per full revolution
	w := newWheel(gran, slots, revolution)
	now := units.Time(0)
	for i := int32(0); i < slots; i++ {
		w.arm(i, now.Add(gran+units.Duration(i)%(8*gran)))
	}
	tick := func() int {
		now = now.Add(gran)
		batch := w.expire(now)
		for _, slot := range batch {
			w.arm(slot, now.Add(8*gran))
		}
		return len(batch)
	}
	for r := 0; r < revolution+16; r++ {
		tick()
	}
	b.ResetTimer()
	b.ReportAllocs()
	fired := 0
	for i := 0; i < b.N; i++ {
		for t := 0; t < revolution; t++ {
			fired += tick()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(fired), "ns/timer")
	b.ReportMetric(float64(fired)/float64(b.N*revolution), "timers/tick")
}

// FuzzWheel feeds arbitrary advance/insert interleavings to the
// wheel-vs-oracle harness: every byte triple decodes to one op, so the
// fuzzer explores orderings (re-arm shrinking a deadline into the past,
// re-arm racing an expire, horizon wrap) no hand-written table covers.
func FuzzWheel(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x05, 0xc0, 0x00, 0x03, 0x40, 0x02, 0x30})
	f.Add([]byte{0x00, 0x00, 0xff, 0x80, 0x00, 0x00, 0xc0, 0x00, 0xff, 0x00, 0x00, 0x01})
	f.Add([]byte{0xc0, 0xff, 0xff, 0x00, 0x01, 0x00, 0xc0, 0x10, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		const gran = units.Millisecond
		const slots = 16
		ops := make([]wheelOp, 0, len(data)/3)
		for i := 0; i+2 < len(data); i += 3 {
			slot := int32(data[i+1]) % slots
			// Delay spans 0..255 ticks against a 16-bucket wheel: most
			// arms wrap the horizon at least once.
			delay := units.Duration(data[i+2]) * gran
			if data[i] < 0x80 {
				ops = append(ops, wheelOp{opArm, slot, delay})
			} else {
				ops = append(ops, wheelOp{opAdvance, 0, delay})
			}
		}
		wheelVsOracle(t, gran, slots, ops)
	})
}
