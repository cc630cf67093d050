package fleet

import "element/internal/units"

// wheel is a hashed timer wheel over per-slot poll deadlines: the data
// structure that lets one shard drive a million monitors without a heap
// operation (or an allocation) per poll. Deadlines quantize up to a tick
// granularity; a deadline at tick T lives in bucket T mod nbuckets, so
// arming is an append and expiring a tick is one bucket scan. Deadlines
// beyond the wheel horizon (more than nbuckets ticks out) simply stay in
// their bucket across intermediate scans until their tick comes around —
// wrap-around needs no overflow list because every entry carries enough
// to tell its round apart.
//
// Each slot holds at most one live deadline. Re-arm is O(1) by lazy
// invalidation: every arm bumps the slot's generation, and a bucket
// entry is live only while its recorded generation matches.
// A stale entry is dropped the next time its bucket is scanned. The
// firing order within one tick is therefore well defined: entries fire
// in arm order (the latest arm per slot), which is what the heap-oracle
// property test pins.
//
// The wheel is not safe for concurrent use; each shard owns one.
type wheel struct {
	gran units.Duration // tick width; deadlines quantize up to it
	mask int64          // nbuckets-1 (nbuckets is a power of two)
	tick int64          // next tick index to expire

	buckets [][]wheelEntry
	// Per-slot state, struct-of-arrays: the armed tick index (-1 =
	// disarmed) and the live generation.
	deadline []int64
	gen      []uint32

	armed int
	fired []int32 // reusable expiry batch
}

// wheelEntry is one bucket element: the slot plus the generation the
// slot had when this entry was armed. 8 bytes, so a bucket scan is a
// cache-friendly sweep.
type wheelEntry struct {
	slot int32
	gen  uint32
}

// newWheel builds a wheel for the given slot count. buckets rounds up to
// a power of two (minimum 8).
func newWheel(gran units.Duration, slots, buckets int) *wheel {
	if gran <= 0 {
		panic("fleet: wheel granularity must be positive")
	}
	nb := 8
	for nb < buckets {
		nb <<= 1
	}
	w := &wheel{
		gran:     gran,
		mask:     int64(nb - 1),
		buckets:  make([][]wheelEntry, nb),
		deadline: make([]int64, slots),
		gen:      make([]uint32, slots),
	}
	for i := range w.deadline {
		w.deadline[i] = -1
	}
	return w
}

// tickOf quantizes an absolute deadline up to its tick index: a deadline
// exactly on a boundary fires at that boundary, anything past it waits
// for the next.
func (w *wheel) tickOf(at units.Time) int64 {
	g := int64(w.gran)
	return (int64(at) + g - 1) / g
}

// arm sets the slot's (single) deadline, replacing any pending one.
// Deadlines already in the past fire on the next expire call.
func (w *wheel) arm(slot int32, at units.Time) {
	t := w.tickOf(at)
	if t < w.tick {
		t = w.tick
	}
	if w.deadline[slot] == t {
		return // identical re-arm: the existing entry already covers it
	}
	if w.deadline[slot] < 0 {
		w.armed++
	}
	w.deadline[slot] = t
	w.gen[slot]++
	b := t & w.mask
	w.buckets[b] = append(w.buckets[b], wheelEntry{slot: slot, gen: w.gen[slot]})
}

// armedCount reports how many slots currently hold a live deadline.
func (w *wheel) armedCount() int { return w.armed }

// expire fires every deadline at or before now and returns the slots in
// (tick, arm-order) order. The returned slice is reused by the next
// call. Fired slots are disarmed; callers re-arm from the batch.
func (w *wheel) expire(now units.Time) []int32 {
	w.fired = w.fired[:0]
	last := int64(now) / int64(w.gran)
	for w.armed > 0 && w.tick <= last {
		b := w.tick & w.mask
		entries := w.buckets[b]
		keep := entries[:0]
		for _, e := range entries {
			if w.gen[e.slot] != e.gen {
				continue // re-armed since this entry was made
			}
			if w.deadline[e.slot] == w.tick {
				w.deadline[e.slot] = -1
				w.gen[e.slot]++
				w.armed--
				w.fired = append(w.fired, e.slot)
			} else {
				// A later round of this bucket: keep for a future scan.
				keep = append(keep, e)
			}
		}
		w.buckets[b] = keep
		w.tick++
	}
	if w.armed == 0 && w.tick <= last {
		// Nothing armed: fast-forward past the idle gap so a later arm
		// does not pay an O(gap) bucket sweep.
		w.tick = last + 1
	}
	return w.fired
}
