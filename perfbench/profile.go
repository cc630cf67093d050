package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// This file splits a Go CPU profile (gzipped pprof protobuf, as written by
// runtime/pprof) into the categories the cpu.* metrics report. It decodes
// only the profile fields it needs: samples, locations, functions and the
// string table.

// allocGC are runtime functions whose presence anywhere in a stack makes
// the sample allocation or garbage-collection work.
var allocGC = map[string]bool{
	"runtime.mallocgc":          true,
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.gcStart":           true,
	"runtime.gcMarkDone":        true,
	"runtime.gcMarkTermination": true,
	"runtime.wbBufFlush":        true,
	"runtime.GC":                true,
}

// sched are the runtime functions behind goroutine handoff: channel
// operations (the sim.Proc rendezvous), parking, the scheduler itself and
// the futex sleeps underneath it.
var sched = map[string]bool{
	"runtime.chansend":     true,
	"runtime.chanrecv":     true,
	"runtime.gopark":       true,
	"runtime.goready":      true,
	"runtime.selectgo":     true,
	"runtime.mcall":        true,
	"runtime.schedule":     true,
	"runtime.findRunnable": true,
	"runtime.futex":        true,
	"runtime.notesleep":    true,
	"runtime.notewakeup":   true,
	"runtime.wakep":        true,
	"runtime.startm":       true,
	"runtime.stopm":        true,
	"runtime.usleep":       true,
	"runtime.osyield":      true,
}

const elementPrefix = "element/internal/"

// classify names the category of one sample's stack, leaf first: alloc_gc
// or sched when the runtime did that work on the stack's behalf, otherwise
// the element/internal package of the innermost element frame (so a
// container/heap call made by the engine counts as sim) when it is one of
// cpuPackages, otherwise other.
func classify(stack []string) string {
	for _, fn := range stack {
		if allocGC[fn] {
			return "alloc_gc"
		}
	}
	for _, fn := range stack {
		if sched[fn] {
			return "sched"
		}
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, elementPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 && slices.Contains(cpuPackages, rest[:i]) {
				return rest[:i]
			}
			return "other"
		}
	}
	return "other"
}

// addProfile decodes one gzipped CPU profile and adds its CPU nanoseconds
// per category into acc.
func addProfile(raw []byte, acc map[string]float64) error {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs      []string
		valueType [][2]uint64 // (type, unit) string indices per sample value
		samples   []pbSample
		locs      = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs     = map[uint64]uint64{}   // function id -> name string index
	)
	err = fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 1:
			var vt [2]uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = v
				}
				return nil
			})
			valueType = append(valueType, vt)
			return err
		case 2:
			var s pbSample
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.vals = appendVarints(s.vals, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, vt := range valueType {
		if str(vt[0]) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return errors.New("cpu profile: no cpu sample type")
	}
	var stack []string
	for _, s := range samples {
		if cpu >= len(s.vals) {
			continue
		}
		stack = stack[:0]
		for _, l := range s.locs {
			for _, f := range locs[l] {
				stack = append(stack, str(funcs[f]))
			}
		}
		acc[classify(stack)] += float64(int64(s.vals[cpu]))
	}
	return nil
}

type pbSample struct{ locs, vals []uint64 }

// appendVarints appends a repeated varint field, which the encoder writes
// either one value per field (v) or packed into one length-delimited field
// (b).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes (b is nil for
// varint fields). Fixed-width fields are skipped.
func fields(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := varint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(data) < 8 {
				return errors.New("short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := varint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad length")
			}
			b := data[n : n+int(l)]
			data = data[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(data) < 4 {
				return errors.New("short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// varint decodes one base-128 varint, returning the bytes consumed (0 on
// truncated or overlong input).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
