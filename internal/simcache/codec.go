package simcache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/interp"
	"repro/internal/simmach"
)

// An entry on disk is
//
//	magic · schema · key · Result · CRC-32C
//
// with every integer and simmach.Time a varint (zigzag when signed), every
// float64 its eight IEEE bytes little-endian, every string and slice
// length-prefixed, and a slice header that keeps nil and empty apart (0 is
// nil, len+1 otherwise: /run renders null against [] from that difference).
// The checksum covers every byte before it. Each value has exactly one
// encoding — varints are minimal, a bool is 0 or 1 — so an entry that
// decodes re-encodes to the same bytes.

// entryMagic opens every entry; a v1 (JSON) entry opens with '{'.
const entryMagic = "DFSC"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func encodeEntry(key string, res *interp.Result) []byte {
	c := codec{b: append(make([]byte, 0, 1024), entryMagic...)}
	schema := uint64(SchemaVersion)
	c.u64(&schema)
	c.str(&key)
	c.result(res)
	return binary.LittleEndian.AppendUint32(c.b, crc32.Checksum(c.b, castagnoli))
}

func decodeEntry(data []byte, key string) (*interp.Result, error) {
	body := len(data) - crc32.Size
	if body < len(entryMagic) || string(data[:len(entryMagic)]) != entryMagic {
		return nil, errors.New("simcache: not a cache entry")
	}
	if binary.LittleEndian.Uint32(data[body:]) != crc32.Checksum(data[:body], castagnoli) {
		return nil, errors.New("simcache: entry checksum mismatch")
	}
	// Strings are sliced from one copy of the body, not allocated each.
	c := codec{dec: true, b: data[len(entryMagic):body], src: string(data[:body])}
	var schema uint64
	c.u64(&schema)
	if !c.bad && schema != SchemaVersion {
		return nil, fmt.Errorf("simcache: entry schema %d, want %d", schema, SchemaVersion)
	}
	var got string
	c.str(&got)
	if !c.bad && got != key {
		return nil, errors.New("simcache: entry key mismatch (content-address violation)")
	}
	res := new(interp.Result)
	c.result(res)
	if c.bad || len(c.b) != 0 {
		return nil, errors.New("simcache: malformed entry")
	}
	return res, nil
}

// codec walks a value once, in one order, for both directions: each
// primitive appends *p to b when encoding and reads *p from the front of b
// when decoding, so the field list below is the only statement of the
// format and the two directions cannot disagree. Encoding only reads
// through the pointers (Get hands out shared results). A decoder that runs
// out of input or meets a value with a second encoding sets bad; from then
// on every primitive is a no-op that yields zero.
type codec struct {
	b   []byte // encoding: the output so far; decoding: the input not yet read
	src string // decoding: the whole input, of which b is a suffix
	dec bool
	bad bool
}

func (c *codec) u64(p *uint64) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, *p)
		return
	}
	v, n := binary.Uvarint(c.b)
	if c.bad || n <= 0 || n > 1 && c.b[n-1] == 0 { // short, overlong, or padded
		c.bad, *p = true, 0
		return
	}
	c.b, *p = c.b[n:], v
}

func (c *codec) i64(p *int64) {
	u := uint64(*p<<1) ^ uint64(*p>>63) // zigzag
	c.u64(&u)
	if c.dec {
		*p = int64(u>>1) ^ -int64(u&1)
	}
}

func (c *codec) time(p *simmach.Time) { c.i64((*int64)(p)) }

func (c *codec) int(p *int) {
	v := int64(*p)
	c.i64(&v)
	if c.dec {
		if int64(int(v)) != v {
			c.bad, v = true, 0
		}
		*p = int(v)
	}
}

func (c *codec) f64(p *float64) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*p))
		return
	}
	if c.bad || len(c.b) < 8 {
		c.bad, *p = true, 0
		return
	}
	*p = math.Float64frombits(binary.LittleEndian.Uint64(c.b))
	c.b = c.b[8:]
}

func (c *codec) boolean(p *bool) {
	if !c.dec {
		var v byte
		if *p {
			v = 1
		}
		c.b = append(c.b, v)
		return
	}
	if c.bad || len(c.b) == 0 || c.b[0] > 1 {
		c.bad, *p = true, false
		return
	}
	*p = c.b[0] == 1
	c.b = c.b[1:]
}

// size decodes a string length or element count. One beyond the remaining
// input (every element takes at least a byte) is corruption, never an
// allocation.
func (c *codec) size(u uint64) int {
	if u > uint64(len(c.b)) {
		c.bad, u = true, 0
	}
	return int(u)
}

func (c *codec) str(p *string) {
	n := uint64(len(*p))
	c.u64(&n)
	if !c.dec {
		c.b = append(c.b, *p...)
		return
	}
	at := len(c.src) - len(c.b)
	*p = c.src[at : at+c.size(n)]
	c.b = c.b[len(*p):]
}

// slice codes 0 for a nil slice and len+1 otherwise, then the elements.
func slice[T any](c *codec, p *[]T, elem func(*T)) {
	var head uint64
	if *p != nil {
		head = uint64(len(*p)) + 1
	}
	c.u64(&head)
	if c.dec {
		*p = nil
		if head > 0 {
			*p = make([]T, c.size(head-1))
		}
	}
	for i := 0; i < len(*p) && !c.bad; i++ {
		elem(&(*p)[i])
	}
}

// ptr codes whether *p is nil, then what it points to.
func ptr[T any](c *codec, p **T, elem func(*T)) {
	has := *p != nil
	c.boolean(&has)
	if c.dec {
		*p = nil
		if has {
			*p = new(T)
		}
	}
	if has {
		elem(*p)
	}
}

// result is the root of the field list: every field of every struct an
// interp.Result reaches, each stated once, in the order it is stored.
// Changing it is a format change: bump SchemaVersion.
//
//dfvet:fingerprint interp.Result interp.SectionStats interp.ExecutionStat interp.SampleStat interp.SwitchStat interp.RaceReport simmach.Counters
func (c *codec) result(r *interp.Result) {
	c.time(&r.Time)
	c.counters(&r.Counters)
	slice(c, &r.Output, c.str)
	slice(c, &r.Sections, c.sectionPtr)
	c.i64(&r.Steps)
	slice(c, &r.Races, c.race)
}

func (c *codec) counters(n *simmach.Counters) {
	c.i64(&n.Acquires)
	c.i64(&n.FailedAcquires)
	c.time(&n.LockTime)
	c.time(&n.WaitTime)
	c.time(&n.BarrierWait)
	c.time(&n.Busy)
	c.i64(&n.TimerReads)
}

func (c *codec) sectionPtr(p **interp.SectionStats) { ptr(c, p, c.section) }

func (c *codec) section(s *interp.SectionStats) {
	c.str(&s.Name)
	slice(c, &s.VersionLabels, c.str)
	slice(c, &s.Executions, c.execution)
	slice(c, &s.Samples, c.sample)
	slice(c, &s.Switches, c.switchStat)
	c.i64(&s.Iterations)
	c.time(&s.Busy)
	c.counters(&s.Counters)
	c.int(&s.ChosenVersion)
}

func (c *codec) execution(e *interp.ExecutionStat) {
	c.time(&e.Start)
	c.time(&e.End)
	c.i64(&e.Iterations)
}

func (c *codec) sample(s *interp.SampleStat) {
	c.str(&s.Kind)
	c.int(&s.Version)
	c.str(&s.Label)
	c.time(&s.Start)
	c.time(&s.End)
	c.f64(&s.Overhead)
	c.f64(&s.LockOver)
	c.f64(&s.WaitOver)
}

func (c *codec) switchStat(s *interp.SwitchStat) {
	c.int(&s.Round)
	c.int(&s.Version)
	c.str(&s.Label)
	c.time(&s.At)
}

func (c *codec) race(r *interp.RaceReport) {
	c.str(&r.Section)
	c.str(&r.Object)
	c.str(&r.Field)
	c.time(&r.Time)
	c.int(&r.Proc)
	c.boolean(&r.Write)
}
