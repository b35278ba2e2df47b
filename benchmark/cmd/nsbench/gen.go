package main

import (
	"fmt"
	"sync/atomic"
)

// splitmix64 is the benchmark's only source of randomness: every input is a
// pure function of -seed, so the same seed gives the same data set, the same
// op streams and the same values.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

const valueLen = 48

// dataset is the seeded name space: depts × hosts names of the form
// org/deptDDD/hostNNNNN/addr, each bound to a 48-byte value.
type dataset struct {
	seed         uint64
	depts, hosts int
	names        []string
}

func newDataset(seed uint64, depts, hosts int) *dataset {
	d := &dataset{seed: seed, depts: depts, hosts: hosts, names: make([]string, depts*hosts)}
	for i := range d.names {
		d.names[i] = d.deptName(i/hosts) + "/" + d.hostLabel(i) + "/addr"
	}
	return d
}

func (d *dataset) deptName(dept int) string { return fmt.Sprintf("org/dept%03d", dept) }
func (d *dataset) hostLabel(idx int) string { return fmt.Sprintf("host%05d", idx) }

// value is version k of name idx's value: 48 hex digits drawn from the seed.
func (d *dataset) value(idx int, k uint32) string {
	const hex = "0123456789abcdef"
	var b [valueLen]byte
	x := d.seed ^ uint64(idx)*0x9e3779b97f4a7c15 ^ uint64(k)<<40
	for i := 0; i < valueLen; i += 16 {
		x = splitmix64(x)
		for j, v := 0, x; j < 16; j, v = j+1, v>>4 {
			b[i+j] = hex[v&15]
		}
	}
	return string(b[:])
}

// liveBytes is the user data the store holds: Σ len(name)+len(value). Sets
// replace a value with one of the same length, so it does not change.
func (d *dataset) liveBytes() int64 {
	var n int64
	for _, name := range d.names {
		n += int64(len(name) + valueLen)
	}
	return n
}

// model is what the store must contain. Each name is written by exactly one
// client (see stream.next), so a name is a single-writer register: its
// history is value(idx,0), value(idx,1), ... and the only concurrency the
// model has to admit is an enquiry overlapping that one writer's Set.
type model struct {
	d       *dataset
	started []atomic.Uint32 // Sets sent for this name
	acked   []atomic.Uint32 // Sets acknowledged for this name
}

func newModel(d *dataset) *model {
	return &model{d: d, started: make([]atomic.Uint32, len(d.names)), acked: make([]atomic.Uint32, len(d.names))}
}

// beginSet returns the value the owning client must now send for idx.
func (m *model) beginSet(idx int) string { return m.d.value(idx, m.started[idx].Add(1)) }

// ackSet records that the store acknowledged the Set begun last.
func (m *model) ackSet(idx int) { m.acked[idx].Add(1) }

// beginLookup returns the oldest version a Lookup starting now may return:
// everything acknowledged before it started must be visible to it.
func (m *model) beginLookup(idx int) uint32 { return m.acked[idx].Load() }

// checkLookup reports whether got is a legal reply to a Lookup of idx that
// began when floor versions were acknowledged and has just returned: any
// version from floor up to the newest Set sent so far. A Set still in flight
// may or may not have been applied, so either value is right.
func (m *model) checkLookup(idx int, floor uint32, got string) bool {
	for k, hi := floor, m.started[idx].Load(); k <= hi; k++ {
		if got == m.d.value(idx, k) {
			return true
		}
	}
	return false
}

// settled returns the one value idx must hold once no Set is in flight.
func (m *model) settled(idx int) string { return m.d.value(idx, m.acked[idx].Load()) }

// checkList reports whether labels is the department's sorted host list.
// The workloads never create or delete names, so the list is fixed.
func (m *model) checkList(dept int, labels []string) bool {
	if len(labels) != m.d.hosts {
		return false
	}
	for i, l := range labels {
		if l != m.d.hostLabel(dept*m.d.hosts+i) {
			return false
		}
	}
	return true
}

type opKind uint8

const (
	opLookup opKind = iota
	opList
	opSet
)

type op struct {
	kind opKind
	idx  int // name index; department index for opList
}

// mix is a workload's traffic shares in per-mille; the rest are Lookups.
type mix struct{ list, set int }

// stream is one client's seeded op sequence. Lookups and Lists are uniform
// over the whole name space; Sets are uniform over the names this client
// owns (idx ≡ client mod clients), which keeps every name single-writer.
type stream struct {
	state           uint64
	d               *dataset
	mix             mix
	client, clients int
}

func newStream(d *dataset, m mix, client, clients int, salt uint64) *stream {
	return &stream{state: splitmix64(d.seed ^ salt<<32 ^ uint64(client)), d: d, mix: m, client: client, clients: clients}
}

func (s *stream) next() op {
	s.state = splitmix64(s.state)
	r := s.state
	kind := int(r % 1000)
	r /= 1000
	n := uint64(len(s.d.names))
	switch {
	case kind < s.mix.set:
		own := (n - uint64(s.client) + uint64(s.clients) - 1) / uint64(s.clients)
		return op{opSet, int(r%own)*s.clients + s.client}
	case kind < s.mix.set+s.mix.list:
		return op{opList, int(r % uint64(s.d.depts))}
	default:
		return op{opLookup, int(r % n)}
	}
}

// Salts keep the warm-up and steady streams of one seed distinct.
const (
	saltWarm uint64 = iota + 1
	saltSteady
	saltSample
)
