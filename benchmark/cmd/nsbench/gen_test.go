package main

import (
	"fmt"
	"hash/fnv"
	"sync"
	"testing"
)

// streamHash fingerprints the first n ops of every client's stream.
func streamHash(d *dataset, m mix, clients, n int) uint64 {
	h := fnv.New64a()
	for c := 0; c < clients; c++ {
		s := newStream(d, m, c, clients, saltSteady)
		for i := 0; i < n; i++ {
			o := s.next()
			fmt.Fprintf(h, "%d:%d:%d,", c, o.kind, o.idx)
		}
	}
	return h.Sum64()
}

func TestSameSeedSameOpStream(t *testing.T) {
	m := mix{list: 20, set: 100}
	a := streamHash(newDataset(42, 8, 50), m, 2, 5000)
	b := streamHash(newDataset(42, 8, 50), m, 2, 5000)
	if a != b {
		t.Errorf("same seed gave op stream hashes %x and %x", a, b)
	}
	if c := streamHash(newDataset(43, 8, 50), m, 2, 5000); c == a {
		t.Errorf("seeds 42 and 43 gave the same op stream hash %x", a)
	}
	if c := streamHash(newDataset(42, 8, 50), mix{set: 900}, 2, 5000); c == a {
		t.Errorf("two mixes gave the same op stream hash %x", a)
	}
}

func TestStreamKeepsEveryNameSingleWriter(t *testing.T) {
	d := newDataset(7, 4, 25) // 100 names, not a multiple of 3
	const clients = 3
	counts := map[opKind]int{}
	for c := 0; c < clients; c++ {
		s := newStream(d, mix{list: 100, set: 400}, c, clients, saltSteady)
		for i := 0; i < 20000; i++ {
			o := s.next()
			counts[o.kind]++
			switch o.kind {
			case opSet:
				if o.idx%clients != c || o.idx < 0 || o.idx >= len(d.names) {
					t.Fatalf("client %d of %d was given a Set on name %d", c, clients, o.idx)
				}
			case opList:
				if o.idx < 0 || o.idx >= d.depts {
					t.Fatalf("List of department %d of %d", o.idx, d.depts)
				}
			case opLookup:
				if o.idx < 0 || o.idx >= len(d.names) {
					t.Fatalf("Lookup of name %d of %d", o.idx, len(d.names))
				}
			}
		}
	}
	total := float64(clients * 20000)
	for kind, want := range map[opKind]float64{opSet: 0.4, opList: 0.1, opLookup: 0.5} {
		if got := float64(counts[kind]) / total; got < want-0.02 || got > want+0.02 {
			t.Errorf("kind %d is %.3f of the stream, want about %.2f", kind, got, want)
		}
	}
}

func TestDatasetIsAFunctionOfTheSeed(t *testing.T) {
	a, b := newDataset(5, 3, 10), newDataset(5, 3, 10)
	if a.names[17] != "org/dept001/host00017/addr" {
		t.Errorf("name 17 = %q", a.names[17])
	}
	for _, k := range []uint32{0, 1, 70000} {
		v := a.value(17, k)
		if len(v) != valueLen || v != b.value(17, k) {
			t.Errorf("value(17,%d) = %q, then %q", k, v, b.value(17, k))
		}
	}
	if a.value(17, 0) == a.value(17, 1) || a.value(17, 0) == a.value(18, 0) || a.value(17, 0) == newDataset(6, 3, 10).value(17, 0) {
		t.Error("values collide across versions, names or seeds")
	}
	if got, want := a.liveBytes(), int64(30*(len("org/dept001/host00017/addr")+valueLen)); got != want {
		t.Errorf("liveBytes = %d, want %d", got, want)
	}
}

// A name has one writer, so the only concurrency the model must admit is an
// enquiry overlapping that writer's Set: then either value is right.
func TestModelAdmitsEitherValueOnlyWhileASetIsInFlight(t *testing.T) {
	d := newDataset(9, 2, 5)
	m := newModel(d)
	v0, v1, v2 := d.value(3, 0), d.value(3, 1), d.value(3, 2)

	floor := m.beginLookup(3)
	if !m.checkLookup(3, floor, v0) || m.checkLookup(3, floor, v1) {
		t.Fatal("before any Set only the loaded value is admissible")
	}
	if m.settled(3) != v0 {
		t.Fatal("settled value before any Set is not the loaded one")
	}

	// A Lookup that began before the Set was sent and returns while it is in
	// flight, or after it, may see either.
	floor = m.beginLookup(3)
	if got := m.beginSet(3); got != v1 {
		t.Fatalf("first Set sends %q, want version 1", got)
	}
	if !m.checkLookup(3, floor, v0) || !m.checkLookup(3, floor, v1) || m.checkLookup(3, floor, v2) {
		t.Fatal("with a Set in flight exactly the old and the new value are admissible")
	}
	m.ackSet(3)
	if !m.checkLookup(3, floor, v0) || !m.checkLookup(3, floor, v1) {
		t.Fatal("a Lookup that began before the Set may still return either value after the ack")
	}

	// A Lookup that begins after the ack must see the new value.
	floor = m.beginLookup(3)
	if m.checkLookup(3, floor, v0) || !m.checkLookup(3, floor, v1) {
		t.Fatal("a Lookup begun after the ack must not return the overwritten value")
	}
	if m.settled(3) != v1 {
		t.Fatal("settled value is not the acknowledged one")
	}
	if m.checkLookup(3, floor, "") || m.checkLookup(4, m.beginLookup(4), v1) {
		t.Fatal("a value of another name, or none, was admitted")
	}
}

func TestModelUnderConcurrentReadersAndOneWriter(t *testing.T) {
	d := newDataset(11, 1, 4)
	m := newModel(d)
	var cur sync.Mutex // stands in for the store: the value a reader would get
	stored := d.value(2, 0)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			v := m.beginSet(2)
			cur.Lock()
			stored = v
			cur.Unlock()
			m.ackSet(2)
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				floor := m.beginLookup(2)
				cur.Lock()
				got := stored
				cur.Unlock()
				if !m.checkLookup(2, floor, got) {
					t.Errorf("a correct store's reply %q was rejected", got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if m.settled(2) != d.value(2, 2000) {
		t.Error("settled value is not the last acknowledged Set")
	}
}

func TestCheckList(t *testing.T) {
	d := newDataset(1, 3, 4)
	m := newModel(d)
	good := []string{"host00004", "host00005", "host00006", "host00007"}
	if !m.checkList(1, good) {
		t.Error("department 1's own host list was rejected")
	}
	if m.checkList(0, good) || m.checkList(1, good[:3]) || m.checkList(1, []string{"host00005", "host00004", "host00006", "host00007"}) {
		t.Error("a wrong, short or unsorted list was accepted")
	}
}
