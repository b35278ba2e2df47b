package core

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"smalldb/internal/checkpoint"
	"smalldb/internal/pickle"
	"smalldb/internal/vfs"
	"smalldb/internal/wal"
)

// dkvRoot is a delta-capable variant of the kv test root: SnapshotView
// copies the table (an immutable view), DeltaOf folds the keys the logged
// updates wrote into their current values or deletions, ApplyDelta replays
// them. It stands in for the real tree roots so the DeltaRoot contract is
// tested without depending on their COW machinery.
type dkvRoot struct {
	Data map[string]string
}

func newDKV() any { return &dkvRoot{Data: make(map[string]string)} }

func (r *dkvRoot) SnapshotView() any {
	c := make(map[string]string, len(r.Data))
	for k, v := range r.Data {
		c[k] = v
	}
	return &dkvRoot{Data: c}
}

type dkvDelta struct {
	Put map[string]string
	Del []string
}

func (d *dkvDelta) DeltaOps() int { return len(d.Put) + len(d.Del) }

func (r *dkvRoot) DeltaOf(updates func(each func(Update) error) error) (any, error) {
	written := map[string]bool{}
	err := updates(func(u Update) error {
		switch u := u.(type) {
		case *putDKV:
			written[u.Key] = true
		case *delDKV:
			written[u.Key] = true
		default:
			return fmt.Errorf("cannot fold a %T", u)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	d := &dkvDelta{Put: map[string]string{}}
	for k := range written {
		if v, ok := r.Data[k]; ok {
			d.Put[k] = v
		} else {
			d.Del = append(d.Del, k)
		}
	}
	sort.Strings(d.Del)
	return d, nil
}

func (r *dkvRoot) ApplyDelta(delta any) error {
	d, ok := delta.(*dkvDelta)
	if !ok {
		return fmt.Errorf("delta is %T", delta)
	}
	for k, v := range d.Put {
		r.Data[k] = v
	}
	for _, k := range d.Del {
		delete(r.Data, k)
	}
	return nil
}

type putDKV struct{ Key, Value string }

func (u *putDKV) Verify(root any) error { return nil }
func (u *putDKV) Apply(root any) error {
	root.(*dkvRoot).Data[u.Key] = u.Value
	return nil
}

type delDKV struct{ Key string }

func (u *delDKV) Verify(root any) error { return nil }
func (u *delDKV) Apply(root any) error {
	delete(root.(*dkvRoot).Data, u.Key)
	return nil
}

func init() {
	pickle.Register(&dkvRoot{})
	pickle.Register(&dkvDelta{})
	RegisterUpdate(&putDKV{})
	RegisterUpdate(&delDKV{})
}

func openDKV(t *testing.T, fs vfs.FS, mod ...func(*Config)) *Store {
	t.Helper()
	cfg := Config{FS: fs, NewRoot: newDKV}
	for _, m := range mod {
		m(&cfg)
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func dkvData(t *testing.T, s *Store) map[string]string {
	t.Helper()
	out := map[string]string{}
	if err := s.View(func(root any) error {
		for k, v := range root.(*dkvRoot).Data {
			out[k] = v
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// populate writes n keys sized so the base image dwarfs later deltas.
func populateDKV(t *testing.T, s *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Apply(&putDKV{Key: fmt.Sprintf("key%04d", i), Value: strings.Repeat("x", 64)}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeltaCheckpointFiles: the second checkpoint of a delta-capable root
// writes checkpointN.d, chained onto the full base; restart loads the
// chain and lands on the same state.
func TestDeltaCheckpointFiles(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openDKV(t, fs)
	populateDKV(t, s, 200)
	if err := s.Checkpoint(); err != nil { // big first image: full (size guard)
		t.Fatal(err)
	}
	if vfs.Exists(fs, checkpoint.DeltaName(2)) {
		t.Fatal("first post-populate checkpoint should be full, not a delta")
	}
	// Small churn, then checkpoint: this one must be a delta.
	for i := 0; i < 5; i++ {
		if err := s.Apply(&putDKV{Key: fmt.Sprintf("key%04d", i), Value: "changed"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Apply(&delDKV{Key: "key0199"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !vfs.Exists(fs, checkpoint.DeltaName(3)) || vfs.Exists(fs, checkpoint.CheckpointName(3)) {
		t.Fatal("second checkpoint did not write a delta file")
	}
	st := s.Stats()
	if st.DeltaCheckpoints != 1 || st.ChainLength != 2 {
		t.Fatalf("stats: delta=%d chain=%d", st.DeltaCheckpoints, st.ChainLength)
	}
	if st.LastCheckpointBytes <= 0 {
		t.Fatal("LastCheckpointBytes not recorded")
	}
	want := dkvData(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openDKV(t, fs)
	defer s2.Close()
	if got := dkvData(t, s2); !reflect.DeepEqual(got, want) {
		t.Fatalf("restart from chain diverged: %d vs %d keys", len(got), len(want))
	}
	rst := s2.Stats()
	if rst.RestartDeltasApplied != 1 {
		t.Fatalf("restart applied %d deltas, want 1", rst.RestartDeltasApplied)
	}
}

// TestDeltaRestartEquivalence: rounds of churn + checkpoint + crash,
// recovering through full base + delta chain + log each time.
func TestDeltaRestartEquivalence(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openDKV(t, fs)
	populateDKV(t, s, 150)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 8; i++ {
			if err := s.Apply(&putDKV{Key: fmt.Sprintf("key%04d", i*7), Value: fmt.Sprintf("r%d", round)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		// Post-checkpoint updates live only in the log: replay must run on
		// top of the chain-reconstructed root.
		if err := s.Apply(&putDKV{Key: "tail", Value: fmt.Sprintf("r%d", round)}); err != nil {
			t.Fatal(err)
		}
		want := dkvData(t, s)
		fs.Crash()
		s = openDKV(t, fs)
		if got := dkvData(t, s); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: recovered state diverged", round)
		}
		if got := s.Stats().ChainLength; got != round+2 {
			t.Fatalf("round %d: chain length %d, want %d", round, got, round+2)
		}
	}
	s.Close()
}

// TestCompactionByChainLength: once the chain holds MaxDeltaChain deltas,
// the next checkpoint writes a fresh full image itself.
func TestCompactionByChainLength(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openDKV(t, fs, func(c *Config) { c.MaxDeltaChain = 2 })
	defer s.Close()
	populateDKV(t, s, 100)
	if err := s.Checkpoint(); err != nil { // v2: full
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if err := s.Apply(&putDKV{Key: fmt.Sprintf("churn%d", round), Value: "x"}); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil { // v3, v4: deltas; v5: full
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.DeltaCheckpoints != 2 || st.Compactions != 1 {
		t.Fatalf("%d deltas and %d compactions, want 2 and 1", st.DeltaCheckpoints, st.Compactions)
	}
	if st.ChainLength != 1 {
		t.Fatalf("chain length %d after compaction", st.ChainLength)
	}
	if s.Version() != 5 || !vfs.Exists(fs, checkpoint.CheckpointName(5)) {
		t.Fatalf("version %d; compacted full image missing", s.Version())
	}
}

// TestCompactionByRatio: the checkpoint whose delta would take the chain's
// delta bytes past base*MaxDeltaRatio writes a full image instead, even
// with a short chain.
func TestCompactionByRatio(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openDKV(t, fs, func(c *Config) {
		c.MaxDeltaRatio = 0.05
		c.MaxDeltaChain = 100 // out of the way: the ratio must trigger first
	})
	defer s.Close()
	populateDKV(t, s, 300)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	base := s.Version()
	// Tiny per-checkpoint churn: each delta fits on its own, and the
	// chain's sum crosses base*0.05 after a few rounds.
	for i := 0; ; i++ {
		if i > 50 {
			t.Fatal("compaction never triggered")
		}
		if err := s.Apply(&putDKV{Key: fmt.Sprintf("key%04d", i), Value: "y"}); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if s.Stats().Compactions > 0 {
			break
		}
	}
	st := s.Stats()
	if st.ChainLength != 1 || vfs.Exists(fs, checkpoint.DeltaName(s.Version())) {
		t.Fatalf("chain length %d after ratio compaction", st.ChainLength)
	}
	if st.DeltaCheckpoints == 0 {
		t.Fatal("no deltas were written before the ratio compaction")
	}
	if s.Version() <= base {
		t.Fatal("version did not advance")
	}
}

// TestChainBoundAfterEveryCheckpoint: the chain bound holds the moment each
// Checkpoint call returns, however fast the calls follow one another —
// no re-base is left for later.
func TestChainBoundAfterEveryCheckpoint(t *testing.T) {
	const maxChain = 2
	s := openDKV(t, vfs.NewMem(1), func(c *Config) { c.MaxDeltaChain = maxChain })
	defer s.Close()
	populateDKV(t, s, 100)
	for i := 0; i < 12; i++ {
		if err := s.Apply(&putDKV{Key: fmt.Sprintf("key%04d", i), Value: "z"}); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if got := s.Stats().ChainLength; got > maxChain+1 {
			t.Fatalf("checkpoint %d left a chain of %d files, bound %d", i, got, maxChain+1)
		}
	}
	if st := s.Stats(); st.DeltaCheckpoints == 0 || st.Compactions == 0 {
		t.Fatalf("%d deltas and %d compactions: the bound was never tested", st.DeltaCheckpoints, st.Compactions)
	}
}

// TestDeltaSizeGuard: a checkpoint whose delta would rival the base image
// writes a full image instead (and resets the chain).
func TestDeltaSizeGuard(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openDKV(t, fs)
	defer s.Close()
	populateDKV(t, s, 100)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Rewrite every key with new values: the delta would be as big as the
	// root.
	for i := 0; i < 100; i++ {
		if err := s.Apply(&putDKV{Key: fmt.Sprintf("key%04d", i), Value: strings.Repeat("z", 64)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	v := s.Version()
	if vfs.Exists(fs, checkpoint.DeltaName(v)) {
		t.Fatal("near-total churn still produced a delta")
	}
	if st := s.Stats(); st.ChainLength != 1 {
		t.Fatalf("chain length %d, want 1 (fresh full image)", st.ChainLength)
	}
}

// TestUnversionedRootFullCheckpoints: a root without SnapshotView (or
// DeltaRoot) is the one branch of the checkpoint protocol — observed from
// the root, not configured: every checkpoint pickles the whole root under
// the update lock, no .d file is ever written, and restart reads one image.
func TestUnversionedRootFullCheckpoints(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs)
	for round := 0; round < 3; round++ {
		put(t, s, "k", fmt.Sprint(round))
		put(t, s, fmt.Sprintf("r%d", round), "1")
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	for v := uint64(2); v <= 4; v++ {
		if vfs.Exists(fs, checkpoint.DeltaName(v)) {
			t.Fatalf("unversioned root produced a delta file for version %d", v)
		}
	}
	if st := s.Stats(); st.DeltaCheckpoints != 0 || st.ChainLength != 1 {
		t.Fatalf("stats claim %d delta checkpoints, chain length %d", st.DeltaCheckpoints, st.ChainLength)
	}
	want := kvKinds[0].snapshot(t, s)
	s.Close()
	s2 := openKV(t, fs)
	defer s2.Close()
	if got := kvKinds[0].snapshot(t, s2); !reflect.DeepEqual(got, want) {
		t.Fatalf("restart from full images diverged: %v vs %v", got, want)
	}
	if rst := s2.Stats(); rst.RestartDeltasApplied != 0 {
		t.Fatalf("restart applied %d deltas", rst.RestartDeltasApplied)
	}
}

// TestDeltaChainFallback: with the chain's newest delta corrupted and a
// version retained, restart falls back to the previous version's chain and
// replays both logs (§4 generalized to chains); the next checkpoint is a
// full image, never a delta chained onto the damaged version.
func TestDeltaChainFallback(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openDKV(t, fs, func(c *Config) { c.Retain = 1 })
	populateDKV(t, s, 100)
	if err := s.Checkpoint(); err != nil { // v2: full
		t.Fatal(err)
	}
	if err := s.Apply(&putDKV{Key: "k1", Value: "v1"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil { // v3: delta
		t.Fatal(err)
	}
	if err := s.Apply(&putDKV{Key: "k2", Value: "v2"}); err != nil {
		t.Fatal(err)
	}
	want := dkvData(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !vfs.Exists(fs, checkpoint.DeltaName(3)) {
		t.Fatal("setup: v3 is not a delta")
	}
	// Corrupt the newest delta (hard error on the current version).
	if err := vfs.WriteFile(fs, checkpoint.DeltaName(3), []byte("garbage")); err != nil {
		t.Fatal(err)
	}

	s2 := openDKV(t, fs, func(c *Config) { c.Retain = 1 })
	defer s2.Close()
	if got := dkvData(t, s2); !reflect.DeepEqual(got, want) {
		t.Fatal("fallback recovery diverged")
	}
	if st := s2.Stats(); !st.RestartUsedFallback {
		t.Fatal("fallback not reported")
	}
	// The damaged version must not become a delta parent.
	if err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if vfs.Exists(fs, checkpoint.DeltaName(4)) {
		t.Fatal("checkpoint after fallback chained onto a damaged version")
	}
}

// TestDamagedLogWritesFullImage: a delta is folded from the log the
// checkpoint retires, so an entry of it damaged between two checkpoints —
// in the middle of the log or at its end, and whether or not recovery would
// skip damaged entries — makes the checkpoint write a full image, and a
// restart returns what memory held.
func TestDamagedLogWritesFullImage(t *testing.T) {
	for _, skip := range []bool{false, true} {
		for _, entry := range []uint64{2, 5} {
			fs := vfs.NewMem(1)
			s := openDKV(t, fs, func(c *Config) { c.SkipDamagedLogEntries = skip })
			populateDKV(t, s, 200)
			if err := s.Checkpoint(); err != nil { // v2: full
				t.Fatal(err)
			}
			first := s.AppliedSeq() + 1
			for i := 0; i < 5; i++ {
				if err := s.Apply(&putDKV{Key: fmt.Sprintf("key%04d", i), Value: "changed"}); err != nil {
					t.Fatal(err)
				}
			}
			// Replay stops before the entry to damage: GoodSize is where it
			// starts. Damage its payload.
			stop := errors.New("stop")
			res, _ := wal.Replay(fs, checkpoint.LogName(2), first, wal.ReplayOptions{}, func(seq uint64, _ []byte) error {
				if seq == first+entry-1 {
					return stop
				}
				return nil
			})
			if err := fs.Damage(checkpoint.LogName(2), res.GoodSize+3, 2); err != nil {
				t.Fatal(err)
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if st := s.Stats(); st.DeltaCheckpoints != 0 || !vfs.Exists(fs, checkpoint.CheckpointName(3)) {
				t.Fatalf("skip=%v, entry %d damaged: the checkpoint wrote a delta (%d deltas)", skip, entry, st.DeltaCheckpoints)
			}
			want := dkvData(t, s)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s = openDKV(t, fs, func(c *Config) { c.SkipDamagedLogEntries = skip })
			if got := dkvData(t, s); !reflect.DeepEqual(got, want) {
				t.Fatalf("skip=%v, entry %d damaged: restart diverged from memory", skip, entry)
			}
			s.Close()
		}
	}
}
