package replica

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"smalldb/internal/nameserver"
	"smalldb/internal/obs"
	"smalldb/internal/pickle"
	"smalldb/internal/vfs"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz/FuzzPushArgs from its seeds")

// A node decodes a catch-up from the wire — a Push's argument or a Pull's
// reply — and judges each entry with Replicated.Verify, or a root with
// installSnapshot.Verify. What must hold of any byte string is stated in
// checkPush, and held against the committed seeds (TestPushArgsSeeds) and
// whatever the fuzzer derives from them (FuzzPushArgs).

// pushRoot is a small replicated root the entries are judged against: a's
// stream at seq 2, b's at 1, three names.
func pushRoot(t testing.TB) *Root {
	t.Helper()
	r := NewRoot().(*Root)
	for _, e := range []Entry{
		{Origin: "a", Seq: 1, Stamp: 1, Inner: pushSet("x/y")},
		{Origin: "a", Seq: 2, Stamp: 2, Inner: pushSet("x/z")},
		{Origin: "b", Seq: 1, Stamp: 3, Inner: pushSet("w")},
	} {
		u := e.update()
		if err := u.Verify(r); err != nil {
			t.Fatal(err)
		}
		if err := u.Apply(r); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func pushSet(name string) *nameserver.SetValue {
	parts, _ := nameserver.SplitPath(name)
	return &nameserver.SetValue{Path: parts, Value: "v"}
}

// pushSeeds builds FuzzPushArgs's corpus: entries Verify accepts, each way
// it refuses one — the seq-0 entry among them — a truncated push, a root one
// step ahead of pushRoot, that root with an entry beside it, and a root
// without a tree.
func pushSeeds(t testing.TB) map[string][]byte {
	t.Helper()
	marshal := func(c *Catchup) []byte {
		raw, err := pickle.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	push := func(entries ...Entry) []byte { return marshal(&Catchup{Entries: entries}) }
	nextEntry := Entry{Origin: "a", Seq: 3, Stamp: 4, Inner: pushSet("x/q")}
	next := push(nextEntry)
	ahead := pushRoot(t)
	if u := nextEntry.update(); u.Verify(ahead) != nil || u.Apply(ahead) != nil {
		t.Fatal("the next entry does not apply to pushRoot")
	}
	return map[string][]byte{
		"root":             marshal(&Catchup{Root: ahead}),
		"root-and-entries": marshal(&Catchup{Root: ahead, Entries: []Entry{nextEntry}}),
		"root-nil-tree":    marshal(&Catchup{Root: &Root{Vector: map[string]uint64{"a": 3}}}),
		"empty":            push(),
		"next":             next,
		"next-of-b":        push(Entry{Origin: "b", Seq: 2, Stamp: 9, Inner: pushSet("w")}),
		"new-origin":       push(Entry{Origin: "c", Seq: 1, Stamp: 1, Inner: pushSet("c/1")}),
		"duplicate":        push(Entry{Origin: "a", Seq: 1, Stamp: 1, Inner: pushSet("x/y")}),
		"gap":              push(Entry{Origin: "a", Seq: 9, Stamp: 9, Inner: pushSet("x/q")}),
		"seq0":             push(Entry{Origin: "a", Seq: 0, Stamp: 0, Inner: pushSet("x/q")}),
		"no-origin":        push(Entry{Seq: 3, Stamp: 4, Inner: pushSet("x/q")}),
		"nil-inner":        push(Entry{Origin: "a", Seq: 3, Stamp: 4}),
		"nil-move":         push(Entry{Origin: "a", Seq: 3, Stamp: 4, Inner: (*nameserver.Move)(nil)}),
		"delete":           push(Entry{Origin: "a", Seq: 3, Stamp: 4, Inner: &nameserver.DeleteSubtree{Path: []string{"x"}}}),
		"delete-missing":   push(Entry{Origin: "a", Seq: 3, Stamp: 4, Inner: &nameserver.DeleteSubtree{Path: []string{"nope"}}}),
		"delete-root":      push(Entry{Origin: "a", Seq: 3, Stamp: 4, Inner: &nameserver.DeleteSubtree{}}),
		"move":             push(Entry{Origin: "a", Seq: 3, Stamp: 4, Inner: &nameserver.Move{From: []string{"x"}, To: []string{"m", "n"}}}),
		"put":              push(Entry{Origin: "a", Seq: 3, Stamp: 4, Inner: &nameserver.PutSubtree{Path: []string{"p"}, Subtree: &nameserver.Node{Value: "v", HasValue: true}}}),
		"nested":           push(Entry{Origin: "a", Seq: 3, Stamp: 4, Inner: &Replicated{Origin: "b", Seq: 2, Inner: pushSet("w")}}),
		"mixed":            push(Entry{Origin: "a", Seq: 3, Stamp: 4, Inner: pushSet("x/q")}, Entry{Origin: "a", Seq: 0, Inner: pushSet("x/r")}, Entry{Origin: "b", Seq: 2, Stamp: 5, Inner: pushSet("w")}),
		"truncated":        next[:len(next)-3],
	}
}

// checkPush decodes data into a Catchup and requires a *pickle.Error, or
// else a catch-up checkRoot accepts, or entries whose updates Verify against
// pushRoot either accepts — and Apply then applies, as a no-op where the
// inner update's own precondition fails there — or refuses with a typed
// replica error.
// An entry with seq 0 is always refused as malformed: a decoded update is
// never local, so Verify's stamping cannot be reached from the wire. Nothing
// panics.
func checkPush(t *testing.T, data []byte) {
	t.Helper()
	var c Catchup
	if err := pickle.Unmarshal(data, &c); err != nil {
		var pe *pickle.Error
		if !errors.As(err, &pe) && !(err == io.EOF && len(data) <= 1) {
			t.Fatalf("decode failed with an untyped error: %T %v", err, err)
		}
		return
	}
	if c.Root != nil {
		checkRoot(t, &c)
		return
	}
	r := pushRoot(t)
	for i, e := range c.Entries {
		u := e.update()
		err := u.Verify(r)
		switch {
		case e.Seq == 0 && !errors.Is(err, ErrMalformedEntry):
			t.Fatalf("entry %d has seq 0 and was not refused as malformed: %v", i, err)
		case u.Seq != e.Seq || u.Stamp != e.Stamp:
			t.Fatalf("entry %d was restamped %d/%d from the wire's %d/%d", i, u.Seq, u.Stamp, e.Seq, e.Stamp)
		case err == nil:
			// A member's store is poisoned by an entry it verified but
			// could not apply.
			if aerr := u.Apply(r); aerr != nil {
				t.Fatalf("entry %d verified but failed to apply: %v", i, aerr)
			}
		case errors.Is(err, ErrMalformedEntry), errors.Is(err, ErrAlreadyApplied), errors.Is(err, ErrSequenceGap):
		default:
			t.Fatalf("entry %d refused with an untyped error: %v", i, err)
		}
	}
}

// checkRoot holds a catch-up carrying a root to the receiver's rules: with
// entries beside the root a node refuses it as malformed; alone, the root's
// install either verifies against pushRoot — and then applies, lowering no
// slot of pushRoot's vector or the root's — or is refused with a typed
// error.
func checkRoot(t *testing.T, c *Catchup) {
	t.Helper()
	if len(c.Entries) > 0 {
		n, err := Open(Config{Name: "m", FS: vfs.NewMem(1)})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		if _, err := n.absorb(c, obs.SpanContext{}); !errors.Is(err, ErrMalformedEntry) {
			t.Fatalf("a root with %d entries was not refused as malformed: %v", len(c.Entries), err)
		}
		return
	}
	r := pushRoot(t)
	want := copyVector(r.Vector)
	for o, seq := range c.Root.Vector {
		want[o] = max(want[o], seq)
	}
	u := &installSnapshot{Snap: c.Root}
	err := u.Verify(r)
	switch {
	case err == nil:
		if aerr := u.Apply(r); aerr != nil {
			t.Fatalf("root verified but failed to install: %v", aerr)
		}
		for o, seq := range want {
			if r.Vector[o] < seq {
				t.Fatalf("install left %s at %d, below %d", o, r.Vector[o], seq)
			}
		}
	case errors.Is(err, ErrMalformedEntry), errors.Is(err, ErrAlreadyApplied), errors.Is(err, ErrInstallRegress):
	default:
		t.Fatalf("root refused with an untyped error: %v", err)
	}
}

// TestPushArgsSeeds holds each committed corpus entry to its seed: the same
// bytes, or bytes that decode to the same catch-up. An entry committed while
// the root kept a history window carries that window's fields, which
// decoding skips.
func TestPushArgsSeeds(t *testing.T) {
	for name, data := range pushSeeds(t) {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", "fuzz", "FuzzPushArgs")
			entry := []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n")
			if *updateCorpus {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, name), entry, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			on, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			quoted := strings.TrimSuffix(strings.TrimPrefix(string(on), "go test fuzz v1\n[]byte("), ")\n")
			committed, err := strconv.Unquote(quoted)
			if err != nil || !bytes.Equal(on, entry) && repickled(committed) != repickled(string(data)) {
				t.Errorf("committed corpus entry does not decode to this seed (rerun with -update-corpus): %v", err)
			}
			checkPush(t, data)
		})
	}
}

// repickled is the catch-up data decodes to, pickled again; "" when it does
// not decode.
func repickled(data string) string {
	var c Catchup
	if pickle.Unmarshal([]byte(data), &c) != nil {
		return ""
	}
	out, _ := pickle.Marshal(&c)
	return string(out)
}

func FuzzPushArgs(f *testing.F) {
	for _, data := range pushSeeds(f) {
		f.Add(data)
	}
	f.Fuzz(checkPush)
}
