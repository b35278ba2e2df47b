package replica

import (
	"errors"
	"strings"
	"testing"
)

// FuzzParseGroupSpec holds the group-membership decode path to its
// contract: arbitrary specs either parse into a config that re-validates
// cleanly or fail with one of the typed config errors — never a panic,
// never an unclassified error, never a config that Validate would reject.
func FuzzParseGroupSpec(f *testing.F) {
	f.Add("a", "b=host1:7001,c=host2:7001", 0)
	f.Add("a", "", 1)
	f.Add("node-1", "node-2=10.0.0.2:9,node-3=10.0.0.3:9", 2)
	f.Add("a", "b", 0)               // missing =addr
	f.Add("a", "=x", 0)              // missing name
	f.Add("a", "b=", 0)              // missing addr
	f.Add("a", "a=x", 0)             // self duplicated as peer
	f.Add("a", "b=x,b=y", 0)         // duplicate peer
	f.Add("a", "b=x", 5)             // W > N
	f.Add("a", "b=x", -3)            // W < 0
	f.Add("", "b=x", 0)              // empty self
	f.Add("a,b", "c=d", 1)           // separator in self
	f.Add("a", "b=x,,c=y", 0)        // empty item
	f.Add("a", " b = x , c = y ", 0) // whitespace tolerated
	f.Add("a", "b=x=y", 2)           // = in addr: first cut wins
	f.Add("a", strings.Repeat("m=", 1000), 1)
	f.Fuzz(func(t *testing.T, self, peers string, w int) {
		cfg, err := ParseGroupSpec(self, peers, w)
		if err != nil {
			for _, typed := range []error{ErrNoMembers, ErrDuplicateMember, ErrBadMember, ErrBadQuorum, ErrSelfNotMember} {
				if errors.Is(err, typed) {
					return
				}
			}
			t.Fatalf("ParseGroupSpec(%q, %q, %d): untyped error %v", self, peers, w, err)
		}
		if cfg.Members[0].Name != self {
			t.Fatalf("self mangled: %q -> %q", self, cfg.Members[0].Name)
		}
		if cfg.W < 1 || cfg.W > len(cfg.Members) {
			t.Fatalf("accepted quorum W=%d outside 1..%d", cfg.W, len(cfg.Members))
		}
		if verr := cfg.Validate(self); verr != nil {
			t.Fatalf("accepted config fails Validate: %v", verr)
		}
	})
}
