package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"smalldb/internal/vfs"
)

// TestSoakLifecycle compresses a long operational life into one test: many
// cycles of updates, deletions, policy-driven and explicit checkpoints,
// clean shutdowns, hard kills with torn pages, and occasional media damage
// recovered through the retained previous version — with a flat-map oracle
// checked after every recovery. It is the E9 property run across the
// store's entire feature surface.
func TestSoakLifecycle(t *testing.T) {
	seeds := 6
	cycles := 12
	if testing.Short() {
		seeds, cycles = 2, 5
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			fs := vfs.NewMem(seed)
			oracle := map[string]string{}

			cfg := Config{
				FS:            fs,
				NewRoot:       newKV,
				Retain:        1,
				MaxLogEntries: int64(10 + rng.Intn(40)),
				LogShards:     1 + 3*rng.Intn(2),
			}
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}

			for cycle := 0; cycle < cycles; cycle++ {
				// A burst of updates; a random crash may cut it
				// short.
				crashAfter := -1
				if rng.Intn(3) == 0 {
					crashAfter = rng.Intn(15)
				}
				count := 0
				boom := errors.New("injected crash")
				if crashAfter >= 0 {
					fs.FailSync = func(string) error {
						count++
						if count > crashAfter {
							return boom
						}
						return nil
					}
				}

				// pending is the single ambiguous update: the one
				// whose Apply failed at the injected crash. Its log
				// entry may or may not have become durable; recovery
				// decides.
				type ambiguous struct {
					del bool
					key string
					val string
				}
				var pending *ambiguous

				burst := 5 + rng.Intn(25)
				for i := 0; i < burst; i++ {
					key := fmt.Sprintf("k%d", rng.Intn(50))
					if rng.Intn(4) == 0 {
						if _, exists := oracle[key]; exists {
							if err := s.Apply(&delKV{Key: key}); err != nil {
								pending = &ambiguous{del: true, key: key}
								break
							}
							delete(oracle, key)
							continue
						}
					}
					val := fmt.Sprintf("s%d-c%d-i%d", seed, cycle, i)
					if err := s.Apply(&putKV{Key: key, Value: val}); err != nil {
						pending = &ambiguous{key: key, val: val}
						break
					}
					oracle[key] = val
				}
				// Quiesce any in-flight background auto-checkpoint
				// before touching fs.FailSync (the checkpoint
				// goroutine syncs through it) — checkpointing clears
				// only after the goroutine has fully finished.
				for s.checkpointing.Load() {
					runtime.Gosched()
				}
				fs.FailSync = nil

				// Sometimes an explicit checkpoint.
				if rng.Intn(3) == 0 {
					_ = s.Checkpoint() // may fail if poisoned; recovery below sorts it out
				}

				// End the cycle with a shutdown of some kind. A real
				// hard kill takes the process's goroutines with it;
				// here the store object would outlive the "kill" and
				// its background auto-checkpoint could keep writing
				// to the fs we are about to recover from, so quiesce
				// again (the explicit checkpoint above may have
				// retriggered one through its own updates — and the
				// crash must not race a live checkpoint goroutine).
				for s.checkpointing.Load() {
					runtime.Gosched()
				}
				switch rng.Intn(3) {
				case 0:
					s.Close()
				case 1:
					fs.Crash() // hard kill
				default:
					fs.CrashTorn(512) // hard kill with torn pages
				}

				s, err = Open(cfg)
				if err != nil {
					t.Fatalf("cycle %d: recovery failed: %v", cycle, err)
				}
				// First resolve the ambiguous in-flight update: if
				// its effect is visible, it committed — adopt it.
				if pending != nil {
					got, ok := get(t, s, pending.key)
					switch {
					case pending.del && !ok:
						delete(oracle, pending.key)
					case !pending.del && ok && got == pending.val:
						oracle[pending.key] = pending.val
					}
				}
				// Every acknowledged update must be present.
				for k, v := range oracle {
					got, ok := get(t, s, k)
					if !ok || got != v {
						t.Fatalf("cycle %d: oracle mismatch at %s: got %q,%v want %q", cycle, k, got, ok, v)
					}
				}
				// And nothing unexplained may exist.
				s.View(func(root any) error {
					for k, v := range root.(*kvRoot).Data {
						if ov, ok := oracle[k]; !ok || ov != v {
							t.Errorf("cycle %d: unexplained key %s=%q (oracle %q)", cycle, k, v, ov)
						}
					}
					return nil
				})
			}
			s.Close()
		})
	}
}

// TestSoakHardErrorFallback interleaves checkpoint-file damage with the
// lifecycle: after damaging the current checkpoint, recovery must come back
// through the retained previous version without losing acknowledged data.
func TestSoakHardErrorFallback(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed + 100))
		fs := vfs.NewMem(seed)
		cfg := Config{FS: fs, NewRoot: newKV, Retain: 1}
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		oracle := map[string]string{}
		write := func(n int, tag string) {
			for i := 0; i < n; i++ {
				k := fmt.Sprintf("k%d", rng.Intn(30))
				v := tag + fmt.Sprint(i)
				if err := s.Apply(&putKV{Key: k, Value: v}); err != nil {
					t.Fatal(err)
				}
				oracle[k] = v
			}
		}
		write(10, "era1-")
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		write(10, "era2-")
		if err := s.Checkpoint(); err != nil { // current = v3, retained = v2
			t.Fatal(err)
		}
		write(5, "era3-")
		s.Close()

		// Damage the current checkpoint.
		cur := fmt.Sprintf("checkpoint%d", 3)
		if err := fs.Damage(cur, 0, 64); err != nil {
			t.Fatal(err)
		}

		s, err = Open(cfg)
		if err != nil {
			t.Fatalf("seed %d: fallback recovery failed: %v", seed, err)
		}
		if !s.Stats().RestartUsedFallback {
			t.Fatalf("seed %d: fallback not used", seed)
		}
		for k, v := range oracle {
			if got, ok := get(t, s, k); !ok || got != v {
				t.Fatalf("seed %d: %s = %q,%v want %q", seed, k, got, ok, v)
			}
		}
		s.Close()
	}
}
