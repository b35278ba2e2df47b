package smalldb_test

import (
	"fmt"

	"smalldb"
)

// Counters is a tiny example database: named counters.
type Counters struct {
	N map[string]int
}

// Increment is a single-shot transaction adding Delta to one counter.
type Increment struct {
	Name  string
	Delta int
}

// Verify implements smalldb.Update: preconditions are checked in memory
// before anything reaches the disk.
func (u *Increment) Verify(root any) error {
	if u.Delta == 0 {
		return fmt.Errorf("increment of zero")
	}
	return nil
}

// Apply implements smalldb.Update: called after the update's log entry is
// durably on disk.
func (u *Increment) Apply(root any) error {
	root.(*Counters).N[u.Name] += u.Delta
	return nil
}

func init() {
	smalldb.Register(&Counters{})
	smalldb.RegisterUpdate(&Increment{})
}

// Example shows the whole lifecycle: open, update (one disk write each),
// read (no disk), checkpoint, crash, recover.
func Example() {
	fs := smalldb.NewMemFS(1) // use NewDirFS for a real directory
	cfg := smalldb.Config{
		FS:      fs,
		NewRoot: func() any { return &Counters{N: map[string]int{}} },
		Retain:  1,
	}
	st, err := smalldb.Open(cfg)
	if err != nil {
		panic(err)
	}

	st.Apply(&Increment{Name: "requests", Delta: 3})
	st.Apply(&Increment{Name: "requests", Delta: 4})
	st.Checkpoint()
	st.Apply(&Increment{Name: "errors", Delta: 1})

	// Simulate a crash: unsynced state vanishes, committed updates stay.
	fs.Crash()
	st, err = smalldb.Open(cfg)
	if err != nil {
		panic(err)
	}
	defer st.Close()

	st.View(func(root any) error {
		c := root.(*Counters)
		fmt.Println("requests:", c.N["requests"])
		fmt.Println("errors:", c.N["errors"])
		return nil
	})
	fmt.Println("replayed:", st.Stats().RestartEntries, "log entry")
	// Output:
	// requests: 7
	// errors: 1
	// replayed: 1 log entry
}

// ExampleOpenMulti shows the §7 partitioned variant: independent
// checkpoints, one log per partition.
func ExampleOpenMulti() {
	fs := smalldb.NewMemFS(1)
	set, err := smalldb.OpenMulti(smalldb.MultiConfig{
		FS: fs,
		Partitions: map[string]func() any{
			"east": func() any { return &Counters{N: map[string]int{}} },
			"west": func() any { return &Counters{N: map[string]int{}} },
		},
	})
	if err != nil {
		panic(err)
	}
	defer set.Close()

	set.Apply("east", &Increment{Name: "reqs", Delta: 10})
	set.Apply("west", &Increment{Name: "reqs", Delta: 20})
	set.Checkpoint("east") // only east blocks, briefly

	set.View("west", func(root any) error {
		fmt.Println("west reqs:", root.(*Counters).N["reqs"])
		return nil
	})
	// Output:
	// west reqs: 20
}
