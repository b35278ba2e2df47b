package pickle_test

import (
	"fmt"

	"smalldb/internal/pickle"
)

// Employee demonstrates structural pickling with shared pointers.
type Employee struct {
	Name    string
	Manager *Employee
}

func Example() {
	boss := &Employee{Name: "birrell"}
	team := []*Employee{
		{Name: "jones", Manager: boss},
		{Name: "wobber", Manager: boss},
		boss,
	}

	data, err := pickle.Marshal(team)
	if err != nil {
		panic(err)
	}
	var out []*Employee
	if err := pickle.Unmarshal(data, &out); err != nil {
		panic(err)
	}

	// Shared pointers keep their identity: both reports reference the
	// same manager object, and the manager in the slice is that object.
	fmt.Println(out[0].Manager == out[1].Manager)
	fmt.Println(out[0].Manager == out[2])
	fmt.Println(out[2].Name)
	// Output:
	// true
	// true
	// birrell
}

func Example_schemaEvolution() {
	// A value written with one version of a struct decodes into another
	// that gained and lost fields: matching is by field name.
	type V1 struct {
		Name string
		Age  int
	}
	type V2 struct {
		Name  string
		Email string // new: left zero
		// Age removed: skipped
	}
	data, _ := pickle.Marshal(V1{Name: "amy", Age: 37})
	var v2 V2
	if err := pickle.Unmarshal(data, &v2); err != nil {
		panic(err)
	}
	fmt.Printf("%q %q\n", v2.Name, v2.Email)
	// Output: "amy" ""
}

func ExampleUnmarshalAny() {
	// A stream can be decoded without knowing its Go types — this is how
	// cmd/logdump renders any database's log entries.
	type Update struct {
		Key   string
		Value string
	}
	data, _ := pickle.Marshal(&Update{Key: "host", Value: "16.4.0.1"})
	v, err := pickle.UnmarshalAny(data)
	if err != nil {
		panic(err)
	}
	fmt.Println(pickle.Format(v))
	// Output:
	// &pickle_test.Update {
	//   Key: "host"
	//   Value: "16.4.0.1"
	// }
}
