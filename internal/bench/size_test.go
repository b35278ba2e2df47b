package bench

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// sizeLedger is the committed ceiling on each package's non-test Go lines,
// one "<dir> <ceiling>" per line, directories relative to the module root.
const sizeLedger = "testdata/size-ledger.txt"

// TestSizeLedger makes "small" a measured claim like "fast": every package
// of the module (benchmark/ is its own module) must stay at or under its
// ledger ceiling, counted as E10 counts — non-test .go lines. A package may
// shrink freely; one that grows fails until the same change raises its
// ceiling, so every increase is a line in review. Packages added or removed
// must be added to or removed from the ledger.
func TestSizeLedger(t *testing.T) {
	ceilings := readLedger(t)
	root := srcRoot()
	counts := map[string]int{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if rel == "benchmark" || d.Name() == "testdata" || rel != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		n, err := countGoLines(path)
		if n > 0 {
			counts[rel] = n
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	total := 0
	for _, dir := range sortedKeys(counts) {
		n := counts[dir]
		total += n
		ceiling, ok := ceilings[dir]
		switch {
		case !ok:
			t.Errorf("%s: %d lines and no ceiling; add %q to internal/bench/%s", dir, n, dir+" "+strconv.Itoa(n), sizeLedger)
		case n > ceiling:
			t.Errorf("%s grew to %d lines, past its ceiling of %d; raise the ceiling in internal/bench/%s in the same change", dir, n, ceiling, sizeLedger)
		}
	}
	for _, dir := range sortedKeys(ceilings) {
		if _, ok := counts[dir]; !ok {
			t.Errorf("%s is in the ledger but holds no Go code; remove its line", dir)
		}
	}
	t.Logf("%d non-test Go lines in %d packages", total, len(counts))
}

// readLedger parses the ledger into directory → ceiling.
func readLedger(t *testing.T) map[string]int {
	t.Helper()
	f, err := os.Open(sizeLedger)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ceilings := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		dir, n, ok := strings.Cut(line, " ")
		ceiling, err := strconv.Atoi(strings.TrimSpace(n))
		if !ok || err != nil {
			t.Fatalf("%s: malformed line %q", sizeLedger, line)
		}
		ceilings[dir] = ceiling
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return ceilings
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
